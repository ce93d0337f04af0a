package obs

// This file is the module's one sanctioned wall-clock site outside
// internal/tensor/rand.go and cmd/: the seededrand analyzer exempts
// internal/obs/clock.go by name, exactly as it exempts tensor/rand.go for
// math/rand. Nothing else in obs — and nothing that consumes a Tracer or
// Registry — may read the wall clock; they see time only through the
// injected func() int64.

import (
	"fmt"
	"sync/atomic"
	"time"
)

// WallClock returns a monotonic nanosecond clock anchored at the call —
// the clock commands inject into tracers and serving engines. Library code
// must not call this on its own behalf (measurements belong to whoever runs
// the process); it lives here so every cmd does not re-derive the same three
// lines around time.Since.
func WallClock() func() int64 {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

// StepClock returns a deterministic fake clock that advances by stride
// nanoseconds on every read, starting at stride. Two runs that read the
// clock the same number of times in the same order see identical
// timestamps, which makes traces recorded under it byte-identical — the
// property the profile smoke test and the golden trace tests assert.
// The counter is atomic so a shared fake stays race-free.
func StepClock(stride int64) func() int64 {
	if stride <= 0 {
		stride = 1
	}
	var n atomic.Int64
	return func() int64 { return n.Add(1) * stride }
}

// ParseClock returns the clock a command's -clock flag names: "wall" for
// WallClock, "step" for a StepClock of 1µs stride, whose readings — and so
// every span and timing recorded under it — depend only on read order.
func ParseClock(kind string) (func() int64, error) {
	switch kind {
	case "wall":
		return WallClock(), nil
	case "step":
		return StepClock(1000), nil
	default:
		return nil, fmt.Errorf("unknown clock %q (want wall, step)", kind)
	}
}
