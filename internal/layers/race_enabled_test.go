//go:build race

package layers

// raceEnabled reports whether the race detector instruments this build; its
// checkptr instrumentation makes each float bit cast cost tens of
// nanoseconds, so exhaustive sweeps sample instead.
const raceEnabled = true
