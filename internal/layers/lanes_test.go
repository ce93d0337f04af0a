package layers

import (
	"fmt"
	"math"
	"testing"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// forEachBody runs f once per multiply-accumulate body — the AVX2 lanes where
// this CPU has them, then the scalar bodies — and restores the selection.
func forEachBody(f func(body string)) {
	saved := useLanes
	defer func() { useLanes = saved }()
	for _, lanes := range []bool{true, false} {
		if lanes && !hasAVX2() {
			continue
		}
		useLanes = lanes
		f(ConvBody())
	}
}

// laneEdgeGeoms are geometries at the edges of the lane blocks: interior runs
// of exactly 7, 8, 9 and 17 columns (the forward's and dx's), channel counts
// of 7, 8, 9 and 20 on either side (the overlapped output block, dx's channel
// tail, dW's padded input block and output tail), flattened 1×1 runs,
// strided dx runs and FC's channel lanes on both sides of 32.
func laneEdgeGeoms() []struct {
	conv    Conv2D
	n, h, w int
} {
	grouped := func(c Conv2D, g int) Conv2D { c.Groups = g; return c }
	return []struct {
		conv    Conv2D
		n, h, w int
	}{
		{NewConv2D(7, 8, 3, 1, 1), 2, 5, 9},                // run 7: scalar columns only
		{NewConv2D(8, 7, 3, 1, 1), 2, 6, 10},               // run 8, Cout 7
		{NewConv2D(9, 9, 3, 1, 1), 2, 4, 11},               // run 9, Cin/Cout 9
		{NewConv2D(20, 20, 3, 1, 1), 1, 3, 19},             // run 17, Cin/Cout 20
		{NewConv2D(8, 9, 1, 1, 0), 2, 3, 3},                // flattened run 9
		{NewConv2D(20, 4, 1, 1, 0), 2, 8, 8},               // bn-heavy's bottleneck, flattened
		{NewConv2D(9, 20, 1, 1, 0), 1, 5, 5},               // flattened run 25
		{NewConv2D(8, 8, 3, 2, 1), 2, 5, 20},               // strided: dx runs per residue
		{NewConv2D(7, 9, 1, 1, 1), 2, 4, 10},               // 1×1 padded: not flattened
		{NewConv2D(4, 4, 3, 1, 3), 2, 3, 12},               // pad ≥ kernel: output rows without taps
		{grouped(NewConv2D(16, 10, 3, 1, 1), 2), 2, 4, 12}, // CoutG 5, CinG 8
		{NewConv2D(31, 33, 1, 1, 0), 3, 1, 1},              // FC shapes around 32
		{NewConv2D(32, 32, 1, 1, 0), 2, 1, 1},
		{NewConv2D(65, 40, 1, 1, 0), 2, 1, 1},
		{NewConv2D(40, 9, 1, 1, 0), 2, 1, 1},
	}
}

// laneCase fills a geometry's operands with finite values, exact zeros and
// −0 seeds, and with ±Inf and NaN planted in x, w and dy when poisoned.
func laneCase(seed uint64, conv Conv2D, n, h, wd int, poisoned bool) (x, w, bias, dy, dx0, dw0 *tensor.Tensor) {
	x = tensor.New(n, conv.InChannels, h, wd)
	w = tensor.New(conv.WeightShape()...)
	bias = tensor.New(conv.OutChannels)
	dy = tensor.New(conv.OutShape(x.Shape())...)
	dx0, dw0 = tensor.New(x.Shape()...), tensor.New(w.Shape()...)
	rng := tensor.NewRNG(seed)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.5)
	rng.FillUniform(bias, -1, 1)
	rng.FillUniform(dy, -1, 1)
	rng.FillNormal(dx0, 0, 1)
	negZero := float32(math.Copysign(0, -1))
	for _, t := range []*tensor.Tensor{bias, dx0, dw0} {
		for i := 0; i < len(t.Data); i += 2 {
			t.Data[i] = negZero
		}
	}
	for i := 0; i < len(dy.Data); i += 5 {
		dy.Data[i] = 0
	}
	if poisoned {
		inf, nan := float32(math.Inf(1)), float32(math.NaN())
		for i, v := range []float32{inf, -inf, nan} {
			x.Data[(13*i+5)%len(x.Data)] = v
			w.Data[(7*i+2)%len(w.Data)] = v
			dy.Data[(17*i+3)%len(dy.Data)] = v
		}
	}
	return x, w, bias, dy, dx0, dw0
}

// Every lane edge on both bodies: the forward with −0 and finite biases, the
// backward onto zeroed and onto −0-seeded buffers, against the legacy loops,
// at workers 1 and 4.
func TestLaneEdgesBitIdenticalToLegacy(t *testing.T) {
	for gi, cfg := range laneEdgeGeoms() {
		conv := cfg.conv
		for _, poisoned := range []bool{false, true} {
			x, w, bias, dy, dx0, dw0 := laneCase(uint64(50+gi), conv, cfg.n, cfg.h, cfg.w, poisoned)
			yWant := legacyConvForward(conv, x, w, bias.Data)
			forEachBody(func(body string) {
				for _, workers := range []int{1, 4} {
					pool := parallel.New(workers)
					c := conv.WithPool(pool)
					y, err := c.ForwardBias(x, w, bias)
					if err != nil {
						t.Fatal(err)
					}
					if !sameFloats(y.Data, yWant.Data) {
						t.Errorf("%s: conv %+v %dx%d poisoned=%v workers=%d: forward differs from legacy", body, conv, cfg.h, cfg.w, poisoned, workers)
					}
					pooled := pool.NumChunks(cfg.n) > 1
					wantDX, wantDW := dx0.Clone(), dw0.Clone()
					convBackwardWant(conv, cfg.n, cfg.h, cfg.w, dy.Data, x.Data, w.Data, wantDX.Data, wantDW.Data, pooled)
					dx, dw := dx0.Clone(), dw0.Clone()
					backwardInto(c, dy, x, w, dx, dw)
					if !sameFloats(dx.Data, wantDX.Data) || !sameFloats(dw.Data, wantDW.Data) {
						t.Errorf("%s: conv %+v %dx%d poisoned=%v workers=%d: backward differs from legacy (dx same %v, dw same %v)",
							body, conv, cfg.h, cfg.w, poisoned, workers, sameFloats(dx.Data, wantDX.Data), sameFloats(dw.Data, wantDW.Data))
					}
				}
			})
		}
	}
}

// FC on both bodies against its reference loops, on heads that put the
// channel lanes' shifted tail on each side (In, Out of 31, 32, 33, 100), and
// on batches on each side of the transposed forward's four samples.
func TestFCLanesBitIdenticalToReference(t *testing.T) {
	for _, sh := range [][3]int{{3, 33, 31}, {4, 32, 32}, {5, 100, 33}, {4, 31, 100}, {2, 64, 10}, {1, 40, 40}} {
		n, in, out := sh[0], sh[1], sh[2]
		for _, poisoned := range []bool{false, true} {
			conv := NewConv2D(in, out, 1, 1, 0)
			x4, w4, bias, dy4, _, _ := laneCase(uint64(in*out), conv, n, 1, 1, poisoned)
			x, w, dy := tensor.MustFromSlice(x4.Data, n, in), tensor.MustFromSlice(w4.Data, out, in), tensor.MustFromSlice(dy4.Data, n, out)
			yWant := legacyConvForward(conv, x4, w4, bias.Data)
			dxWant, dwWant := tensor.New(n, in), tensor.New(out, in)
			convBackwardWant(conv, n, 1, 1, dy.Data, x.Data, w.Data, dxWant.Data, dwWant.Data, false)
			forEachBody(func(body string) {
				fc := FC{In: in, Out: out}
				y, err := fc.Forward(x, w, bias)
				if err != nil {
					t.Fatal(err)
				}
				dx, dw, _, err := fc.Backward(dy, x, w)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloats(y.Data, yWant.Data) || !sameFloats(dx.Data, dxWant.Data) || !sameFloats(dw.Data, dwWant.Data) {
					t.Errorf("%s: FC %d->%d n=%d poisoned=%v differs from reference (y %v, dx %v, dw %v)", body, in, out, n, poisoned,
						sameFloats(y.Data, yWant.Data), sameFloats(dx.Data, dxWant.Data), sameFloats(dw.Data, dwWant.Data))
				}
			})
		}
	}
}

// positive is v > 0 on every one of the 2³² float32 bit patterns, swept in
// four parallel quarters (under the race detector, every 4099th pattern).
func TestPositiveMaskIsGreaterThanZero(t *testing.T) {
	step := uint64(1)
	if raceEnabled {
		step = 4099
	}
	const quarter = 1 << 30
	for q := uint64(0); q < 4; q++ {
		t.Run(fmt.Sprintf("quarter%d", q), func(t *testing.T) {
			t.Parallel()
			bad := 0
			for b := q * quarter; b < (q+1)*quarter && bad < 5; b += step {
				v := math.Float32frombits(uint32(b))
				want := uint32(0)
				if v > 0 {
					want = math.MaxUint32
				}
				if got := positive(v); got != want {
					bad++
					t.Errorf("positive(%#08x) = %#x, want %#x", b, got, want)
				}
			}
		})
	}
}

// The extent checks stand between the kernels and memory they do not own:
// every operand one element short must be refused before a kernel runs.
func TestLaneChecksRefuseShortOperands(t *testing.T) {
	tile := func() *laneTile {
		return &laneTile{
			laneNest: laneNest{n: [3]int{2, 3, 3}, da: [3]int{0, 0, 1}, db: [3]int{7, 1, 1}},
			a:        make([]float32, 2*3*3+3*18), b: make([]float32, 64), out: make([]float32, 3*40+16),
			aj: 18, oj: 40, ol: 1,
		}
	}
	// The nest reads b up to offset 1·(3·4+7) + 2·4 + 2 = 29, plus 16 lanes.
	if ok := tile(); !panics(func() { ok.check(16, 16) }) {
		for name, shrink := range map[string]func(*laneTile){
			"a":    func(t *laneTile) { t.a = t.a[:len(t.a)-1] },
			"b":    func(t *laneTile) { t.b = t.b[:29+16-1] },
			"out":  func(t *laneTile) { t.out = t.out[:len(t.out)-1] },
			"seed": func(t *laneTile) { t.seed = make([]float32, 3) },
		} {
			bad := tile()
			shrink(bad)
			if !panics(func() { bad.check(16, 16) }) {
				t.Errorf("check accepts a short %s", name)
			}
		}
	} else {
		t.Fatal("check refuses operands that fit")
	}
	if fc := make([]float32, 64); !panics(func() { rowsCall(fc, 0, fc, 33, fc, 0, 1, 1, 0, 0, 0, 0, 0) }) {
		t.Error("rowsCall accepts a run past the end of b")
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}
