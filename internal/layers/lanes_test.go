package layers

import (
	"fmt"
	"math"
	"strings"
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
		f(Body())
	}
}

// laneEdgeGeoms are geometries at the edges of the lane blocks. The column
// lanes: interior runs of exactly 7, 8, 9 and 17 columns (the forward's and
// dx's), channel counts of 7, 8, 9 and 12 on either side (the overlapped
// output block, dx's channel tail, dW's padded input block and output tail),
// flattened 1×1 runs and strided dx runs. The channel lanes: 8×8 maps with
// padding 1, interior runs of 3 to 7 columns (under four, only single pixels;
// 5 to 7, a four-pixel group shifted back), strides 2 and 3, a strided 1×1,
// and channel counts of 8, 16, 20, 24 and 28 (8- and 16-lane blocks and a
// shifted tail), grouped. And FC's channel lanes on both sides of 32.
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
		{NewConv2D(12, 12, 3, 1, 1), 1, 3, 19},             // run 17, Cin/Cout 12
		{NewConv2D(20, 20, 3, 1, 1), 1, 3, 19},             // channel lanes: 16 + shifted 8, run 17
		{NewConv2D(8, 9, 1, 1, 0), 2, 3, 3},                // flattened run 9
		{NewConv2D(20, 4, 1, 1, 0), 2, 8, 8},               // bn-heavy's bottleneck, flattened
		{NewConv2D(9, 20, 1, 1, 0), 1, 5, 5},               // flattened run 25
		{NewConv2D(8, 8, 3, 2, 1), 2, 5, 20},               // strided: dx runs per residue
		{NewConv2D(7, 9, 1, 1, 1), 2, 4, 10},               // 1×1 padded: not flattened
		{NewConv2D(4, 4, 3, 1, 3), 2, 3, 12},               // pad ≥ kernel: output rows without taps
		{grouped(NewConv2D(16, 10, 3, 1, 1), 2), 2, 4, 12}, // CoutG 5, CinG 8
		{NewConv2D(3, 8, 3, 1, 1), 2, 8, 8},                // tiny-cnn: the 3→8 stem, 8×8 pad 1
		{NewConv2D(8, 16, 3, 1, 1), 2, 8, 8},               // tiny-cnn: run 6
		{NewConv2D(16, 16, 3, 1, 1), 2, 8, 8},              // tiny-cnn
		{NewConv2D(8, 8, 3, 1, 1), 2, 5, 5},                // run 3: single pixels only
		{NewConv2D(9, 8, 3, 1, 1), 2, 6, 6},                // run 4: one group
		{NewConv2D(12, 9, 3, 1, 1), 2, 7, 7},               // run 5
		{NewConv2D(8, 12, 3, 1, 1), 2, 9, 9},               // run 7
		{NewConv2D(16, 24, 3, 1, 1), 1, 7, 10},             // 16 + 8 lanes, run 8
		{NewConv2D(24, 28, 3, 1, 2), 1, 6, 9},              // 16 + 8 + shifted 8 lanes, pad 2
		{NewConv2D(8, 16, 3, 2, 1), 2, 9, 9},               // stride 2
		{NewConv2D(10, 8, 2, 3, 1), 2, 11, 8},              // stride 3, 2×2 kernel
		{NewConv2D(16, 16, 1, 2, 0), 2, 7, 7},              // strided 1×1: not flattened
		{grouped(NewConv2D(16, 32, 3, 1, 1), 2), 2, 8, 8},  // CinG 8, CoutG 16
		{grouped(NewConv2D(20, 16, 3, 2, 1), 2), 2, 9, 7},  // CinG 10, CoutG 8, strided
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
					y, _, _, err := c.ForwardWindow(x, w, ConvWindow{Bias: bias})
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
// four parallel quarters (under the race detector, every 4099th pattern) —
// and so is the lanes' rectify, VCMPPS GT_OQ then VANDPS, fed the same
// patterns in runs of 4095: 511 eight-lane blocks and a seven-lane tail.
func TestPositiveMaskIsGreaterThanZero(t *testing.T) {
	step := uint64(1)
	if raceEnabled {
		step = 4099
	}
	const quarter = 1 << 30
	avx2 := hasAVX2()
	for q := uint64(0); q < 4; q++ {
		t.Run(fmt.Sprintf("quarter%d", q), func(t *testing.T) {
			t.Parallel()
			bad := 0
			var run, mask [4095]float32
			k := 0
			lanes := func() {
				maskLanes(&mask[0], &run[0], &run[0], k)
				for i, v := range run[:k] {
					if math.Float32bits(mask[i]) != math.Float32bits(v)&positive(v) {
						bad++
						t.Errorf("lane rectify(%#08x) = %#08x", math.Float32bits(v), math.Float32bits(mask[i]))
					}
				}
				k = 0
			}
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
				if avx2 {
					run[k] = v
					if k++; k == len(run) {
						lanes()
					}
				}
			}
			if k > 0 {
				lanes()
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

	// The sweep wrappers, on three channels of 9 elements and the reductions
	// on eight rows of 9: every operand that fits must pass, and each one
	// short by an element must be refused. The reductions take four to eight
	// rows.
	const c, hw = 3, 9
	buf := func(n int) []float32 { return make([]float32, n) }
	buf64 := func(n int) []float64 { return make([]float64, n) }
	sweeps := map[string]func(short string) func(){
		"normRows": func(short string) func() {
			ops := map[string][]float32{"x": buf(c * hw), "xh": buf(c * hw), "y": buf(c * hw), "inv": buf(c), "gamma": buf(c), "beta": buf(c)}
			if short != "" {
				ops[short] = ops[short][1:]
			}
			return func() {
				normRows(ops["x"], ops["xh"], ops["y"], buf(c), ops["inv"], ops["gamma"], ops["beta"], hw, true)
			}
		},
		"normRows/x̂": func(short string) func() {
			ops := map[string][]float32{"x": buf(c * hw), "xh": buf(c * hw), "inv": buf(c)}
			if short != "" {
				ops[short] = ops[short][1:]
			}
			return func() { normRows(ops["x"], ops["xh"], nil, buf(c), ops["inv"], nil, nil, hw, false) }
		},
		"gradRows": func(short string) func() {
			ops := map[string][]float32{"dy": buf(c * hw), "x": buf(c * hw), "dx": buf(c * hw), "inv": buf(c), "mean": buf(c), "dgamma": buf(c), "dbeta": buf(c)}
			if short != "" {
				ops[short] = ops[short][1:]
			}
			return func() {
				gradRows(ops["dy"], ops["x"], ops["dx"], buf(c), ops["inv"], ops["mean"], ops["dgamma"], ops["dbeta"], 1, hw)
			}
		},
		"maskRun": func(short string) func() {
			ops := map[string][]float32{"v": buf(hw), "z": buf(hw)}
			if short != "" {
				ops[short] = ops[short][1:]
			}
			return func() { maskRun(buf(hw), ops["v"], ops["z"]) }
		},
		"momentRows": func(short string) func() {
			ops := map[string][]float32{"x": buf(8 * hw), "psum": buf(8), "psumsq": buf(8)}
			if short != "" {
				ops[short] = ops[short][1:]
			}
			return func() { momentRows(ops["x"], 8, hw, ops["psum"], ops["psumsq"]) }
		},
		"meanRows": func(short string) func() {
			ops := map[string][]float32{"x": buf(8 * hw), "pmean": buf(8)}
			if short != "" {
				ops[short] = ops[short][1:]
			}
			return func() { meanRows(ops["x"], 8, hw, 1, ops["pmean"]) }
		},
		"varRows": func(short string) func() {
			ops := map[string][]float32{"x": buf(8 * hw), "mean": buf(8), "pvar": buf(8)}
			if short != "" {
				ops[short] = ops[short][1:]
			}
			return func() { varRows(ops["x"], 8, hw, ops["mean"], 1, ops["pvar"]) }
		},
		"gammaBetaRows": func(short string) func() {
			ops := map[string][]float32{"dy": buf(8 * hw), "xh": buf(8 * hw)}
			pg, pb := buf64(8), buf64(8)
			switch short {
			case "pg":
				pg = pg[1:]
			case "pb":
				pb = pb[1:]
			case "":
			default:
				ops[short] = ops[short][1:]
			}
			return func() { gammaBetaRows(ops["dy"], ops["xh"], 8, hw, pg, pb) }
		},
	}
	operands := map[string][]string{
		"normRows":      {"x", "xh", "y", "inv", "gamma", "beta"},
		"normRows/x̂":   {"x", "xh", "inv"},
		"gradRows":      {"dy", "x", "dx", "inv", "mean", "dgamma", "dbeta"},
		"maskRun":       {"v", "z"},
		"momentRows":    {"x", "psum", "psumsq"},
		"meanRows":      {"x", "pmean"},
		"varRows":       {"x", "mean", "pvar"},
		"gammaBetaRows": {"dy", "xh", "pg", "pb"},
	}
	for name, call := range sweeps {
		if panics(call("")) {
			t.Errorf("%s refuses operands that fit", name)
		}
		for _, op := range operands[name] {
			if !panics(call(op)) {
				t.Errorf("%s accepts a short %s", name, op)
			}
		}
	}
	if !panics(func() { chainRows(buf(3*hw), 3, hw) }) || !panics(func() { chainRows(buf(9*hw), 9, hw) }) {
		t.Error("chainRows accepts a row count outside [4, 8]")
	}
	src := buf(9 * 10)
	if panics(func() { transpose(buf(10*9), 9, src, 9, 10) }) {
		t.Error("transpose refuses operands that fit")
	}
	if !panics(func() { transpose(buf(10*9-1), 9, src, 9, 10) }) || !panics(func() { transpose(buf(10*9), 9, src[1:], 9, 10) }) {
		t.Error("transpose accepts a short operand")
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// sweepValues returns n values of either sign with exact zeros of both signs
// and subnormals planted throughout, and ±Inf and NaN too when poisoned, at
// positions that land in both the 8-lane blocks and the tails of a run.
func sweepValues(seed uint64, n int, poisoned bool) []float32 {
	t := tensor.New(n)
	tensor.NewRNG(seed).FillNormal(t, 0, 1)
	specials := []float32{float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39}
	if poisoned {
		specials = append(specials, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()))
	}
	for i := 3; i < n; i += 5 {
		t.Data[i] = specials[(i/5)%len(specials)]
	}
	return t.Data
}

// sameFloat64s is sameFloats for the float64 dγ/dβ partials.
func sameFloat64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, bn := a[i] != a[i], b[i] != b[i]
		if an != bn || (!an && math.Float64bits(a[i]) != math.Float64bits(b[i])) {
			return false
		}
	}
	return true
}

// sweepOutputs runs every BN and ReLU sweep over one (n, c, hw) case on the
// current body and pool and returns each result by name: the entry points,
// the window's three tile fills and its in-place mask, and the float64 dγ/dβ
// partials. Normalize and BackwardInput take fixed statistics and reductions,
// so non-finite inputs poison single elements rather than whole channels.
func sweepOutputs(t *testing.T, pool *parallel.Pool, n, c, hw int, poisoned bool) (map[string][]float32, map[string][]float64) {
	t.Helper()
	seed := uint64(1000*n + 100*c + hw)
	x := tensor.MustFromSlice(sweepValues(seed, n*c*hw, poisoned), n, c, 1, hw)
	dy := tensor.MustFromSlice(sweepValues(seed+1, n*c*hw, poisoned), n, c, 1, hw)
	gamma := tensor.MustFromSlice(sweepValues(seed+2, c, poisoned), c)
	beta := tensor.MustFromSlice(sweepValues(seed+3, c, poisoned), c)
	dgFixed := tensor.MustFromSlice(sweepValues(seed+4, c, poisoned), c)
	dbFixed := tensor.MustFromSlice(sweepValues(seed+5, c, poisoned), c)
	variance := tensor.MustFromSlice(sweepValues(seed+6, c, false), c)
	for i, v := range variance.Data {
		variance.Data[i] = v * v
	}
	fixed := &BNStats{Mean: tensor.MustFromSlice(sweepValues(seed+7, c, poisoned), c), Var: variance, M: 3 * n * hw}

	bn := NewBatchNorm(c).WithPool(pool)
	out := map[string][]float32{}
	st, err := twoPassStats(bn, x)
	if err != nil {
		t.Fatal(err)
	}
	out["ComputeStats.mean"], out["ComputeStats.var"] = st.Mean.Data, st.Var.Data
	m, err := bn.Moments(x)
	if err != nil {
		t.Fatal(err)
	}
	out["Moments.sum"], out["Moments.sumsq"] = m.Sum, m.SumSq
	y, err := bn.Normalize(x, fixed, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	out["Normalize"] = y.Data
	xh := normalizeXHat(bn, x, fixed, gamma, beta)
	out["normalizeXHat"] = xh.Data
	dg, db := gammaBetaOver(dy, xh)
	out["gammaBetaOver.dgamma"], out["gammaBetaOver.dbeta"] = dg.Data, db.Data
	if dg, db, err = bn.BackwardReduceFrom(dy, x, fixed); err != nil {
		t.Fatal(err)
	}
	out["BackwardReduceFrom.dgamma"], out["BackwardReduceFrom.dbeta"] = dg.Data, db.Data
	dx, err := bn.BackwardInput(dy, xh, gamma, fixed, dgFixed, dbFixed)
	if err != nil {
		t.Fatal(err)
	}
	out["BackwardInput"] = dx.Data
	rdx, err := bn.BackwardInputFrom(dy, x, gamma, fixed, dgFixed, dbFixed)
	if err != nil {
		t.Fatal(err)
	}
	out["BackwardInputFrom"] = rdx.Data
	out["ReLUForward"] = ReLUForwardAlloc(pool, nil, x).Data
	if rdx, err = ReLUBackwardAlloc(pool, nil, dy, x); err != nil {
		t.Fatal(err)
	}
	out["ReLUBackward"] = rdx.Data
	splitSweeps(t, pool, out, x, dy, gamma, beta, fixed, dgFixed, dbFixed)

	per := c * hw
	inv := bn.InvStdScratch(fixed)
	rect, scale, norm, nxh := make([]float32, n*per), make([]float32, n*per), make([]float32, n*per), make([]float32, n*per)
	hat, id := bn.StoredXHat(0)
	zero, one := id.Mean.Data, hat.InvStdScratch(&id)
	sxh := make([]float32, per)
	masked := append([]float32(nil), dy.Data...)
	for in := 0; in < n; in++ {
		s := in * per
		(&tileFill{rect: true}).fill(rect[s:s+per], x.Data[s:s+per], nil, 0, hw)
		(&tileFill{rect: true, mean: zero, inv: one, g: gamma.Data, b: beta.Data}).fill(scale[s:s+per], x.Data[s:s+per], sxh, 0, hw)
		f := tileFill{rect: true, mean: fixed.Mean.Data, inv: inv, g: gamma.Data, b: beta.Data}
		f.fill(norm[s:s+per], x.Data[s:s+per], nxh[s:s+per], 0, hw)
		maskRun(masked[s:s+per], masked[s:s+per], x.Data[s:s+per])
	}
	out["fill.rectify"], out["fill.scale"], out["fill.normalize"], out["fill.xhat"], out["window.mask"] = rect, scale, norm, nxh, masked

	pg, pb := make([]float64, n*c), make([]float64, n*c)
	for in := 0; in < n; in++ {
		gammaBetaPartials(dy.Data[in*per:(in+1)*per], x.Data[in*per:(in+1)*per], pg[in*c:], pb[in*c:], c, hw)
	}
	return out, map[string][]float64{"gammaBetaPartials.dgamma": pg, "gammaBetaPartials.dbeta": pb}
}

// channelSplit copies x into a Concat of parts of the given channel counts,
// the last taking the channels left.
func channelSplit(x *tensor.Tensor, counts ...int) *Concat {
	n, c, h, w := x.Dims4()
	var v Concat
	for c0, k := 0, 0; c0 < c; k++ {
		cp := c - c0
		if k < len(counts) {
			cp = min(counts[k], cp)
		}
		part := tensor.New(n, cp, h, w)
		for i := 0; i < n; i++ {
			copy(part.Data[i*cp*h*w:(i+1)*cp*h*w], x.Data[(i*c+c0)*h*w:])
		}
		if err := v.Append(part); err != nil {
			panic(err)
		}
		c0 += cp
	}
	return &v
}

// splitSweeps runs the sweeps that read a feature map over x split into a
// Concat — a one-channel part, a part of five (lanes 4-7 shifted) and the
// rest — and records each result as "split/<name>" for the test to compare
// with the dense operand's.
func splitSweeps(t *testing.T, pool *parallel.Pool, out map[string][]float32, x, dy, gamma, beta *tensor.Tensor, fixed *BNStats, dg, db *tensor.Tensor) {
	t.Helper()
	v := channelSplit(x, 1, 5)
	bn := NewBatchNorm(x.Dim(1)).WithPool(pool)
	st, err := twoPassStats(bn, v)
	if err != nil {
		t.Fatal(err)
	}
	out["split/ComputeStats.mean"], out["split/ComputeStats.var"] = st.Mean.Data, st.Var.Data
	m, err := bn.Moments(v)
	if err != nil {
		t.Fatal(err)
	}
	out["split/Moments.sum"], out["split/Moments.sumsq"] = m.Sum, m.SumSq
	y, err := bn.Normalize(v, fixed, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	out["split/Normalize"] = y.Data
	rg, rb, err := bn.BackwardReduceFrom(dy, v, fixed)
	if err != nil {
		t.Fatal(err)
	}
	out["split/BackwardReduceFrom.dgamma"], out["split/BackwardReduceFrom.dbeta"] = rg.Data, rb.Data
	dx, err := bn.BackwardInputFrom(dy, v, gamma, fixed, dg, db)
	if err != nil {
		t.Fatal(err)
	}
	out["split/BackwardInputFrom"] = dx.Data
	out["split/ReLUForward"] = ReLUForwardAlloc(pool, nil, v).Data
	if dx, err = ReLUBackwardAlloc(pool, nil, dy, v); err != nil {
		t.Fatal(err)
	}
	out["split/ReLUBackward"] = dx.Data
}

// Every BN and ReLU sweep on the lanes against its scalar body, bit for bit
// (NaN payloads aside): plane lengths on both sides of the 8-lane block and of
// the reductions' four-element transpose, channel counts below four (scalar),
// from four to seven (lanes 4-7 shifted onto rows 0-3), eight, and past it
// (a group shifted back), at workers 1 and 4, over values with both zeros,
// subnormals and, poisoned, ±Inf and NaN.
func TestSweepLanesBitIdenticalToScalar(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 lanes on this CPU")
	}
	for _, hw := range []int{1, 7, 8, 9, 15, 16, 17, 64, 1024} {
		for _, c := range []int{1, 3, 4, 5, 8, 9, 20} {
			for _, n := range []int{1, 5} {
				for _, poisoned := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						pool := parallel.New(workers)
						var f32 [2]map[string][]float32
						var f64 [2]map[string][]float64
						k := 0
						forEachBody(func(string) {
							f32[k], f64[k] = sweepOutputs(t, pool, n, c, hw, poisoned)
							k++
						})
						for name, lanes := range f32[0] {
							if !sameFloats(lanes, f32[1][name]) {
								t.Errorf("%s: n=%d c=%d hw=%d poisoned=%v workers=%d: lanes differ from scalar", name, n, c, hw, poisoned, workers)
							}
						}
						// Regenerating x̂ from x is the backward over a
						// stored x̂, and a Concat of x's channels is x.
						for k := range f32 {
							for name, got := range f32[k] {
								if dense, ok := strings.CutPrefix(name, "split/"); ok && !sameFloats(got, f32[k][dense]) {
									t.Errorf("%s: body %d n=%d c=%d hw=%d poisoned=%v workers=%d: a Concat operand differs from the dense one", dense, k, n, c, hw, poisoned, workers)
								}
							}
							for from, stored := range map[string]string{
								"BackwardInputFrom":         "BackwardInput",
								"BackwardReduceFrom.dgamma": "gammaBetaOver.dgamma",
								"BackwardReduceFrom.dbeta":  "gammaBetaOver.dbeta",
							} {
								if !sameFloats(f32[k][from], f32[k][stored]) {
									t.Errorf("body %d: n=%d c=%d hw=%d poisoned=%v workers=%d: %s differs from %s over normalizeXHat's x̂", k, n, c, hw, poisoned, workers, from, stored)
								}
							}
						}
						for name, lanes := range f64[0] {
							if !sameFloat64s(lanes, f64[1][name]) {
								t.Errorf("%s: n=%d c=%d hw=%d poisoned=%v workers=%d: lanes differ from scalar", name, n, c, hw, poisoned, workers)
							}
						}
					}
				}
			}
		}
	}
}

// specialBits are the float32 bit patterns the bitwise tests plant: quiet
// and signalling NaNs of either sign and several payloads, both zeros, both
// infinities, subnormals and the largest finite values.
func specialBits() []uint32 {
	return []uint32{
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff812345, 0x7fbfffff, // NaN payloads
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, 0x807fffff, 0x00400000, 0x80000001, // subnormals
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	}
}

// ReLU's backward may mask with its own output instead of its input:
// relu(x) > 0 exactly where x > 0, so dy passes through the same elements and
// dx has the same bits, every NaN payload of dy kept, whatever x holds. The
// executor and memplan keep a ReLU's output, not its input, on this.
func TestReLUMaskFromOutput(t *testing.T) {
	specials := specialBits()
	// 11 channels split 1 + 5 + 5; 13-element planes leave a lane tail.
	const n, c, hw = 3, 11, 13
	x, dy := tensor.New(n, c, 1, hw), tensor.New(n, c, 1, hw)
	rng := tensor.NewRNG(7)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(dy, 0, 1)
	for i := range x.Data {
		if i%3 == 0 {
			x.Data[i] = math.Float32frombits(specials[(i/3)%len(specials)])
		}
		if i%4 == 1 {
			dy.Data[i] = math.Float32frombits(specials[(i/4)%len(specials)])
		}
	}
	forEachBody(func(body string) {
		for _, workers := range []int{1, 4} {
			pool := parallel.New(workers)
			for _, src := range []Map{x, channelSplit(x, 1, 5)} {
				want, err := ReLUBackwardAlloc(pool, nil, dy, src)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ReLUBackwardAlloc(pool, nil, dy, ReLUForwardAlloc(pool, nil, src))
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
						t.Fatalf("%s, workers %d, %T: dx[%d] = %#x masked by relu(x), %#x by x = %#x",
							body, workers, src, i, math.Float32bits(got.Data[i]), math.Float32bits(v), math.Float32bits(x.Data[i]))
					}
				}
			}
		}
	})
}

// BenchmarkSweeps times every BN and ReLU sweep body on both bodies over the
// feature maps of bn-heavy's BN (layer_bn_input) and tiny-fleet's, with copy
// over the same map as the memory ceiling. SetBytes is the bytes the sweep
// reads plus the bytes it writes, so the MB/s column is its bandwidth.
func BenchmarkSweeps(b *testing.B) {
	for _, sh := range [][4]int{{32, 32, 32, 32}, {8, 16, 8, 8}} {
		n, c, hw := sh[0], sh[1], sh[2]*sh[3]
		shape := fmt.Sprintf("%dx%dx%dx%d", sh[0], sh[1], sh[2], sh[3])
		per, size := c*hw, n*c*hw
		x, dy := fillRand(1, size), fillRand(2, size)
		xh, y := make([]float32, size), make([]float32, size)
		mean, inv, gamma, beta := fillRand(3, c), fillRand(4, c), fillRand(5, c), fillRand(6, c)
		pm, pv := make([]float32, n*c), make([]float32, n*c)
		pg, pb := make([]float64, n*c), make([]float64, n*c)
		f := tileFill{rect: true, mean: mean, inv: inv, g: gamma, b: beta}
		xr := runsOf(tensor.MustFromSlice(x, n, c, sh[2], sh[3]))
		run := func(name string, words int, sweep func()) {
			b.Run(name+"/"+shape, func(b *testing.B) {
				b.SetBytes(int64(4 * words * size))
				for i := 0; i < b.N; i++ {
					sweep()
				}
			})
		}
		run("copy", 2, func() { copy(y, x) })
		forEachBody(func(body string) {
			run("normalize/"+body, 2, func() { bnNormalizeChunk(xr, y, mean, inv, gamma, beta, 0, n) })
			run("backward-input/"+body, 3, func() { bnInputGradChunk(xr, dy, y, gamma, inv, mean, mean, beta, 1e4, 0, n) })
			run("fill-normalize/"+body, 3, func() {
				for in := 0; in < n; in++ {
					f.fill(y[in*per:(in+1)*per], x[in*per:(in+1)*per], xh[in*per:(in+1)*per], 0, hw)
				}
			})
			run("rectify/"+body, 2, func() { maskRun(y, x, x) })
			run("mask/"+body, 3, func() { maskRun(y, dy, x) })
			run("stats/"+body, 2, func() {
				meanPartials(xr, pm, c, float64(n*hw), 0, n)
				varPartials(xr, mean, pv, c, float64(n*hw), 0, n)
			})
			run("moments/"+body, 1, func() { momentPartials(xr, pm, pv, c, 0, n) })
			run("backward-reduce/"+body, 2, func() { gammaBetaRegenChunk(xr, dy, xh, mean, inv, pg, pb, 0, 0, n) })
		})
	}
}
