package layers

import (
	"math"
	"testing"
	"testing/quick"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

func randomBNInput(seed uint64, n, c, h, w int, scale float64) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	tensor.NewRNG(seed).FillNormal(x, 0.5, scale)
	return x
}

// normalizeXHat is the x̂ a stored-x̂ Normalize wrote: normRows over each
// sample of x writing x̂, its y discarded.
func normalizeXHat(bn BatchNorm, x *tensor.Tensor, st *BNStats, gamma, beta *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dims4()
	per := c * h * w
	inv := bn.InvStdScratch(st)
	xh, y := tensor.New(x.Shape()...), make([]float32, per)
	for i := 0; i < n; i++ {
		normRows(x.Data[i*per:(i+1)*per], xh.Data[i*per:(i+1)*per], y, st.Mean.Data, inv, gamma.Data, beta.Data, h*w, false)
	}
	return xh
}

// gammaBetaOver is sub-BN2' over a stored x̂: gammaBetaPartials per sample,
// reduced in sample order.
func gammaBetaOver(dy, xhat *tensor.Tensor) (dgamma, dbeta *tensor.Tensor) {
	n, c, h, w := dy.Dims4()
	per := c * h * w
	pg, pb := make([]float64, n*c), make([]float64, n*c)
	for i := 0; i < n; i++ {
		gammaBetaPartials(dy.Data[i*per:(i+1)*per], xhat.Data[i*per:(i+1)*per], pg[i*c:], pb[i*c:], c, h*w)
	}
	return reduceGammaBeta(pg, pb, n, c)
}

// twoPassStats is ComputeStats into a fresh pair from bn's arena.
func twoPassStats(bn BatchNorm, x Map) (*BNStats, error) {
	st := bn.newStats()
	return st, bn.ComputeStats(x, st)
}

// closeMoments is Close into a fresh pair from bn's arena.
func closeMoments(bn BatchNorm, m Moments) (*BNStats, error) {
	st := bn.newStats()
	return st, bn.Close(m, st)
}

func TestBNStatsKnownValues(t *testing.T) {
	bn := NewBatchNorm(1)
	x := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	stats, err := twoPassStats(bn, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(stats.Mean.Data[0])-2.5) > 1e-6 {
		t.Errorf("mean = %v, want 2.5", stats.Mean.Data[0])
	}
	// biased variance of {1,2,3,4} = 1.25
	if math.Abs(float64(stats.Var.Data[0])-1.25) > 1e-6 {
		t.Errorf("var = %v, want 1.25", stats.Var.Data[0])
	}
}

func TestBNStatsPerChannel(t *testing.T) {
	bn := NewBatchNorm(2)
	// channel 0 all 3s, channel 1 alternating 0/2 (mean 1, var 1)
	x := tensor.MustFromSlice([]float32{
		3, 3, 3, 3, // n0 c0
		0, 2, 0, 2, // n0 c1
		3, 3, 3, 3, // n1 c0
		2, 0, 2, 0, // n1 c1
	}, 2, 2, 2, 2)
	stats, err := twoPassStats(bn, x)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mean.Data[0] != 3 || stats.Var.Data[0] != 0 {
		t.Errorf("c0 stats = (%v,%v), want (3,0)", stats.Mean.Data[0], stats.Var.Data[0])
	}
	if stats.Mean.Data[1] != 1 || stats.Var.Data[1] != 1 {
		t.Errorf("c1 stats = (%v,%v), want (1,1)", stats.Mean.Data[1], stats.Var.Data[1])
	}
}

// The MVF identity V(X) = E(X²) − E(X)² must agree with the two-pass
// algorithm to float32 round-off for activation-scale data. This is the
// paper's §3.2 claim that single precision suffices.
func TestMVFMatchesTwoPass(t *testing.T) {
	bn := NewBatchNorm(8)
	x := randomBNInput(42, 16, 8, 12, 12, 1.5)
	twoPass, err := twoPassStats(bn, x)
	if err != nil {
		t.Fatal(err)
	}
	onePass, err := bn.ComputeStatsMVF(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(twoPass.Mean, onePass.Mean, 1e-5, 1e-5) {
		t.Error("MVF mean diverges from two-pass mean")
	}
	if !tensor.AllClose(twoPass.Var, onePass.Var, 1e-3, 1e-4) {
		t.Error("MVF variance diverges from two-pass variance")
	}
}

func TestMVFVarianceNonNegative(t *testing.T) {
	bn := NewBatchNorm(1)
	x := tensor.New(4, 1, 3, 3)
	x.Fill(123.456) // constant channel: catastrophically cancels in E(X²)−E(X)²
	stats, err := bn.ComputeStatsMVF(x)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Var.Data[0] < 0 {
		t.Errorf("MVF produced negative variance %v", stats.Var.Data[0])
	}
}

func TestBNForwardNormalizes(t *testing.T) {
	bn := NewBatchNorm(4)
	x := randomBNInput(3, 8, 4, 6, 6, 2.0)
	gamma := tensor.New(4)
	gamma.Fill(1)
	beta := tensor.New(4)
	y, _, err := bn.Forward(x, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := twoPassStats(bn, y)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if math.Abs(float64(stats.Mean.Data[c])) > 1e-4 {
			t.Errorf("normalized mean[%d] = %v, want ~0", c, stats.Mean.Data[c])
		}
		if math.Abs(float64(stats.Var.Data[c])-1) > 1e-2 {
			t.Errorf("normalized var[%d] = %v, want ~1", c, stats.Var.Data[c])
		}
	}
}

func TestBNGammaBetaApplied(t *testing.T) {
	bn := NewBatchNorm(2)
	x := randomBNInput(5, 4, 2, 4, 4, 1)
	gamma := tensor.MustFromSlice([]float32{2, 3}, 2)
	beta := tensor.MustFromSlice([]float32{-1, 5}, 2)
	y, ctx, err := bn.Forward(x, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	// y must equal gamma*xhat + beta element-wise.
	xhat := normalizeXHat(bn, ctx.X, ctx.Stats, gamma, beta)
	n, c, h, w := x.Dims4()
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			for i := 0; i < h*w; i++ {
				idx := (in*c+ic)*h*w + i
				want := gamma.Data[ic]*xhat.Data[idx] + beta.Data[ic]
				if math.Abs(float64(y.Data[idx]-want)) > 1e-6 {
					t.Fatalf("y[%d] = %v, want %v", idx, y.Data[idx], want)
				}
			}
		}
	}
}

func TestBNGradients(t *testing.T) {
	bn := NewBatchNorm(3)
	rng := tensor.NewRNG(21)
	x := tensor.New(4, 3, 3, 3)
	rng.FillNormal(x, 0, 1)
	gamma := tensor.New(3)
	beta := tensor.New(3)
	rng.FillUniform(gamma, 0.5, 1.5)
	rng.FillUniform(beta, -0.5, 0.5)

	dy, lossOf := weightedSumLoss(x.Shape(), 8)
	loss := func() float64 {
		y, _, err := bn.Forward(x, gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		return lossOf(y)
	}
	_, ctx, err := bn.Forward(x, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	dx, dgamma, dbeta, err := bn.Backward(dy, ctx, gamma)
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, "bn dX", dx, numericGrad(x, 1e-2, loss), 3e-2)
	checkGrad(t, "bn dGamma", dgamma, numericGrad(gamma, 1e-2, loss), 3e-2)
	checkGrad(t, "bn dBeta", dbeta, numericGrad(beta, 1e-2, loss), 3e-2)
}

func TestBNBackwardSplitEqualsComposed(t *testing.T) {
	// The fission decomposition over a stored x̂ (sub-BN2' reduced against
	// x̂, then BackwardInput) must equal Backward, which regenerates x̂ from
	// x, exactly — they are the same arithmetic.
	bn := NewBatchNorm(5)
	rng := tensor.NewRNG(31)
	x := tensor.New(6, 5, 4, 4)
	rng.FillNormal(x, 0, 1)
	gamma := tensor.New(5)
	rng.FillUniform(gamma, 0.5, 2)
	beta := tensor.New(5)
	_, ctx, err := bn.Forward(x, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	dy := tensor.New(x.Shape()...)
	rng.FillUniform(dy, -1, 1)

	dx1, dg1, db1, err := bn.Backward(dy, ctx, gamma)
	if err != nil {
		t.Fatal(err)
	}
	xhat := normalizeXHat(bn, x, ctx.Stats, gamma, beta)
	dg2, db2 := gammaBetaOver(dy, xhat)
	dx2, err := bn.BackwardInput(dy, xhat, gamma, ctx.Stats, dg2, db2)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]*tensor.Tensor{
		"dX": {dx1, dx2}, "dGamma": {dg1, dg2}, "dBeta": {db1, db2},
	} {
		if d, _ := tensor.MaxAbsDiff(pair[0], pair[1]); d != 0 {
			t.Errorf("%s: fission backward differs from monolithic by %v", name, d)
		}
	}
}

// BackwardInputInPlace writes BackwardInputFrom's bits over dy, on both
// sweep bodies, over a dense x and over a concat of its channels.
func TestBNBackwardInputInPlace(t *testing.T) {
	bn := NewBatchNorm(6)
	rng := tensor.NewRNG(37)
	x := tensor.New(3, 6, 5, 5)
	rng.FillNormal(x, 1, 2)
	gamma := tensor.New(6)
	rng.FillUniform(gamma, 0.5, 2)
	dy := tensor.New(x.Shape()...)
	rng.FillUniform(dy, -1, 1)
	st, err := twoPassStats(bn, x)
	if err != nil {
		t.Fatal(err)
	}
	dg, db, err := bn.BackwardReduceFrom(dy, x, st)
	if err != nil {
		t.Fatal(err)
	}
	forEachBody(func(body string) {
		for name, src := range map[string]Map{"dense": x, "concat": channelSplit(x, 2, 3)} {
			want, err := bn.BackwardInputFrom(dy, src, gamma, st, dg, db)
			if err != nil {
				t.Fatal(err)
			}
			got := dy.Clone()
			if err := bn.BackwardInputInPlace(got, src, gamma, st, dg, db); err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s, %s x: element %d in place %v, fresh %v", body, name, i, got.Data[i], want.Data[i])
				}
			}
		}
	})
}

func TestBNUpdateRunning(t *testing.T) {
	bn := NewBatchNorm(2)
	bn.Momentum = 0.5
	rm := tensor.MustFromSlice([]float32{0, 10}, 2)
	rv := tensor.MustFromSlice([]float32{1, 1}, 2)
	stats := &BNStats{
		Mean: tensor.MustFromSlice([]float32{2, 20}, 2),
		Var:  tensor.MustFromSlice([]float32{3, 5}, 2),
	}
	if err := bn.UpdateRunning(rm, rv, stats); err != nil {
		t.Fatal(err)
	}
	if rm.Data[0] != 1 || rm.Data[1] != 15 {
		t.Errorf("running mean = %v, want [1 15]", rm.Data)
	}
	if rv.Data[0] != 2 || rv.Data[1] != 3 {
		t.Errorf("running var = %v, want [2 3]", rv.Data)
	}
}

func TestBNShapeErrors(t *testing.T) {
	bn := NewBatchNorm(3)
	if _, err := twoPassStats(bn, tensor.New(2, 4, 3, 3)); err == nil {
		t.Error("accepted wrong channel count")
	}
	if _, err := twoPassStats(bn, tensor.New(2, 3)); err == nil {
		t.Error("accepted rank-2 input")
	}
	x := tensor.New(2, 3, 4, 4)
	stats, _ := twoPassStats(bn, x)
	if _, err := bn.Normalize(x, stats, tensor.New(4), tensor.New(3)); err == nil {
		t.Error("accepted wrong gamma shape")
	}
	if _, err := bn.Normalize(x, stats, tensor.New(3), tensor.New(2)); err == nil {
		t.Error("accepted wrong beta shape")
	}
	if err := bn.UpdateRunning(tensor.New(2), tensor.New(3), stats); err == nil {
		t.Error("accepted wrong running-mean shape")
	}
}

// Every BN entry point validates the operands it indexes by channel or
// element and returns an error for a short one — at any worker count, where a
// panic would come from a pool goroutine and take the process down.
func TestBNEntryPointsRejectShortOperands(t *testing.T) {
	const n, c, h, w = 2, 3, 3, 3
	for _, workers := range []int{1, 2} {
		bn := NewBatchNorm(c).WithPool(parallel.New(workers))
		x := randomBNInput(1, n, c, h, w, 1)
		gamma, beta := tensor.New(c), tensor.New(c)
		gamma.Fill(1)
		stats, err := bn.ComputeStatsMVF(x)
		if err != nil {
			t.Fatal(err)
		}
		xhat := normalizeXHat(bn, x, stats, gamma, beta)
		dg, db, err := bn.BackwardReduceFrom(x, x, stats)
		if err != nil {
			t.Fatal(err)
		}
		short := tensor.New(1)
		shortStats := func(mean, variance *tensor.Tensor) *BNStats {
			return &BNStats{Mean: mean, Var: variance, M: n * h * w}
		}
		cases := []struct {
			name string
			call func() error
		}{
			{"BackwardInput short xhat", func() error {
				_, err := bn.BackwardInput(x, tensor.New(1, c, h, 2), gamma, stats, dg, db)
				return err
			}},
			{"BackwardInput short dgamma", func() error {
				_, err := bn.BackwardInput(x, xhat, gamma, stats, short, db)
				return err
			}},
			{"BackwardInput short dbeta", func() error {
				_, err := bn.BackwardInput(x, xhat, gamma, stats, dg, short)
				return err
			}},
			{"BackwardInput short mean", func() error {
				_, err := bn.BackwardInput(x, xhat, gamma, shortStats(short, stats.Var), dg, db)
				return err
			}},
			{"Normalize short mean", func() error {
				_, err := bn.Normalize(x, shortStats(short, stats.Var), gamma, beta)
				return err
			}},
			{"Normalize short var", func() error {
				_, err := bn.Normalize(x, shortStats(stats.Mean, short), gamma, beta)
				return err
			}},
			{"Normalize no statistics", func() error {
				_, err := bn.Normalize(x, nil, gamma, beta)
				return err
			}},
			{"UpdateRunning short statistics", func() error {
				return bn.UpdateRunning(tensor.New(c), tensor.New(c), shortStats(short, short))
			}},
			{"Close short partials", func() error {
				return bn.Close(Moments{Sum: make([]float32, c), SumSq: make([]float32, c), N: n, HW: h * w}, bn.newStats())
			}},
			{"Close no samples", func() error {
				return bn.Close(Moments{HW: h * w}, bn.newStats())
			}},
			{"Close short mean", func() error {
				m, _ := bn.Moments(x)
				return bn.Close(m, shortStats(short, tensor.New(c)))
			}},
			{"ComputeStats short var", func() error {
				return bn.ComputeStats(x, shortStats(tensor.New(c), short))
			}},
		}
		for _, tc := range cases {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s workers=%d: panicked: %v", tc.name, workers, r)
					}
				}()
				if err := tc.call(); err == nil {
					t.Errorf("%s workers=%d: accepted", tc.name, workers)
				}
			}()
		}
	}
}

// Property: for any finite activation tensor, MVF statistics stay within
// float32 round-off of the two-pass statistics (scaled by data magnitude).
func TestQuickMVFIdentity(t *testing.T) {
	bn := NewBatchNorm(2)
	f := func(seed uint64, scaleBits uint8) bool {
		scale := 0.1 + float64(scaleBits%50)/10 // 0.1 .. 5.0
		x := randomBNInput(seed, 4, 2, 5, 5, scale)
		two, err1 := twoPassStats(bn, x)
		one, err2 := bn.ComputeStatsMVF(x)
		if err1 != nil || err2 != nil {
			return false
		}
		// tolerance scales with magnitude² because E(X²) dominates error
		tol := 1e-3 * (1 + scale*scale)
		dv, _ := tensor.MaxAbsDiff(two.Var, one.Var)
		dm, _ := tensor.MaxAbsDiff(two.Mean, one.Mean)
		return dv < tol && dm < 1e-4*(1+scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: normalize output is invariant to an affine shift of the input —
// BN's defining invariance: BN(a·x + b) == BN(x) for a>0 (per channel).
func TestQuickBNAffineInvariance(t *testing.T) {
	bn := NewBatchNorm(2)
	gamma := tensor.MustFromSlice([]float32{1, 1}, 2)
	beta := tensor.New(2)
	f := func(seed uint64, shiftBits, scaleBits uint8) bool {
		shift := float32(shiftBits%20) - 10
		scale := 0.5 + float32(scaleBits%30)/10
		x := randomBNInput(seed, 4, 2, 4, 4, 1)
		y1, _, err := bn.Forward(x, gamma, beta)
		if err != nil {
			return false
		}
		x2 := x.Clone()
		for i := range x2.Data {
			x2.Data[i] = x2.Data[i]*scale + shift
		}
		y2, _, err := bn.Forward(x2, gamma, beta)
		if err != nil {
			return false
		}
		return tensor.AllClose(y1, y2, 1e-2, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBNUpdateRunningBesselTwoBatch drives two successive running-statistics
// updates from real mini-batches and checks every intermediate against hand
// arithmetic. The variance blended into the running estimate must be the
// unbiased one — biased batch variance times M/(M−1) (Bessel's correction),
// matching what the normalize path at inference expects.
func TestBNUpdateRunningBesselTwoBatch(t *testing.T) {
	bn := NewBatchNorm(1) // momentum 0.1
	rm := tensor.MustFromSlice([]float32{0}, 1)
	rv := tensor.MustFromSlice([]float32{1}, 1)

	// Batch 1: x = [1 2 3 4] over one channel (M = 4).
	// mean = 2.5, biased var = 7.5 − 6.25 = 1.25, unbiased = 1.25·4/3 = 5/3.
	x1 := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	s1, err := twoPassStats(bn, x1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Mean.Data[0] != 2.5 || s1.Var.Data[0] != 1.25 || s1.M != 4 {
		t.Fatalf("batch-1 stats mean=%v var=%v M=%d, want 2.5 / 1.25 / 4",
			s1.Mean.Data[0], s1.Var.Data[0], s1.M)
	}
	if err := bn.UpdateRunning(rm, rv, s1); err != nil {
		t.Fatal(err)
	}
	// rm = 0.9·0 + 0.1·2.5 = 0.25; rv = 0.9·1 + 0.1·(5/3) = 1.0666667.
	if got, want := rm.Data[0], float32(0.25); !closeTo(got, want) {
		t.Errorf("running mean after batch 1 = %v, want %v", got, want)
	}
	if got, want := rv.Data[0], float32(0.9+0.1*5.0/3.0); !closeTo(got, want) {
		t.Errorf("running var after batch 1 = %v, want %v (Bessel-corrected)", got, want)
	}
	// The uncorrected blend would be 0.9 + 0.1·1.25 = 1.025 — assert we are
	// distinguishably away from it.
	if closeTo(rv.Data[0], 1.025) {
		t.Error("running var matches the biased blend; Bessel correction missing")
	}

	// Batch 2: x = [2 4 6 8]. mean = 5, biased var = 30 − 25 = 5,
	// unbiased = 20/3.
	x2 := tensor.MustFromSlice([]float32{2, 4, 6, 8}, 1, 1, 2, 2)
	s2, err := twoPassStats(bn, x2)
	if err != nil {
		t.Fatal(err)
	}
	if err := bn.UpdateRunning(rm, rv, s2); err != nil {
		t.Fatal(err)
	}
	// rm = 0.9·0.25 + 0.1·5 = 0.725
	// rv = 0.9·1.0666667 + 0.1·20/3 = 1.6266667
	if got, want := rm.Data[0], float32(0.9*0.25+0.1*5); !closeTo(got, want) {
		t.Errorf("running mean after batch 2 = %v, want %v", got, want)
	}
	if got, want := rv.Data[0], float32(0.9*(0.9+0.1*5.0/3.0)+0.1*20.0/3.0); !closeTo(got, want) {
		t.Errorf("running var after batch 2 = %v, want %v", got, want)
	}
}

// TestBNUpdateRunningSingleElement: with M = 1 the unbiased variance is
// undefined; UpdateRunning must fall back to the biased value rather than
// divide by zero.
func TestBNUpdateRunningSingleElement(t *testing.T) {
	bn := NewBatchNorm(1)
	rm := tensor.MustFromSlice([]float32{0}, 1)
	rv := tensor.MustFromSlice([]float32{1}, 1)
	st := &BNStats{
		Mean: tensor.MustFromSlice([]float32{3}, 1),
		Var:  tensor.MustFromSlice([]float32{0}, 1),
		M:    1,
	}
	if err := bn.UpdateRunning(rm, rv, st); err != nil {
		t.Fatal(err)
	}
	if got := rv.Data[0]; got != 0.9 {
		t.Errorf("running var = %v, want 0.9 (biased fallback at M=1)", got)
	}
}

// closeTo compares within a few float32 ulps worth of slack — the hand
// arithmetic above is exact in real numbers but rounds differently than the
// float32 evaluation order.
func closeTo(a, b float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(1+abs32(b))
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
