package kernels

import (
	"testing"
	"testing/quick"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// chain holds one CONV1 → BN → ReLU → CONV2 window with random parameters —
// the unit BNFF restructures.
type chain struct {
	conv1, conv2 layers.Conv2D
	bn           layers.BatchNorm
	x, w1, w2    *tensor.Tensor
	gamma, beta  *tensor.Tensor
}

func newChain(seed uint64, n, cin, cmid, cout, hw int) *chain {
	rng := tensor.NewRNG(seed)
	c := &chain{
		conv1: layers.NewConv2D(cin, cmid, 3, 1, 1),
		conv2: layers.NewConv2D(cmid, cout, 3, 1, 1),
		bn:    layers.NewBatchNorm(cmid),
	}
	c.x = tensor.New(n, cin, hw, hw)
	c.w1 = tensor.New(c.conv1.WeightShape()...)
	c.w2 = tensor.New(c.conv2.WeightShape()...)
	c.gamma = tensor.New(cmid)
	c.beta = tensor.New(cmid)
	rng.FillNormal(c.x, 0, 1)
	rng.FillHe(c.w1, cin*9)
	rng.FillHe(c.w2, cmid*9)
	rng.FillUniform(c.gamma, 0.5, 1.5)
	rng.FillUniform(c.beta, -0.3, 0.3)
	return c
}

// xhatOf is x̂ = (x − μ)·invstd, the map a stored-x̂ BN forward wrote.
func xhatOf(bn layers.BatchNorm, x *tensor.Tensor, st *layers.BNStats) *tensor.Tensor {
	_, c, h, w := x.Dims4()
	inv := bn.InvStdScratch(st)
	xh := tensor.New(x.Shape()...)
	for i, v := range x.Data {
		ic := i / (h * w) % c
		xh.Data[i] = (v - st.Mean.Data[ic]) * inv[ic]
	}
	return xh
}

// baselineForward runs the unfused layer sequence, returning every
// intermediate the baseline graph would store, and the x̂ between them.
func (c *chain) baselineForward(t *testing.T) (u, v, xhat, z, y *tensor.Tensor, stats *layers.BNStats) {
	t.Helper()
	u, err := c.conv1.Forward(c.x, c.w1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err = c.bn.ComputeStats(u)
	if err != nil {
		t.Fatal(err)
	}
	v, err = c.bn.Normalize(u, stats, c.gamma, c.beta)
	if err != nil {
		t.Fatal(err)
	}
	xhat = xhatOf(c.bn, u, stats)
	z = layers.ReLUForward(v)
	y, err = c.conv2.Forward(z, c.w2)
	if err != nil {
		t.Fatal(err)
	}
	return u, v, xhat, z, y, stats
}

func TestConvForwardStatsMatchesBaseline(t *testing.T) {
	c := newChain(1, 4, 3, 8, 6, 8)
	u, _, _, _, _, twoPass := c.baselineForward(t)

	uFused, statsFused, err := ConvForwardStats(c.conv1, c.x, c.w1)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(u, uFused); d != 0 {
		t.Errorf("fused conv output differs from baseline by %v", d)
	}
	if !tensor.AllClose(twoPass.Mean, statsFused.Mean, 1e-5, 1e-5) {
		t.Error("fused statistics mean diverges from two-pass")
	}
	if !tensor.AllClose(twoPass.Var, statsFused.Var, 1e-3, 1e-4) {
		t.Error("fused statistics variance diverges from two-pass")
	}
}

func TestConvForwardStatsErrors(t *testing.T) {
	c := newChain(2, 1, 3, 4, 4, 6)
	if _, _, err := ConvForwardStats(c.conv1, tensor.New(1, 5, 6, 6), c.w1); err == nil {
		t.Error("accepted wrong input channels")
	}
}

func TestReLUConvForwardMatchesBaseline(t *testing.T) {
	conv := layers.NewConv2D(4, 6, 3, 1, 1)
	rng := tensor.NewRNG(5)
	x := tensor.New(3, 4, 7, 7)
	w := tensor.New(conv.WeightShape()...)
	rng.FillNormal(x, 0, 1)
	rng.FillHe(w, 36)

	z := layers.ReLUForward(x)
	want, err := conv.Forward(z, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReLUConvForward(conv, x, w)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Errorf("RCF forward differs from ReLU∘conv by %v", d)
	}
	if _, err := ReLUConvForward(conv, tensor.New(1, 3, 7, 7), w); err == nil {
		t.Error("accepted wrong input channels")
	}
}

func TestFusedBNReLUConvForwardMatchesBaseline(t *testing.T) {
	c := newChain(7, 4, 3, 8, 6, 8)
	u, _, xhatBase, _, yBase, stats := c.baselineForward(t)

	y, xhat, err := FusedBNReLUConvForward(c.conv2, c.bn, u, stats, c.gamma, c.beta, c.w2)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(xhatBase, xhat); d != 0 {
		t.Errorf("fused x̂ differs from baseline by %v", d)
	}
	if !tensor.AllClose(yBase, y, 1e-5, 1e-6) {
		d, _ := tensor.MaxAbsDiff(yBase, y)
		t.Errorf("fused BN-ReLU-conv output differs from baseline by %v", d)
	}
}

func TestFusedBNReLUConvForwardErrors(t *testing.T) {
	c := newChain(9, 2, 3, 4, 4, 6)
	u, _, _, _, _, stats := c.baselineForward(t)
	if _, _, err := FusedBNReLUConvForward(c.conv2, c.bn, tensor.New(2, 9, 6, 6), stats, c.gamma, c.beta, c.w2); err == nil {
		t.Error("accepted wrong channel count")
	}
	if _, _, err := FusedBNReLUConvForward(c.conv2, c.bn, u, stats, c.gamma, c.beta, tensor.New(1, 1, 1, 1)); err == nil {
		t.Error("accepted wrong weight shape")
	}
}

// The full restructured backward must reproduce the baseline backward:
// gradients for x, w1, w2, γ, β all agree to float32 round-off.
func TestFusedBackwardMatchesBaseline(t *testing.T) {
	c := newChain(11, 4, 3, 8, 6, 8)
	u, _, xhat, z, y, stats := c.baselineForward(t)

	dy := tensor.New(y.Shape()...)
	tensor.NewRNG(100).FillUniform(dy, -1, 1)

	// Baseline backward, layer by layer.
	dzBase, dw2Base, err := c.conv2.Backward(dy, z, c.w2)
	if err != nil {
		t.Fatal(err)
	}
	dvBase, err := layers.ReLUBackward(dzBase, z)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &layers.BNContext{X: u, Stats: stats}
	duBase, dgBase, dbBase, err := c.bn.Backward(dvBase, ctx, c.gamma)
	if err != nil {
		t.Fatal(err)
	}
	dxBase, dw1Base, err := c.conv1.Backward(duBase, c.x, c.w1)
	if err != nil {
		t.Fatal(err)
	}

	// Restructured backward as the executor composes it: the fused kernel,
	// then sub-BN1' (BackwardInput) feeding CONV1's backward.
	dv, dw2, dgamma, dbeta, err := FusedConvBackwardReLUBNReduce(c.conv2, c.bn, dy, xhat, c.gamma, c.beta, c.w2)
	if err != nil {
		t.Fatal(err)
	}
	du, err := c.bn.BackwardInput(dv, xhat, c.gamma, stats, dgamma, dbeta)
	if err != nil {
		t.Fatal(err)
	}
	dx, dw1, err := c.conv1.Backward(du, c.x, c.w1)
	if err != nil {
		t.Fatal(err)
	}

	for name, pair := range map[string][2]*tensor.Tensor{
		"dW2":    {dw2Base, dw2},
		"dv":     {dvBase, dv},
		"dGamma": {dgBase, dgamma},
		"dBeta":  {dbBase, dbeta},
		"du":     {duBase, du},
		"dX":     {dxBase, dx},
		"dW1":    {dw1Base, dw1},
	} {
		if !tensor.AllClose(pair[0], pair[1], 1e-4, 1e-5) {
			d, _ := tensor.MaxAbsDiff(pair[0], pair[1])
			t.Errorf("%s: fused backward differs from baseline by %v", name, d)
		}
	}
}

func TestReLUConvBackwardMatchesBaseline(t *testing.T) {
	conv := layers.NewConv2D(4, 5, 3, 1, 1)
	rng := tensor.NewRNG(13)
	x := tensor.New(2, 4, 6, 6)
	w := tensor.New(conv.WeightShape()...)
	rng.FillNormal(x, 0, 1)
	rng.FillHe(w, 36)
	z := layers.ReLUForward(x)
	dy := tensor.New(conv.OutShape(x.Shape())...)
	rng.FillUniform(dy, -1, 1)

	dzBase, dwBase, err := conv.Backward(dy, z, w)
	if err != nil {
		t.Fatal(err)
	}
	dxBase, err := layers.ReLUBackward(dzBase, x)
	if err != nil {
		t.Fatal(err)
	}
	dx, dw, _, _, err := conv.BackwardWindow(dy, x, w, layers.ConvWindow{Rectify: true})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(dxBase, dx); d != 0 {
		t.Errorf("RCF backward dX differs by %v", d)
	}
	if d, _ := tensor.MaxAbsDiff(dwBase, dw); d != 0 {
		t.Errorf("RCF backward dW differs by %v", d)
	}
	if _, _, _, _, err := conv.BackwardWindow(tensor.New(1, 1, 1, 1), x, w, layers.ConvWindow{Rectify: true}); err == nil {
		t.Error("accepted wrong dy shape")
	}
}

func TestFusedBackwardErrors(t *testing.T) {
	c := newChain(15, 2, 3, 4, 4, 6)
	_, _, xhat, _, y, _ := c.baselineForward(t)
	dy := tensor.New(y.Shape()...)
	if _, _, _, _, err := FusedConvBackwardReLUBNReduce(c.conv2, c.bn, tensor.New(1, 1, 1, 1), xhat, c.gamma, c.beta, c.w2); err == nil {
		t.Error("reduce accepted wrong dy shape")
	}
	if _, _, _, _, err := FusedConvBackwardReLUBNReduce(c.conv2, c.bn, dy, tensor.New(2, 9, 6, 6), c.gamma, c.beta, c.w2); err == nil {
		t.Error("reduce accepted wrong xhat shape")
	}
}

// Property: across random shapes and seeds the fused forward equals the
// baseline forward. This is the paper's "restructuring changes memory
// behaviour, not arithmetic" claim, exercised as a property test.
func TestQuickFusedForwardEquivalence(t *testing.T) {
	f := func(seed uint64, nBits, cBits uint8) bool {
		n := 2 + int(nBits%3)
		cmid := 2 + int(cBits%6)
		c := newChain(seed, n, 3, cmid, 4, 6)
		u, _, _, _, yBase, stats := c.baselineForward(t)
		y, _, err := FusedBNReLUConvForward(c.conv2, c.bn, u, stats, c.gamma, c.beta, c.w2)
		if err != nil {
			return false
		}
		return tensor.AllClose(yBase, y, 1e-4, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: across random windows, the restructured backward (fused kernel,
// then BackwardInput into CONV1's backward) reproduces the baseline backward
// composition for every gradient.
func TestQuickFusedBackwardEquivalence(t *testing.T) {
	f := func(seed uint64, nBits uint8) bool {
		n := 2 + int(nBits%3)
		c := newChain(seed, n, 3, 4, 3, 5)
		u, _, xhat, z, y, stats := c.baselineForward(t)
		dy := tensor.New(y.Shape()...)
		tensor.NewRNG(seed^0xabc).FillUniform(dy, -1, 1)

		dzB, dw2B, err := c.conv2.Backward(dy, z, c.w2)
		if err != nil {
			return false
		}
		dvB, err := layers.ReLUBackward(dzB, z)
		if err != nil {
			return false
		}
		ctx := &layers.BNContext{X: u, Stats: stats}
		duB, dgB, dbB, err := c.bn.Backward(dvB, ctx, c.gamma)
		if err != nil {
			return false
		}
		dxB, dw1B, err := c.conv1.Backward(duB, c.x, c.w1)
		if err != nil {
			return false
		}

		dv, dw2, dg, db, err := FusedConvBackwardReLUBNReduce(c.conv2, c.bn, dy, xhat, c.gamma, c.beta, c.w2)
		if err != nil {
			return false
		}
		du, err := c.bn.BackwardInput(dv, xhat, c.gamma, stats, dg, db)
		if err != nil {
			return false
		}
		dx, dw1, err := c.conv1.Backward(du, c.x, c.w1)
		if err != nil {
			return false
		}
		pairs := [][2]*tensor.Tensor{{dw2B, dw2}, {dgB, dg}, {dbB, db}, {dxB, dx}, {dw1B, dw1}}
		for _, p := range pairs {
			if !tensor.AllClose(p[0], p[1], 1e-3, 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: the MVF statistics computed by the fused CONV epilogue keep BN's
// normalization valid — normalizing with them yields per-channel mean ~0 and
// variance ~1.
func TestQuickFusedStatsNormalize(t *testing.T) {
	f := func(seed uint64) bool {
		c := newChain(seed, 4, 3, 5, 4, 7)
		u, statsFused, err := ConvForwardStats(c.conv1, c.x, c.w1)
		if err != nil {
			return false
		}
		gamma := tensor.New(5)
		gamma.Fill(1)
		beta := tensor.New(5)
		y, err := c.bn.Normalize(u, statsFused, gamma, beta)
		if err != nil {
			return false
		}
		check, err := c.bn.ComputeStats(y)
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			if m := float64(check.Mean.Data[i]); m > 1e-3 || m < -1e-3 {
				return false
			}
			if v := float64(check.Var.Data[i]); v < 0.9 || v > 1.1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
