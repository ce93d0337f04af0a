package kernels

import (
	"testing"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

func TestConcatForwardStatsMatchesComposition(t *testing.T) {
	rng := tensor.NewRNG(41)
	a := tensor.New(4, 3, 6, 6)
	b := tensor.New(4, 5, 6, 6)
	c := tensor.New(4, 2, 6, 6)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 1, 2)
	rng.FillNormal(c, -1, 0.5)

	bn := layers.NewBatchNorm(10)
	yBase, err := layers.ConcatForwardAlloc(nil, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	statsBase, err := bn.ComputeStatsMVF(yBase)
	if err != nil {
		t.Fatal(err)
	}

	y, stats, err := ConcatForwardStats(bn, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(yBase, y); d != 0 {
		t.Errorf("ICF concat output differs by %v", d)
	}
	if !tensor.AllClose(statsBase.Mean, stats.Mean, 1e-5, 1e-6) {
		t.Error("ICF concat mean diverges")
	}
	if !tensor.AllClose(statsBase.Var, stats.Var, 1e-4, 1e-5) {
		t.Error("ICF concat variance diverges")
	}
}

func TestConcatForwardStatsErrors(t *testing.T) {
	bn := layers.NewBatchNorm(5)
	if _, _, err := ConcatForwardStats(bn); err == nil {
		t.Error("accepted empty input list")
	}
	a := tensor.New(2, 3, 4, 4)
	if _, _, err := ConcatForwardStats(bn, a, tensor.New(2, 2, 5, 4)); err == nil {
		t.Error("accepted mismatched spatial dims")
	}
	if _, _, err := ConcatForwardStats(bn, a, tensor.New(2, 3, 4, 4)); err == nil {
		t.Error("accepted channel-count mismatch with BN")
	}
}

func TestFusedSplitBNInputBackwardMatchesComposition(t *testing.T) {
	rng := tensor.NewRNG(43)
	const n, c, hw = 4, 6, 5
	bn := layers.NewBatchNorm(c)
	x := tensor.New(n, c, hw, hw)
	rng.FillNormal(x, 0, 1)
	gamma := tensor.New(c)
	beta := tensor.New(c)
	rng.FillUniform(gamma, 0.5, 1.5)
	_, ctx, err := bn.Forward(x, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	dv := tensor.New(n, c, hw, hw)
	rng.FillUniform(dv, -1, 1)
	dgamma, dbeta, err := bn.BackwardReduce(dv, ctx.XHat)
	if err != nil {
		t.Fatal(err)
	}
	other1 := tensor.New(n, c, hw, hw)
	other2 := tensor.New(n, c, hw, hw)
	rng.FillUniform(other1, -1, 1)
	rng.FillUniform(other2, -1, 1)

	// Composition: du then explicit sum.
	du, err := bn.BackwardInput(dv, ctx.XHat, gamma, ctx.Stats, dgamma, dbeta)
	if err != nil {
		t.Fatal(err)
	}
	want := du.Clone()
	if err := want.AddInPlace(other1); err != nil {
		t.Fatal(err)
	}
	if err := want.AddInPlace(other2); err != nil {
		t.Fatal(err)
	}

	got, err := FusedSplitBNInputBackward(bn, dv, ctx.XHat, gamma, ctx.Stats, dgamma, dbeta,
		[]*tensor.Tensor{other1, other2})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, got, 1e-6, 1e-6) {
		d, _ := tensor.MaxAbsDiff(want, got)
		t.Errorf("ICF split backward differs by %v", d)
	}

	// Fan-out of one: no extra contributions.
	solo, err := FusedSplitBNInputBackward(bn, dv, ctx.XHat, gamma, ctx.Stats, dgamma, dbeta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(du, solo); d != 0 {
		t.Errorf("solo ICF split backward differs from BackwardInput by %v", d)
	}
}

func TestFusedSplitBNInputBackwardErrors(t *testing.T) {
	bn := layers.NewBatchNorm(3)
	dv := tensor.New(2, 3, 4, 4)
	xhat := tensor.New(2, 3, 4, 4)
	g := tensor.New(3)
	st := &layers.BNStats{Mean: tensor.New(3), Var: tensor.New(3)}
	dg, db := tensor.New(3), tensor.New(3)
	if _, err := FusedSplitBNInputBackward(bn, tensor.New(2, 4, 4, 4), xhat, g, st, dg, db, nil); err == nil {
		t.Error("accepted wrong dv channels")
	}
	if _, err := FusedSplitBNInputBackward(bn, dv, tensor.New(2, 3, 5, 4), g, st, dg, db, nil); err == nil {
		t.Error("accepted mismatched xhat")
	}
	if _, err := FusedSplitBNInputBackward(bn, dv, xhat, g, st, dg, db,
		[]*tensor.Tensor{tensor.New(1, 3, 4, 4)}); err == nil {
		t.Error("accepted mismatched split contribution")
	}
}
