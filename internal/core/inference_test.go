package core

import (
	"testing"

	"bnff/internal/models"
	"bnff/internal/tensor"
)

// trainBriefly runs a few training-mode forwards, which update the running
// statistics, so the inference statistics are meaningful.
func trainBriefly(t *testing.T, ex *Executor, inShape tensor.Shape, steps int) {
	t.Helper()
	rng := tensor.NewRNG(77)
	for i := 0; i < steps; i++ {
		x := tensor.New(inShape...)
		rng.FillNormal(x, 0.2, 1.1)
		if _, err := ex.Forward(x); err != nil {
			t.Fatal(err)
		}
	}
}

// inferenceOf builds an inference executor over ex's graph holding ex's
// parameters and running statistics — what loading ex's checkpoint gives.
func inferenceOf(t *testing.T, ex *Executor) *Executor {
	t.Helper()
	inf, err := NewExecutor(ex.G, WithInference())
	if err != nil {
		t.Fatal(err)
	}
	if err := inf.CopyParamsFrom(ex); err != nil {
		t.Fatal(err)
	}
	if err := inf.CopyRunningFrom(ex); err != nil {
		t.Fatal(err)
	}
	return inf
}

// In inference mode a sample's output must not depend on its batch peers —
// the defining difference from training-mode BN.
func TestInferenceBatchIndependence(t *testing.T) {
	for _, s := range []Scenario{Baseline, BNFF} {
		g, err := models.TinyCNN(4, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := Restructure(g, s.Options()); err != nil {
			t.Fatal(err)
		}
		ex, err := NewExecutor(g, WithSeed(21))
		if err != nil {
			t.Fatal(err)
		}
		trainBriefly(t, ex, tensor.Shape{4, 3, 8, 8}, 5)
		ex = inferenceOf(t, ex)
		batch := tensor.New(4, 3, 8, 8)
		tensor.NewRNG(88).FillNormal(batch, 0, 1)
		yBatch, err := ex.Forward(batch)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		// Rebuild an executor view at batch size 1 for the same weights.
		g1, err := models.TinyCNN(1, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := Restructure(g1, s.Options()); err != nil {
			t.Fatal(err)
		}
		ex1, err := NewExecutor(g1, WithSeed(22), WithInference())
		if err != nil {
			t.Fatal(err)
		}
		if err := ex1.CopyParamsFrom(ex); err != nil {
			t.Fatal(err)
		}
		for name, r := range ex.Running {
			copy(ex1.Running[name].Data, r.Data)
		}

		// Sample 0 alone must produce sample 0's batch output.
		per := 3 * 8 * 8
		x0, err := tensor.FromSlice(batch.Data[:per], 1, 3, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		y0, err := ex1.Forward(x0)
		if err != nil {
			t.Fatal(err)
		}
		classes := yBatch.Dim(1)
		row, err := tensor.FromSlice(yBatch.Data[:classes], 1, classes)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(row, y0, 1e-4, 1e-4) {
			d, _ := tensor.MaxAbsDiff(row, y0)
			t.Errorf("%v: inference output depends on batch peers (diff %v)", s, d)
		}
	}
}

// Baseline and BNFF executors must agree in inference mode too.
func TestInferenceScenarioEquivalence(t *testing.T) {
	gBase, _ := models.TinyDenseNet(4)
	base, err := NewExecutor(gBase, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	trainBriefly(t, base, tensor.Shape{4, 3, 16, 16}, 4)

	gBNFF, _ := models.TinyDenseNet(4)
	if err := Restructure(gBNFF, BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	fused, err := NewExecutor(gBNFF, WithSeed(32), WithInference())
	if err != nil {
		t.Fatal(err)
	}
	if err := fused.CopyParamsFrom(base); err != nil {
		t.Fatal(err)
	}
	for name, r := range base.Running {
		copy(fused.Running[name].Data, r.Data)
	}

	base = inferenceOf(t, base)
	x := tensor.New(4, 3, 16, 16)
	tensor.NewRNG(33).FillNormal(x, 0, 1)
	yb, err := base.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	yf, err := fused.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(yb, yf, 1e-3, 1e-3) {
		d, _ := tensor.MaxAbsDiff(yb, yf)
		t.Errorf("inference BNFF differs from baseline by %v", d)
	}
}

func TestInferenceBackwardRejected(t *testing.T) {
	g, _ := models.TinyCNN(2, 8, 4)
	ex, err := NewExecutor(g, WithSeed(1), WithInference())
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, 8, 8)
	if _, err := ex.Forward(x); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Backward(tensor.New(2, 4)); err == nil {
		t.Error("Backward allowed in inference mode")
	}
}

// Inference must be deterministic across calls (no batch statistics drift).
func TestInferenceDeterminism(t *testing.T) {
	g, _ := models.TinyResNet(2)
	ex, err := NewExecutor(g, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	trainBriefly(t, ex, tensor.Shape{2, 3, 16, 16}, 3)
	ex = inferenceOf(t, ex)
	x := tensor.New(2, 3, 16, 16)
	tensor.NewRNG(10).FillNormal(x, 0, 1)
	y1, err := ex.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	y1 = y1.Clone()
	y2, err := ex.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(y1, y2); d != 0 {
		t.Errorf("inference not deterministic (diff %v)", d)
	}
}
