package train

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"bnff/internal/core"
	"bnff/internal/tensor"
)

func TestEvaluateAfterTraining(t *testing.T) {
	tr := newTinyTrainer(t, core.BNFF, 42)
	if _, err := tr.Run(80); err != nil {
		t.Fatal(err)
	}
	// The dataset is an infinite stream: post-training draws are held-out
	// samples of the same task (a different seed would be a different task —
	// fresh class patterns — not a validation split).
	val := tr.Data
	res, err := Evaluate(tr.Exec, val, 10, tr.BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 10*tr.BatchSize {
		t.Errorf("evaluated %d samples, want %d", res.Samples, 10*tr.BatchSize)
	}
	// Better than chance on a held-out stream.
	if res.Accuracy < 0.5 {
		t.Errorf("held-out accuracy %.3f, want > 0.5 after training", res.Accuracy)
	}
	if res.Loss <= 0 || math.IsNaN(res.Loss) {
		t.Errorf("held-out loss %v invalid", res.Loss)
	}
	// Evaluate must restore the executor's mode.
	if tr.Exec.InferenceMode() {
		t.Error("Evaluate left the executor in inference mode")
	}
	if !tr.Exec.TracksRunning() {
		t.Error("Evaluate disabled running-stat tracking permanently")
	}
	// The batch size is free: the training executor evaluates per sample.
	one, err := Evaluate(tr.Exec, val, 30, 1)
	if err != nil {
		t.Fatalf("per-sample evaluation on the batch-%d executor: %v", tr.BatchSize, err)
	}
	if one.Samples != 30 || one.Accuracy < 0.5 {
		t.Errorf("per-sample evaluation: %d samples, accuracy %.3f", one.Samples, one.Accuracy)
	}
	if _, err := Evaluate(tr.Exec, val, 0, 4); err == nil {
		t.Error("accepted zero batches")
	}
}

func TestWriteHistoryCSV(t *testing.T) {
	tr := newTinyTrainer(t, core.Baseline, 3)
	if _, err := tr.Run(3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteHistoryCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv has %d lines, want header + 3 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "step,loss,accuracy" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,") || !strings.HasPrefix(lines[3], "2,") {
		t.Errorf("step numbering wrong:\n%s", buf.String())
	}
}

func TestClipGradientsScales(t *testing.T) {
	grads := map[string]*tensor.Tensor{
		"a": tensor.MustFromSlice([]float32{3}, 1),
		"b": tensor.MustFromSlice([]float32{4}, 1),
	}
	norm, err := ClipGradients(grads, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm-5) > 1e-6 {
		t.Errorf("pre-clip norm %v, want 5", norm)
	}
	// After clipping, norm == 1: components 0.6, 0.8.
	if math.Abs(float64(grads["a"].Data[0])-0.6) > 1e-6 ||
		math.Abs(float64(grads["b"].Data[0])-0.8) > 1e-6 {
		t.Errorf("clipped grads = %v, %v; want 0.6, 0.8", grads["a"].Data[0], grads["b"].Data[0])
	}
}

func TestClipGradientsNoOpUnderThreshold(t *testing.T) {
	grads := map[string]*tensor.Tensor{"a": tensor.MustFromSlice([]float32{0.3}, 1)}
	if _, err := ClipGradients(grads, 1.0); err != nil {
		t.Fatal(err)
	}
	if grads["a"].Data[0] != 0.3 {
		t.Error("clip modified an under-threshold gradient")
	}
	if _, err := ClipGradients(grads, 0); err == nil {
		t.Error("accepted non-positive max norm")
	}
}

func TestTrainerClipNormApplies(t *testing.T) {
	tr := newTinyTrainer(t, core.Baseline, 7, WithClipNorm(1e-6)) // absurdly tight: updates become tiny
	before := make(map[string][]float32)
	for name, p := range tr.Exec.Params {
		before[name] = append([]float32{}, p.Data...)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	var maxDelta float64
	for name, p := range tr.Exec.Params {
		for i := range p.Data {
			d := math.Abs(float64(p.Data[i] - before[name][i]))
			if d > maxDelta {
				maxDelta = d
			}
		}
	}
	// LR 0.01 × clipped-norm 1e-6 bounds per-element motion far below an
	// unclipped step.
	if maxDelta > 1e-4 {
		t.Errorf("clipped step moved parameters by %v, expected ~1e-8", maxDelta)
	}
}
