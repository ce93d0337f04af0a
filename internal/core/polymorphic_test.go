package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bnff/internal/det"
	"bnff/internal/models"
	"bnff/internal/tensor"
)

// TestExecutorBatchPolymorphic is the contract that lets one executor serve
// every batch size: an executor over a graph built at batch b answers batches
// k ∈ {1, 3, b} bit-identically — logits, every gradient, and the running
// statistics after the step — to an executor over a native batch-k build.
// The sizes run as consecutive passes through the one executor, up and then
// down, so arena buffers recycled from one size are what the next size
// allocates over. It covers every tiny registry model under every
// restructuring, serial and pooled, in training mode, inference mode, and
// BN-folded after a checkpoint load (the fold compiles the baseline graph
// only, so that mode runs there).
func TestExecutorBatchPolymorphic(t *testing.T) {
	const nominal = 4
	type mode struct {
		name string
		opts []Option
		load bool // inference modes start from a trained checkpoint
	}
	modes := []mode{
		{"train", nil, false},
		{"inference", []Option{WithInference()}, true},
		{"folded", []Option{WithFoldedBN()}, true},
	}
	for _, name := range models.Names() {
		if !strings.HasPrefix(name, "tiny-") {
			continue // full-size models are analytical-only
		}
		ckpt, in := foldedCheckpoint(t, name, nominal)
		for _, scen := range Scenarios() {
			for _, m := range modes {
				if m.name == "folded" && scen != Baseline {
					continue
				}
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%v/%s/workers=%d", name, scen, m.name, workers), func(t *testing.T) {
						build := func(batch int) *Executor {
							g, err := models.Build(name, batch)
							if err != nil {
								t.Fatal(err)
							}
							if err := Restructure(g, scen.Options()); err != nil {
								t.Fatal(err)
							}
							opts := append([]Option{WithSeed(71), WithWorkers(workers)}, m.opts...)
							ex, err := NewExecutor(g, opts...)
							if err != nil {
								t.Fatal(err)
							}
							if m.load {
								if err := ex.Load(bytes.NewReader(ckpt)); err != nil {
									t.Fatal(err)
								}
							}
							return ex
						}
						poly := build(nominal)
						rng := tensor.NewRNG(72)
						for _, k := range []int{3, nominal, 1} {
							native := build(k)
							// The polymorphic executor's running statistics have
							// moved with its earlier passes; the native one starts
							// this step from the same state.
							if err := native.CopyRunningFrom(poly); err != nil {
								t.Fatal(err)
							}
							x := tensor.New(append(tensor.Shape{k}, in[1:]...)...)
							rng.FillNormal(x, 0.2, 1.1)
							yp, err := poly.Forward(x)
							if err != nil {
								t.Fatalf("batch %d on the batch-%d graph: %v", k, nominal, err)
							}
							yn, err := native.Forward(x)
							if err != nil {
								t.Fatal(err)
							}
							if !bitEqual(yp, yn) {
								t.Fatalf("batch %d: logits differ from the native batch-%d build", k, k)
							}
							for _, rn := range det.SortedKeys(native.Running) {
								if !bitEqual(poly.Running[rn], native.Running[rn]) {
									t.Errorf("batch %d: running statistic %q differs from the native build", k, rn)
								}
							}
							if m.load {
								continue // inference has no backward
							}
							dOut := tensor.New(yp.Shape()...)
							rng.FillUniform(dOut, -1, 1)
							gp, err := poly.Backward(dOut)
							if err != nil {
								t.Fatalf("batch %d backward on the batch-%d graph: %v", k, nominal, err)
							}
							gn, err := native.Backward(dOut)
							if err != nil {
								t.Fatal(err)
							}
							if len(gp) != len(gn) {
								t.Fatalf("batch %d: %d gradients, native build has %d", k, len(gp), len(gn))
							}
							for _, pn := range det.SortedKeys(gn) {
								if gp[pn] == nil || !bitEqual(gp[pn], gn[pn]) {
									t.Errorf("batch %d: gradient %q differs from the native build", k, pn)
								}
							}
						}
					})
				}
			}
		}
	}
}

// The batch is the only free dimension: a wrong rank, channel count or
// spatial extent is still rejected, an empty batch is rejected, and Backward
// takes its batch from the last Forward, not from the graph.
func TestExecutorRejectsNonBatchMismatch(t *testing.T) {
	g, err := models.TinyCNN(4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []tensor.Shape{
		{4, 3, 9, 8}, {4, 3, 8, 9}, {4, 2, 8, 8}, {4, 3, 8}, {4, 3, 8, 8, 1}, {0, 3, 8, 8}, {4 * 3 * 8 * 8}, {},
	} {
		if _, err := ex.Forward(tensor.New(bad...)); err == nil {
			t.Errorf("Forward accepted input %v on a [N 3 8 8] graph", bad)
		}
	}
	if _, err := ex.Forward(tensor.New(3, 3, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Backward(tensor.New(4, 4)); err == nil {
		t.Error("Backward accepted a dOut with the graph's batch after a batch-3 Forward")
	}
	if _, err := ex.Backward(tensor.New(3, 5)); err == nil {
		t.Error("Backward accepted a dOut with the wrong class count")
	}
	if _, err := ex.Backward(tensor.New(3, 4)); err != nil {
		t.Errorf("Backward rejected a dOut matching the last Forward: %v", err)
	}
}
