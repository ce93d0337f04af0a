package train

import (
	"bytes"
	"math"
	"testing"

	"bnff/internal/core"
	"bnff/internal/layers"
	"bnff/internal/models"
	"bnff/internal/tensor"
	"bnff/internal/workload"
)

func newTinyTrainer(t *testing.T, scenario core.Scenario, seed uint64, opts ...TrainerOption) *Trainer {
	t.Helper()
	g, err := models.TinyCNN(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Restructure(g, scenario.Options()); err != nil {
		t.Fatal(err)
	}
	exec, err := core.NewExecutor(g, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	data, err := workload.New(workload.Config{Classes: 4, Channels: 3, Size: 8, Noise: 0.3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(exec, data,
		append([]TrainerOption{WithBatchSize(8), WithOptimizer(NewSGD(0.01, 0.9, 1e-4))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSGDStepKnownValues(t *testing.T) {
	opt := NewSGD(0.1, 0.5, 0)
	w := map[string]*tensor.Tensor{"x.w": tensor.MustFromSlice([]float32{1}, 1)}
	g := map[string]*tensor.Tensor{"x.w": tensor.MustFromSlice([]float32{2}, 1)}
	// Step 1: v = 2, w = 1 - 0.2 = 0.8.
	if err := opt.Step(w, g); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(w["x.w"].Data[0])-0.8) > 1e-6 {
		t.Errorf("after step 1: w = %v, want 0.8", w["x.w"].Data[0])
	}
	// Step 2: v = 0.5·2 + 2 = 3, w = 0.8 - 0.3 = 0.5.
	if err := opt.Step(w, g); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(w["x.w"].Data[0])-0.5) > 1e-6 {
		t.Errorf("after step 2: w = %v, want 0.5", w["x.w"].Data[0])
	}
}

func TestSGDWeightDecaySkipsBNAndBias(t *testing.T) {
	opt := NewSGD(1, 0, 0.5)
	params := map[string]*tensor.Tensor{
		"c.w":      tensor.MustFromSlice([]float32{1}, 1),
		"bn.gamma": tensor.MustFromSlice([]float32{1}, 1),
		"bn.beta":  tensor.MustFromSlice([]float32{1}, 1),
		"fc.b":     tensor.MustFromSlice([]float32{1}, 1),
	}
	grads := map[string]*tensor.Tensor{}
	for k := range params {
		grads[k] = tensor.MustFromSlice([]float32{0}, 1)
	}
	if err := opt.Step(params, grads); err != nil {
		t.Fatal(err)
	}
	if params["c.w"].Data[0] != 0.5 {
		t.Errorf("weight not decayed: %v", params["c.w"].Data[0])
	}
	for _, k := range []string{"bn.gamma", "bn.beta", "fc.b"} {
		if params[k].Data[0] != 1 {
			t.Errorf("%s was decayed: %v", k, params[k].Data[0])
		}
	}
}

func TestSGDErrors(t *testing.T) {
	opt := NewSGD(0.1, 0.9, 0)
	params := map[string]*tensor.Tensor{"a.w": tensor.New(2)}
	if err := opt.Step(params, map[string]*tensor.Tensor{}); err == nil {
		t.Error("accepted missing gradient")
	}
	if err := opt.Step(params, map[string]*tensor.Tensor{"a.w": tensor.New(3)}); err == nil {
		t.Error("accepted mismatched gradient shape")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	tr := newTinyTrainer(t, core.Baseline, 42)
	first, err := tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	last, err := tr.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	if last.Loss >= first.Loss*0.7 {
		t.Errorf("loss did not drop: first %.4f last %.4f", first.Loss, last.Loss)
	}
	if tr.MeanLoss(10) >= first.Loss {
		t.Errorf("mean recent loss %.4f not below initial %.4f", tr.MeanLoss(10), first.Loss)
	}
}

// Held-out evaluation loads the trained checkpoint into an inference
// executor, as serving does: BN then runs on the running statistics the
// training steps accumulated, and the executor takes its batch size from its
// input, so it evaluates at the training batch and per sample alike. The
// dataset is an infinite stream: post-training draws are held-out samples of
// the same task (a different seed would be a different task — fresh class
// patterns — not a validation split).
func TestEvaluateAfterTraining(t *testing.T) {
	tr := newTinyTrainer(t, core.BNFF, 42)
	if _, err := tr.Run(80); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := tr.Exec.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	inf, err := core.NewExecutor(tr.Exec.G, core.WithInference())
	if err != nil {
		t.Fatal(err)
	}
	if err := inf.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{tr.BatchSize, 1} {
		var loss, acc float64
		const samples = 80
		for i := 0; i < samples/batch; i++ {
			x, labels, err := tr.Data.Batch(batch)
			if err != nil {
				t.Fatal(err)
			}
			logits, err := inf.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			l, _, err := layers.SoftmaxCrossEntropy(logits, labels)
			if err != nil {
				t.Fatal(err)
			}
			a, err := layers.Accuracy(logits, labels)
			if err != nil {
				t.Fatal(err)
			}
			loss += l * float64(batch) / samples
			acc += a * float64(batch) / samples
		}
		// Better than chance on a held-out stream.
		if acc < 0.5 {
			t.Errorf("batch %d: held-out accuracy %.3f, want > 0.5 after training", batch, acc)
		}
		if loss <= 0 || math.IsNaN(loss) {
			t.Errorf("batch %d: held-out loss %v invalid", batch, loss)
		}
	}
}

// The paper's end-to-end claim: training with the restructured graph follows
// the baseline trajectory. Feed identical batches and compare per-step loss.
func TestBNFFTrainingMatchesBaseline(t *testing.T) {
	base := newTinyTrainer(t, core.Baseline, 42)
	bnff := newTinyTrainer(t, core.BNFF, 99)
	if err := bnff.Exec.CopyParamsFrom(base.Exec); err != nil {
		t.Fatal(err)
	}
	data, err := workload.New(workload.Config{Classes: 4, Channels: 3, Size: 8, Noise: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		x, labels, err := data.Batch(8)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := base.StepOn(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := bnff.StepOn(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		// Losses drift slightly (float32 + MVF) but must track closely.
		if math.Abs(rb.Loss-rf.Loss) > 1e-2*(1+math.Abs(rb.Loss)) {
			t.Fatalf("step %d: baseline loss %.6f vs BNFF loss %.6f", i, rb.Loss, rf.Loss)
		}
	}
	// Final parameters must also agree.
	for name, p := range base.Exec.Params {
		q := bnff.Exec.Params[name]
		if !tensor.AllClose(p, q, 5e-2, 5e-3) {
			d, _ := tensor.MaxAbsDiff(p, q)
			t.Errorf("parameter %q diverged by %v after training", name, d)
		}
	}
}

func TestTrainerValidation(t *testing.T) {
	g, err := models.TinyCNN(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := core.NewExecutor(g, core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := workload.New(workload.Config{Classes: 4, Channels: 3, Size: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrainer(exec, data, WithBatchSize(0), WithOptimizer(NewSGD(0.1, 0.9, 0))); err == nil {
		t.Error("accepted batch size 0")
	}
}

func TestMeanLossEmptyHistory(t *testing.T) {
	tr := newTinyTrainer(t, core.Baseline, 1)
	if tr.MeanLoss(5) != 0 {
		t.Error("MeanLoss on empty history not 0")
	}
}
