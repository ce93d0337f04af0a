// Package train provides the SGD training loop that drives the numeric
// executor, used to demonstrate that baseline and restructured graphs train
// identically (the paper's end-to-end correctness claim) and to measure real
// per-step wall-clock on the scaled models.
package train

import (
	"fmt"

	"bnff/internal/core"
	"bnff/internal/ddp"
	"bnff/internal/det"
	"bnff/internal/layers"
	"bnff/internal/obs"
	"bnff/internal/tensor"
	"bnff/internal/workload"
)

// SGD is stochastic gradient descent with classical momentum and
// decoupled L2 weight decay, the optimizer the studied CNNs train with.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[string]*tensor.Tensor
}

// NewSGD constructs an optimizer with classical momentum.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[string]*tensor.Tensor)}
}

// Step applies one update: v ← μ·v + (g + λ·w); w ← w − η·v.
// Weight decay is skipped for BN parameters and biases, as is conventional.
func (o *SGD) Step(params, grads map[string]*tensor.Tensor) error {
	// Per-parameter updates are independent, but iterate in sorted-name
	// order anyway so every run touches memory identically and any future
	// cross-parameter term stays deterministic (maporder contract).
	for _, name := range det.SortedKeys(params) {
		w := params[name]
		g, ok := grads[name]
		if !ok {
			return fmt.Errorf("train: no gradient for parameter %q", name)
		}
		if !g.Shape().Equal(w.Shape()) {
			return fmt.Errorf("train: gradient %q shape %v vs param %v", name, g.Shape(), w.Shape())
		}
		v := o.velocity[name]
		if v == nil {
			v = tensor.New(w.Shape()...)
			o.velocity[name] = v
		}
		decay := float32(o.WeightDecay)
		if isNoDecay(name) {
			decay = 0
		}
		mu, lr := float32(o.Momentum), float32(o.LR)
		for i := range w.Data {
			upd := g.Data[i] + float32(decay*w.Data[i])
			v.Data[i] = float32(mu*v.Data[i]) + upd
			w.Data[i] -= float32(lr * v.Data[i])
		}
	}
	return nil
}

func isNoDecay(name string) bool {
	for _, suffix := range []string{".gamma", ".beta", ".b"} {
		if len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix {
			return true
		}
	}
	return false
}

// StepResult records one training step's metrics.
type StepResult struct {
	Step     int
	Loss     float64
	Accuracy float64
}

// Trainer couples an executor, an optimizer, and a data source.
type Trainer struct {
	Exec *core.Executor
	Opt  *SGD
	Data *workload.Dataset

	BatchSize int
	History   []StepResult

	replicas   int // below 2: no data parallelism
	bnStrategy ddp.BNStrategy
	group      *ddp.Group
}

// TrainerOption configures a Trainer at construction time.
type TrainerOption func(*Trainer)

// WithBatchSize sets the mini-batch size (default 16).
func WithBatchSize(n int) TrainerOption { return func(t *Trainer) { t.BatchSize = n } }

// WithOptimizer replaces the default optimizer (SGD with lr 0.01,
// momentum 0.9, weight decay 1e-4).
func WithOptimizer(opt *SGD) TrainerOption { return func(t *Trainer) { t.Opt = opt } }

// WithReplicas trains data-parallel over n replica executors (see
// internal/ddp): each step shards the mini-batch n ways, runs the replicas
// concurrently, and averages their gradients through a fixed-order tree
// all-reduce before the optimizer step. WithReplicas(1) is the plain
// single-executor trainer (no group is built). The batch size must divide
// evenly by n.
func WithReplicas(n int) TrainerOption { return func(t *Trainer) { t.replicas = n } }

// WithBNStrategy selects how replicas compute BN statistics (default
// ddp.BNLocal, per-shard ghost batches). Only meaningful with WithReplicas.
func WithBNStrategy(s ddp.BNStrategy) TrainerOption { return func(t *Trainer) { t.bnStrategy = s } }

// WithTracer attaches a span tracer to the underlying executor (forwarding to
// core.Executor.SetTracer) and additionally records one obs.CatStep envelope
// span per optimizer step, so a trace shows where pass time sits inside the
// whole update cycle.
func WithTracer(tr *obs.Tracer) TrainerOption { return func(t *Trainer) { t.Exec.SetTracer(tr) } }

// NewTrainer wires up a training run over the executor and data source,
// configured by functional options:
//
//	tr, err := train.NewTrainer(exec, data,
//	        train.WithBatchSize(32),
//	        train.WithOptimizer(train.NewSGD(0.1, 0.9, 1e-4)))
//
// The executor must be a training one: its Forward updates the running
// statistics, and Backward is unavailable in inference mode.
func NewTrainer(exec *core.Executor, data *workload.Dataset, opts ...TrainerOption) (*Trainer, error) {
	t := &Trainer{
		Exec:      exec,
		Opt:       NewSGD(0.01, 0.9, 1e-4),
		Data:      data,
		BatchSize: 16,
	}
	for _, opt := range opts {
		opt(t)
	}
	if t.BatchSize < 1 {
		return nil, fmt.Errorf("train: batch size %d", t.BatchSize)
	}
	if t.Opt == nil {
		return nil, fmt.Errorf("train: nil optimizer")
	}
	if t.replicas > 1 {
		g, err := ddp.NewGroup(exec, t.replicas, t.bnStrategy)
		if err != nil {
			return nil, err
		}
		t.group = g
	} else if t.bnStrategy != ddp.BNLocal {
		return nil, fmt.Errorf("train: WithBNStrategy(%v) requires WithReplicas(n > 1)", t.bnStrategy)
	}
	return t, nil
}

// Group returns the trainer's data-parallel group, or nil when the trainer
// runs single-executor.
func (t *Trainer) Group() *ddp.Group { return t.group }

// Step runs one forward/backward/update cycle and records the metrics.
func (t *Trainer) Step() (StepResult, error) {
	x, labels, err := t.Data.Batch(t.BatchSize)
	if err != nil {
		return StepResult{}, err
	}
	return t.StepOn(x, labels)
}

// StepOn runs one cycle on a caller-provided batch — the equivalence tests
// feed identical batches to baseline and restructured trainers.
func (t *Trainer) StepOn(x *tensor.Tensor, labels []int) (StepResult, error) {
	tr := t.Exec.Tracer()
	step := len(t.History)
	stepStart := tr.Begin()
	// Deferred so an error return from any stage still closes the step
	// envelope — a trace must never end mid-span. The Enabled guard only
	// skips building the args map; EndArgs itself no-ops when disabled.
	defer func() {
		if tr.Enabled() {
			tr.EndArgs("step", obs.CatStep, "", obs.TIDStep, stepStart,
				map[string]float64{"step": float64(step), "batch": float64(len(labels))})
		}
	}()
	var (
		loss, acc float64
		grads     map[string]*tensor.Tensor
		err       error
	)
	if t.group != nil {
		loss, acc, grads, err = t.group.ForwardBackward(x, labels)
		if err != nil {
			return StepResult{}, err
		}
	} else {
		logits, err := t.Exec.Forward(x)
		if err != nil {
			return StepResult{}, err
		}
		var dlogits *tensor.Tensor
		loss, dlogits, err = layers.SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			return StepResult{}, err
		}
		acc, err = layers.Accuracy(logits, labels)
		if err != nil {
			return StepResult{}, err
		}
		grads, err = t.Exec.Backward(dlogits)
		if err != nil {
			return StepResult{}, err
		}
	}
	if err := t.Opt.Step(t.Exec.Params, grads); err != nil {
		return StepResult{}, err
	}
	res := StepResult{Step: step, Loss: loss, Accuracy: acc}
	t.History = append(t.History, res)
	return res, nil
}

// Run performs n steps, returning the final result.
func (t *Trainer) Run(n int) (StepResult, error) {
	var last StepResult
	for i := 0; i < n; i++ {
		res, err := t.Step()
		if err != nil {
			return last, fmt.Errorf("train: step %d: %w", i, err)
		}
		last = res
	}
	return last, nil
}

// MeanLoss averages the loss over the last k recorded steps.
func (t *Trainer) MeanLoss(k int) float64 {
	if k > len(t.History) {
		k = len(t.History)
	}
	if k == 0 {
		return 0
	}
	var s float64
	for _, r := range t.History[len(t.History)-k:] {
		s += r.Loss
	}
	return s / float64(k)
}
