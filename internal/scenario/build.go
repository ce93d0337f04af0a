package scenario

import (
	"fmt"

	"bnff/internal/core"
	"bnff/internal/ddp"
	"bnff/internal/graph"
	"bnff/internal/models"
	"bnff/internal/train"
	"bnff/internal/workload"
)

// Builders: a normalized Spec is the single source of truth for constructing
// graphs, executors, trainers, and datasets, so commands stop
// carrying their own flag→constructor wiring. All builders expect a
// normalized spec (Normalize has run); Registry and Resolve hand out only
// normalized specs.

// BuildGraph constructs the spec's model at the given batch size and applies
// its restructuring passes.
func (s Spec) BuildGraph(batch int) (*graph.Graph, error) {
	g, err := models.Build(s.Model, batch)
	if err != nil {
		return nil, err
	}
	sc, err := s.CoreScenario()
	if err != nil {
		return nil, err
	}
	if err := core.Restructure(g, sc.Options()); err != nil {
		return nil, err
	}
	return g, nil
}

// NewExecutor builds the training executor the spec describes: restructured
// graph at Batch, seeded parameters, and a Workers-wide pool. Additional
// options append after the spec-derived ones, so callers can attach tracers
// or metrics.
func (s Spec) NewExecutor(extra ...core.Option) (*core.Executor, error) {
	g, err := s.BuildGraph(s.Batch)
	if err != nil {
		return nil, err
	}
	opts := []core.Option{core.WithSeed(s.Seed), core.WithWorkers(s.Workers)}
	return core.NewExecutor(g, append(opts, extra...)...)
}

// Dataset returns the deterministic synthetic workload matched to the spec's
// model: class count and image geometry from the model's input/output
// shapes, data seed offset from the parameter seed so weights and data
// draw from distinct streams.
func (s Spec) Dataset() (*workload.Dataset, error) {
	g, err := models.Build(s.Model, 1)
	if err != nil {
		return nil, err
	}
	in := g.Nodes[0].OutShape
	if len(in) != 4 {
		return nil, fmt.Errorf("scenario %q: model input shape %v, want rank 4", s.Name, in)
	}
	return workload.New(workload.Config{
		Classes:  g.Output.OutShape[1],
		Channels: in[1],
		Size:     in[2],
		Noise:    0.3,
		Seed:     s.Seed + 1,
	})
}

// NewTrainer wires the full training run: executor, optimizer (SGD at the
// spec's constant LR) and dataset per the spec. Extra trainer options append
// after the spec-derived ones; the spec's dataset is built only if none of
// them set the trainer's Data.
func (s Spec) NewTrainer(extra ...train.TrainerOption) (*train.Trainer, error) {
	exec, err := s.NewExecutor()
	if err != nil {
		return nil, err
	}
	st, err := ddp.ParseBNStrategy(s.BNStrategy)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	opts := []train.TrainerOption{
		train.WithBatchSize(s.Batch),
		train.WithOptimizer(train.NewSGD(s.LR, 0.9, 1e-4)),
		train.WithReplicas(s.Replicas),
		train.WithBNStrategy(st),
	}
	t, err := train.NewTrainer(exec, nil, append(opts, extra...)...)
	if err != nil {
		return nil, err
	}
	if t.Data == nil {
		if t.Data, err = s.Dataset(); err != nil {
			return nil, err
		}
	}
	return t, nil
}
