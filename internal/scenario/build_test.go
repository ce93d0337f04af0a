package scenario

import (
	"testing"
	"time"

	"bnff/internal/graph"
)

func TestBuildGraphRestructures(t *testing.T) {
	s := validTrain()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	g, err := s.BuildGraph(s.Batch)
	if err != nil {
		t.Fatal(err)
	}
	fused := 0
	for _, n := range g.Live() {
		if n.Kind == graph.OpBNReLUConv || n.StatsOut != nil {
			fused++
		}
	}
	if fused == 0 {
		t.Error("bnff spec built a graph with no fused BN nodes")
	}
}

func TestNewTrainerRunsAStep(t *testing.T) {
	s := Spec{Name: "t", Kind: KindTrain, Model: "tiny-cnn", Restructure: "bnff", Batch: 4, Steps: 1, Seed: 7}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	tr, err := s.NewTrainer()
	if err != nil {
		t.Fatal(err)
	}
	if tr.BatchSize != 4 {
		t.Errorf("trainer batch %d, want 4", tr.BatchSize)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
}

func TestNewExecutorRejectsServeSpec(t *testing.T) {
	s := validServe()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewExecutor(); err == nil {
		t.Error("NewExecutor accepted a serve spec")
	}
}

func TestServeConfigMapping(t *testing.T) {
	s := validServe()
	s.MaxWaitMS = 3
	s.QueueDepth = 9
	s.Fold = true
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	cfg := s.ServeConfig(nil, nil)
	if cfg.MaxBatch != s.MaxBatch || cfg.Replicas != s.Replicas ||
		cfg.QueueDepth != 9 || cfg.MaxWait != 3*time.Millisecond || !cfg.FoldBN {
		t.Errorf("serve config mapping wrong: %+v from %+v", cfg, s)
	}
	if cfg.MinService != 0 {
		t.Errorf("steady traffic MinService = %v, want 0", cfg.MinService)
	}

	// Overload shapes default a 20 ms service floor and map it to MinService.
	o := validServe()
	o.Traffic = TrafficOverload
	o.Replicas, o.QueueDepth, o.Clients = 1, 2, 12
	if err := o.Normalize(); err != nil {
		t.Fatal(err)
	}
	if o.ServiceFloorMS != 20 {
		t.Errorf("overload service_floor_ms defaulted to %d, want 20", o.ServiceFloorMS)
	}
	if got := o.ServeConfig(nil, nil); got.MinService != 20*time.Millisecond {
		t.Errorf("overload MinService = %v, want 20ms", got.MinService)
	}
	b := s.ServeBuilder()
	g, err := b(2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes[0].OutShape[0] != 2 {
		t.Errorf("builder batch dim %d, want 2", g.Nodes[0].OutShape[0])
	}
}
