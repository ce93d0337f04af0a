package scenario

import (
	"testing"

	"bnff/internal/graph"
	"bnff/internal/train"
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
	s := Spec{Name: "t", Model: "tiny-cnn", Restructure: "bnff", Batch: 4, Steps: 1, Seed: 7}
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

// An option that sets the trainer's Data keeps that dataset: NewTrainer
// builds the spec's own only when none was supplied, so a -compare baseline
// that shares the restructured trainer's dataset builds no second one.
func TestNewTrainerKeepsSuppliedDataset(t *testing.T) {
	s := Spec{Name: "t", Model: "tiny-cnn", Restructure: "baseline", Batch: 4, Steps: 1, Seed: 7}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	own, err := s.NewTrainer()
	if err != nil {
		t.Fatal(err)
	}
	if own.Data == nil {
		t.Fatal("NewTrainer built no dataset")
	}
	share := func(tr *train.Trainer) { tr.Data = own.Data }
	shared, err := s.NewTrainer(share)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Data != own.Data {
		t.Error("NewTrainer replaced the dataset an option supplied")
	}
	// Building the spec's dataset (its model graph and class patterns) is the
	// difference: a trainer that shares one allocates strictly less.
	built := testing.AllocsPerRun(2, func() { _, _ = s.NewTrainer() })
	kept := testing.AllocsPerRun(2, func() { _, _ = s.NewTrainer(share) })
	if kept >= built {
		t.Errorf("NewTrainer with a supplied dataset made %v allocations, without %v: it built a dataset anyway", kept, built)
	}
}
