package scenario

import (
	"testing"

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
