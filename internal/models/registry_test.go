package models

import (
	"testing"
)

func TestRegistryBuildsEverything(t *testing.T) {
	for _, name := range Names() {
		batch := 2
		g, err := Build(name, batch)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.Nodes[0].OutShape[0] != batch {
			t.Errorf("%s: batch %d not respected (%v)", name, batch, g.Nodes[0].OutShape)
		}
	}
	if len(Names()) != 13 {
		t.Errorf("registry has %d models, want 13", len(Names()))
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := Build("nope", 2); err == nil {
		t.Error("accepted unknown model")
	}
}
