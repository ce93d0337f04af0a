package experiments

import (
	"strings"
	"testing"

	"bnff/internal/scenario"
)

// TestStructureChecksCoversEveryTrainScenario pins the registry-driven
// contract: one metric row per builtin train spec, so a scenario added to the
// grid cannot dodge the structure check.
func TestStructureChecksCoversEveryTrainScenario(t *testing.T) {
	e, err := StructureChecks()
	if err != nil {
		t.Fatal(err)
	}
	specs := scenario.Builtin().Specs()
	if len(e.Metrics) != len(specs) {
		t.Fatalf("structure has %d metrics, want one per train scenario (%d)", len(e.Metrics), len(specs))
	}
	for i, sp := range specs {
		if !strings.HasPrefix(e.Metrics[i].Name, sp.Name) {
			t.Errorf("metric %d = %q, want prefix %q", i, e.Metrics[i].Name, sp.Name)
		}
		if !strings.Contains(e.Detail, sp.Name) {
			t.Errorf("detail missing scenario %s", sp.Name)
		}
	}
}

func TestExpectStructureRejectsContradictions(t *testing.T) {
	cases := []struct {
		name        string
		restructure string
		c           opCounts
		wantErr     string
	}{
		{"baseline with fusion", "baseline", opCounts{bn: 2, reluConv: 1}, "restructuring markers"},
		{"baseline without bn", "baseline", opCounts{}, "no BN nodes"},
		{"rcf without fusion", "rcf", opCounts{bn: 2}, "no ReLU-on-read"},
		{"rcf with mvf", "rcf", opCounts{bn: 2, reluConv: 1, mvf: 1}, "MVF/BNFF markers"},
		{"rcf+mvf without mvf", "rcf+mvf", opCounts{bn: 2, reluConv: 1}, "no mean/variance"},
		{"bnff with monolithic bn", "bnff", opCounts{bn: 1, bnReluConv: 2, statsOut: 2}, "monolithic BN"},
		{"bnff without stats", "bnff", opCounts{bnReluConv: 2}, "no statistics"},
		{"unknown level", "turbo", opCounts{}, "unknown restructure"},
	}
	for _, tc := range cases {
		err := expectStructure(tc.restructure, tc.c)
		if err == nil {
			t.Errorf("%s: expectStructure accepted %+v", tc.name, tc.c)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
