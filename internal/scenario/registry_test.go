package scenario

import (
	"bytes"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestBuiltinDeterministicOrder(t *testing.T) {
	a, b := Builtin(), Builtin()
	na, nb := a.Names(), b.Names()
	if len(na) == 0 {
		t.Fatal("builtin registry empty")
	}
	if !sort.StringsAreSorted(na) {
		t.Errorf("names not sorted: %v", na)
	}
	if len(na) != len(nb) {
		t.Fatalf("two constructions disagree: %d vs %d", len(na), len(nb))
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Errorf("name order differs at %d: %q vs %q", i, na[i], nb[i])
		}
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	s1, s2 := validTrain(), validTrain()
	if _, err := NewRegistry(s1, s2); err == nil {
		t.Error("registry accepted duplicate names")
	}
}

// The committed experiments.json is the cross-process determinism golden:
// any difference between a fresh in-process rendering of the builtin grid
// and the bytes a previous process committed is a determinism (or staleness)
// failure. Regenerate with: go run ./cmd/bnff-exp -write-grid
func TestDefaultGridMatchesCommittedExperimentsJSON(t *testing.T) {
	got, err := DefaultGrid().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../scripts/paper/experiments.json")
	if err != nil {
		t.Fatalf("reading committed grid (regenerate with `go run ./cmd/bnff-exp -write-grid`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scripts/paper/experiments.json is stale or rendering is nondeterministic;\nregenerate with `go run ./cmd/bnff-exp -write-grid`\n got %d bytes, want %d bytes", len(got), len(want))
	}
}

func TestDefaultGridRoundTrips(t *testing.T) {
	b, err := DefaultGrid().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseGrid(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := g.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("grid decode/encode not byte-stable")
	}
	if _, err := g.Registry(); err != nil {
		t.Fatal(err)
	}
}

func TestParseGridRejects(t *testing.T) {
	cases := map[string]string{
		"bad version":   `{"schema_version": 99, "train": []}`,
		"old version":   `{"schema_version": 1, "train": []}`,
		"unknown field": `{"schema_version": 2, "train": [], "extra": 1}`,
		"serve list":    `{"schema_version": 2, "train": [], "serve": []}`,
		"spec kind":     `{"schema_version": 2, "train": [{"name":"x","kind":"train","model":"tiny-cnn"}]}`,
		"bad spec":      `{"schema_version": 2, "train": [{"name":"x","model":"no-such-model"}]}`,
		"bad smoke":     `{"schema_version": 2, "train": [], "smoke": ["ghost"]}`,
		"dup name": `{"schema_version": 2, "train": [
			{"name":"x","model":"tiny-cnn"},
			{"name":"x","model":"tiny-cnn"}]}`,
	}
	for name, raw := range cases {
		if _, err := ParseGrid(bytes.NewReader([]byte(raw))); err == nil {
			t.Errorf("%s: grid accepted", name)
		}
	}
}

func TestResolve(t *testing.T) {
	noOverride := func(*Spec) {}
	if _, err := Resolve("train/no-such", validTrain(), noOverride); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown name: err %v", err)
	}

	sp, err := Resolve("train/tiny-cnn/bnff", validTrain(), func(s *Spec) { s.Batch = 4 })
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "train/tiny-cnn/bnff" || sp.Batch != 4 || sp.Steps != 3 {
		t.Errorf("override not layered over the builtin: %+v", sp)
	}

	// Without a name the flag-built spec is normalized as is.
	sp, err = Resolve("", validTrain(), func(s *Spec) { s.Batch = 4 })
	if err != nil {
		t.Fatal(err)
	}
	if sp.Batch != 16 || sp.Steps != 5 {
		t.Errorf("flag-built spec not normalized, or override applied without a name: %+v", sp)
	}

	bad := validTrain()
	bad.Model = "no-such-model"
	if _, err := Resolve("", bad, noOverride); err == nil ||
		!strings.Contains(err.Error(), "unknown model") {
		t.Errorf("Normalize error not returned: err %v", err)
	}
	if _, err := Resolve("train/tiny-cnn/bnff", validTrain(), func(s *Spec) { s.Workers = -1 }); err == nil {
		t.Error("override producing an invalid spec was accepted")
	}
}
