package scenario

import (
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
