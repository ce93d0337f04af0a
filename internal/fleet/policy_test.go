package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func views(names ...string) []BackendView {
	vs := make([]BackendView, len(names))
	for i, n := range names {
		vs[i] = BackendView{Name: n}
	}
	return vs
}

func TestPolicyByName(t *testing.T) {
	p, err := PolicyByName("hash")
	if err != nil {
		t.Fatalf("PolicyByName(hash): %v", err)
	}
	if p.Name() != "hash" {
		t.Fatalf("PolicyByName(hash).Name() = %q", p.Name())
	}
	for _, name := range []string{"least-loaded", "round-robin", "random", ""} {
		if _, err := PolicyByName(name); err == nil || !strings.Contains(err.Error(), "want hash") {
			t.Fatalf("PolicyByName(%q) = %v, want an error naming hash", name, err)
		}
	}
}

func TestConsistentHashStableCompleteAndMinimal(t *testing.T) {
	var p Policy
	vs := views("a", "b", "c", "d")
	for _, key := range []string{"k1", "k2", "k3", "user-42"} {
		o1 := p.Order(key, vs)
		o2 := p.Order(key, vs)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("key %q: order not stable: %v vs %v", key, o1, o2)
		}
		seen := map[string]bool{}
		for _, n := range o1 {
			seen[n] = true
		}
		if len(o1) != 4 || len(seen) != 4 {
			t.Fatalf("key %q: order %v is not a permutation", key, o1)
		}
	}

	// Different keys spread across backends: over many keys every backend
	// leads at least once.
	lead := map[string]int{}
	for i := 0; i < 64; i++ {
		lead[p.Order(fmt.Sprintf("key-%d", i), vs)[0]]++
	}
	for _, v := range vs {
		if lead[v.Name] == 0 {
			t.Fatalf("backend %s never preferred across 64 keys: %v", v.Name, lead)
		}
	}

	// The consistency property: removing one backend only remaps keys that
	// preferred it — everyone else keeps their first choice.
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		full := p.Order(key, vs)
		if full[0] == "d" {
			continue
		}
		reduced := p.Order(key, views("a", "b", "c"))
		if reduced[0] != full[0] {
			t.Fatalf("key %q: first choice moved %s → %s when d left", key, full[0], reduced[0])
		}
	}
}
