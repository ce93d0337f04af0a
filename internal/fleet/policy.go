package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// BackendView is one routable backend as the Policy sees it: its name.
type BackendView struct {
	Name string
}

// Policy routes by rendezvous (highest-random-weight) hashing: each backend
// scores FNV-1a(name, key) and the order is score-descending. A given key
// always prefers the same backend while it stays routable, and removing a
// backend only remaps the keys that preferred it — the consistent-hashing
// property without maintaining a ring. The proxy tries backends in the
// returned order, failing over down the list. Order is a pure function of
// (key, views) — no clocks, no randomness, no state — so a routing history
// replays deterministically. The zero value is ready to use.
type Policy struct{}

// PolicyByName resolves a policy name. "hash" is the only one.
func PolicyByName(name string) (Policy, error) {
	if name != "hash" {
		return Policy{}, fmt.Errorf("fleet: unknown policy %q (want hash)", name)
	}
	return Policy{}, nil
}

// Name is the policy's name, "hash".
func (Policy) Name() string { return "hash" }

// Order returns the backend names in preference order.
func (Policy) Order(key string, views []BackendView) []string {
	type scored struct {
		name  string
		score uint64
	}
	ss := make([]scored, len(views))
	for i, v := range views {
		h := fnv.New64a()
		h.Write([]byte(v.Name))
		h.Write([]byte{0})
		h.Write([]byte(key))
		// FNV alone leaves (name, key) scores correlated for short names —
		// the same backend would lead for almost every key. An avalanche
		// finalizer (the 64-bit murmur3 mixer) decorrelates them.
		ss[i] = scored{name: v.Name, score: mix64(h.Sum64())}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].name < ss[j].name
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.name
	}
	return out
}

// mix64 is the murmur3/splitmix finalizer: a bijective avalanche so every
// input bit flips every output bit with probability ~1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
