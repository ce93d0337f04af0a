package scenario

import (
	"fmt"

	"bnff/internal/det"
)

// Registry is an immutable, name-keyed set of normalized specs. Iteration
// is always in sorted-name order (maporder contract), so every consumer —
// grid runner, structure checks, JSON export — sees one deterministic
// ordering across processes.
type Registry struct {
	specs map[string]Spec
}

// NewRegistry normalizes the given specs and indexes them by name.
// Duplicate names and invalid specs are errors.
func NewRegistry(specs ...Spec) (*Registry, error) {
	r := &Registry{specs: make(map[string]Spec, len(specs))}
	for _, s := range specs {
		if err := s.Normalize(); err != nil {
			return nil, err
		}
		if _, dup := r.specs[s.Name]; dup {
			return nil, fmt.Errorf("scenario: duplicate name %q", s.Name)
		}
		r.specs[s.Name] = s
	}
	return r, nil
}

// Names lists the registered scenario names, sorted.
func (r *Registry) Names() []string { return det.SortedKeys(r.specs) }

// Get returns the named spec.
func (r *Registry) Get(name string) (Spec, bool) {
	s, ok := r.specs[name]
	return s, ok
}

// Specs returns every spec in sorted-name order.
func (r *Registry) Specs() []Spec {
	out := make([]Spec, 0, len(r.specs))
	for _, name := range r.Names() {
		out = append(out, r.specs[name])
	}
	return out
}

// Resolve produces the normalized spec a command runs. Without a name it is
// fromFlags, the spec assembled from every flag value. With one it is the
// named builtin scenario, with override layering the explicitly set flags on
// top.
func Resolve(name string, fromFlags Spec, override func(*Spec)) (Spec, error) {
	sp := fromFlags
	if name != "" {
		reg := Builtin()
		got, ok := reg.Get(name)
		if !ok {
			return Spec{}, fmt.Errorf("unknown scenario %q (builtin: %v)", name, reg.Names())
		}
		sp = got
		override(&sp)
	}
	if err := sp.Normalize(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Builtin returns the paper-grade default scenario set — the grid
// scripts/paper/experiments.json pins. It is constructed fresh on every call
// (no package-level state) and always normalizes cleanly; a builtin spec
// failing Normalize is a programming error.
func Builtin() *Registry {
	var specs []Spec
	// The restructuring ladder on the DenseNet-style composite-layer model —
	// the paper's primary subject — plus baseline/BNFF bookends on the
	// ResNet-style model and BNFF at one and four workers on the plain CNN.
	// There is no bnff+icf rung: ICF only marks concat boundaries for the
	// cost model, so it would train exactly as bnff does.
	for _, restructure := range []string{"baseline", "rcf", "rcf+mvf", "bnff"} {
		specs = append(specs, Spec{
			Name:        "train/tiny-densenet/" + restructure,
			Model:       "tiny-densenet",
			Restructure: restructure,
			Batch:       8,
			Steps:       3,
			Seed:        42,
		})
	}
	for _, restructure := range []string{"baseline", "bnff"} {
		specs = append(specs, Spec{
			Name:        "train/tiny-resnet/" + restructure,
			Model:       "tiny-resnet",
			Restructure: restructure,
			Batch:       8,
			Steps:       3,
			Seed:        42,
		})
	}
	specs = append(specs,
		Spec{
			Name:        "train/tiny-cnn/bnff",
			Model:       "tiny-cnn",
			Restructure: "bnff",
			Batch:       8,
			Steps:       3,
			Seed:        42,
		},
		Spec{
			Name:        "train/tiny-cnn/bnff/workers4",
			Model:       "tiny-cnn",
			Restructure: "bnff",
			Batch:       8,
			Steps:       3,
			Seed:        42,
			Workers:     4,
		},
	)

	// Data-parallel scaling ladder on the primary model: replicas ∈ {2, 4}
	// with synchronized BN (the paper's MVF-enabled one-all-reduce sync), plus
	// a ghost-batch variant where each replica normalizes over its own shard.
	specs = append(specs,
		Spec{
			Name:        "train/tiny-densenet/bnff/ddp2",
			Model:       "tiny-densenet",
			Restructure: "bnff",
			Batch:       8,
			Steps:       3,
			Seed:        42,
			Replicas:    2,
			BNStrategy:  "sync",
		},
		Spec{
			Name:        "train/tiny-densenet/bnff/ddp4",
			Model:       "tiny-densenet",
			Restructure: "bnff",
			Batch:       8,
			Steps:       3,
			Seed:        42,
			Replicas:    4,
			BNStrategy:  "sync",
		},
		Spec{
			Name:        "train/tiny-densenet/bnff/ddp2-local",
			Model:       "tiny-densenet",
			Restructure: "bnff",
			Batch:       8,
			Steps:       3,
			Seed:        42,
			Replicas:    2,
			BNStrategy:  "local",
		},
	)

	r, err := NewRegistry(specs...)
	if err != nil {
		panic("scenario: builtin registry invalid: " + err.Error())
	}
	return r
}
