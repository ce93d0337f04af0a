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

// Len returns the number of registered scenarios.
func (r *Registry) Len() int { return len(r.specs) }

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

// Kind returns the specs of one kind, in sorted-name order.
func (r *Registry) Kind(kind string) []Spec {
	var out []Spec
	for _, s := range r.Specs() {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// Resolve produces the normalized spec a command runs. Without a name it is
// fromFlags, the spec assembled from every flag value. With one it is the
// named builtin scenario, which must be of the given kind, with override
// layering the explicitly set flags on top.
func Resolve(name, kind string, fromFlags Spec, override func(*Spec)) (Spec, error) {
	sp := fromFlags
	if name != "" {
		reg := Builtin()
		got, ok := reg.Get(name)
		if !ok {
			return Spec{}, fmt.Errorf("unknown scenario %q (builtin: %v)", name, reg.Names())
		}
		if got.Kind != kind {
			return Spec{}, fmt.Errorf("scenario %q is a %s scenario; this command wants a %s scenario", name, got.Kind, kind)
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
	// ResNet-style model and fusion variants on the plain CNN.
	for _, restructure := range []string{"baseline", "rcf", "rcf+mvf", "bnff", "bnff+icf"} {
		specs = append(specs, Spec{
			Name:        "train/tiny-densenet/" + restructure,
			Kind:        KindTrain,
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
			Kind:        KindTrain,
			Model:       "tiny-resnet",
			Restructure: restructure,
			Batch:       8,
			Steps:       3,
			Seed:        42,
		})
	}
	specs = append(specs,
		Spec{
			Name:        "train/tiny-cnn/bnff+icf",
			Kind:        KindTrain,
			Model:       "tiny-cnn",
			Restructure: "bnff+icf",
			Batch:       8,
			Steps:       3,
			Seed:        42,
		},
		Spec{
			Name:        "train/tiny-cnn/bnff/workers4",
			Kind:        KindTrain,
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
			Kind:        KindTrain,
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
			Kind:        KindTrain,
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
			Kind:        KindTrain,
			Model:       "tiny-densenet",
			Restructure: "bnff",
			Batch:       8,
			Steps:       3,
			Seed:        42,
			Replicas:    2,
			BNStrategy:  "local",
		},
	)

	// Serving: steady-state shapes on the folded ResNet-style model, chaos
	// drills on the fast plain CNN so the failure paths run in CI time.
	specs = append(specs,
		Spec{
			Name:    "serve/tiny-resnet/steady",
			Kind:    KindServe,
			Model:   "tiny-resnet",
			Seed:    42,
			Fold:    true,
			Traffic: TrafficSteady,
		},
		Spec{
			Name:    "serve/tiny-resnet/bursty",
			Kind:    KindServe,
			Model:   "tiny-resnet",
			Seed:    42,
			Fold:    true,
			Traffic: TrafficBursty,
		},
		Spec{
			Name:          "serve/tiny-cnn/slow-client",
			Kind:          KindServe,
			Model:         "tiny-cnn",
			Seed:          42,
			Traffic:       TrafficSlowClient,
			Requests:      32,
			ClientDelayMS: 2,
		},
		// Overload drives 12 blocking clients into a single replica with a
		// 2-deep queue. The service floor holds the replica for 20 ms per
		// batch, so while a batch is in service the other clients pile onto
		// the queue and the excess must shed, even on one CPU — regardless of
		// how fast the compute kernels make the actual forward pass.
		Spec{
			Name:           "serve/tiny-densenet/overload",
			Kind:           KindServe,
			Model:          "tiny-densenet",
			Seed:           42,
			Traffic:        TrafficOverload,
			Requests:       48,
			Clients:        12,
			QueueDepth:     2,
			MaxBatch:       4,
			ServiceFloorMS: 20,
			Replicas:       1,
		},
		Spec{
			Name:     "serve/tiny-cnn/replica-crash",
			Kind:     KindServe,
			Model:    "tiny-cnn",
			Seed:     42,
			Traffic:  TrafficCrash,
			Replicas: 2,
			Requests: 48,
		},
		Spec{
			Name:     "serve/tiny-cnn/disk-full-checkpoint",
			Kind:     KindServe,
			Model:    "tiny-cnn",
			Seed:     42,
			Traffic:  TrafficDiskFull,
			Requests: 32,
		},
	)

	// Fleet serving: identical folded plain-CNN engines behind the front
	// proxy. The steady ladder at 1/2/4 backends records the multi-process
	// requests-per-second scaling; the drills exercise the fleet's failure
	// contracts — a backend crash loses zero accepted requests, a rolling
	// checkpoint reload stays bit-identical to one generation per answer,
	// and a fully saturated fleet sheds instead of queueing without bound.
	for _, n := range []int{1, 2, 4} {
		specs = append(specs, Spec{
			Name:     fmt.Sprintf("serve/fleet/tiny-cnn/rps%d", n),
			Kind:     KindServe,
			Model:    "tiny-cnn",
			Seed:     42,
			Fold:     true,
			Traffic:  TrafficSteady,
			Backends: n,
		})
	}
	specs = append(specs,
		Spec{
			Name:     "serve/fleet/tiny-cnn/backend-crash",
			Kind:     KindServe,
			Model:    "tiny-cnn",
			Seed:     42,
			Fold:     true,
			Traffic:  TrafficBackendCrash,
			Backends: 2,
			Requests: 48,
		},
		Spec{
			Name:     "serve/fleet/tiny-cnn/rolling-reload",
			Kind:     KindServe,
			Model:    "tiny-cnn",
			Seed:     42,
			Fold:     true,
			Traffic:  TrafficRollingReload,
			Backends: 2,
			Requests: 48,
		},
		// The fleet overload twin of serve/tiny-densenet/overload: the same
		// 20 ms service floor and 2-deep queues, but 16 clients press
		// against two single-replica backends through the proxy — 12 request
		// slots in all, and requests shed only once every backend's queue is
		// full.
		Spec{
			Name:           "serve/fleet/tiny-densenet/proxy-overload",
			Kind:           KindServe,
			Model:          "tiny-densenet",
			Seed:           42,
			Traffic:        TrafficProxyOverload,
			Backends:       2,
			Requests:       48,
			Clients:        16,
			QueueDepth:     2,
			MaxBatch:       4,
			ServiceFloorMS: 20,
			Replicas:       1,
		},
	)

	r, err := NewRegistry(specs...)
	if err != nil {
		panic("scenario: builtin registry invalid: " + err.Error())
	}
	return r
}
