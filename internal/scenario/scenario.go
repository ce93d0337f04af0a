// Package scenario is the declarative experiment layer: a Spec names one
// reproducible training run (model × restructuring × batch/workers/replicas)
// with validation-with-defaults in Normalize, a deterministic sorted-name
// registry of the builtin runs, and builders that turn a spec into a graph,
// executor, dataset and trainer. cmd/bnff-train and cmd/bnff-profile resolve
// their flags onto a Spec (Resolve) instead of carrying private
// flag→executor wiring, and golden_test.go pins the checkpoint digest, final
// loss and all-reduce volume every builtin spec trains to.
package scenario

import (
	"fmt"
	"math"
	"strings"

	"bnff/internal/core"
	"bnff/internal/ddp"
	"bnff/internal/models"
	"bnff/internal/parallel"
)

// Spec declares one training scenario. The zero value is not runnable;
// Normalize fills defaults and validates, and every consumer (registry,
// builders) normalizes before use. Fields: Name, Model (a models registry
// name), Restructure (a core.Scenario name, canonicalized lowercase),
// Workers, Seed, Replicas (data-parallel replicas, default 1), Batch, Steps,
// LR, Schedule, and BNStrategy (local|sync, default local; sync requires
// replicas > 1 and an MVF restructuring).
type Spec struct {
	Name        string
	Model       string
	Restructure string
	Workers     int
	Seed        uint64
	Replicas    int
	Batch       int
	Steps       int
	LR          float64
	Schedule    string
	BNStrategy  string
}

// Normalize fills defaults in place and validates the result. It is
// idempotent: normalizing a normalized spec changes nothing.
func (s *Spec) Normalize() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name required")
	}
	if strings.ContainsAny(s.Name, " \t\n") {
		return fmt.Errorf("scenario %q: name must not contain whitespace", s.Name)
	}
	if s.Model == "" {
		return fmt.Errorf("scenario %q: model required (one of %v)", s.Name, models.Names())
	}
	if !knownModel(s.Model) {
		return fmt.Errorf("scenario %q: unknown model %q (want one of %v)", s.Name, s.Model, models.Names())
	}
	if s.Restructure == "" {
		s.Restructure = "baseline"
	}
	sc, err := core.ParseScenario(s.Restructure)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	s.Restructure = strings.ToLower(sc.String())
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.Workers < 1 || s.Workers > parallel.MaxWorkers {
		return fmt.Errorf("scenario %q: workers %d outside [1, %d]", s.Name, s.Workers, parallel.MaxWorkers)
	}
	if s.Batch == 0 {
		s.Batch = 16
	}
	if s.Batch < 1 {
		return fmt.Errorf("scenario %q: batch %d must be positive", s.Name, s.Batch)
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	if s.Replicas < 1 {
		return fmt.Errorf("scenario %q: replicas %d must be positive", s.Name, s.Replicas)
	}
	if s.Batch%s.Replicas != 0 {
		return fmt.Errorf("scenario %q: batch %d does not shard into %d replicas", s.Name, s.Batch, s.Replicas)
	}
	if s.BNStrategy == "" {
		s.BNStrategy = "local"
	}
	st, err := ddp.ParseBNStrategy(s.BNStrategy)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	s.BNStrategy = st.String()
	if st == ddp.BNSync {
		if s.Replicas < 2 {
			return fmt.Errorf("scenario %q: sync BN strategy needs replicas > 1", s.Name)
		}
		if !sc.Options().MVF {
			return fmt.Errorf("scenario %q: sync BN strategy needs MVF statistics (restructure rcf+mvf, bnff, or bnff+icf; got %q)", s.Name, s.Restructure)
		}
	}
	if s.Steps == 0 {
		s.Steps = 5
	}
	if s.Steps < 1 {
		return fmt.Errorf("scenario %q: steps %d must be positive", s.Name, s.Steps)
	}
	if s.LR == 0 {
		s.LR = 0.01
	}
	if !(s.LR > 0) || math.IsInf(s.LR, 1) {
		return fmt.Errorf("scenario %q: lr %v must be finite and positive", s.Name, s.LR)
	}
	if s.Schedule == "" {
		s.Schedule = "constant"
	}
	switch s.Schedule {
	case "constant", "step", "cosine":
	default:
		return fmt.Errorf("scenario %q: unknown schedule %q (want constant, step, or cosine)", s.Name, s.Schedule)
	}
	return nil
}

// knownModel reports whether the models registry has name.
func knownModel(name string) bool {
	for _, n := range models.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// CoreScenario returns the restructuring configuration the spec names.
// The spec must be normalized.
func (s Spec) CoreScenario() (core.Scenario, error) {
	return core.ParseScenario(s.Restructure)
}
