// Package scenario is the declarative experiment layer: a Spec names one
// reproducible training run (model × restructuring × batch/workers/replicas)
// with validation-with-defaults in Normalize, a deterministic sorted-name
// registry, and JSON (de)serialization so whole grids live in
// scripts/paper/experiments.json. cmd/bnff-exp executes grids and emits the
// BENCH_train.json evidence file; cmd/bnff-train and cmd/bnff-profile resolve
// their flags onto a Spec (Resolve) instead of carrying private
// flag→executor wiring.
package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"bnff/internal/core"
	"bnff/internal/ddp"
	"bnff/internal/models"
	"bnff/internal/parallel"
)

// Spec declares one training scenario. The zero value is not runnable;
// Normalize fills defaults and validates, and every consumer (registry,
// grid, builders) normalizes before use. Fields: Name, Model (a models
// registry name), Restructure (a core.Scenario name, canonicalized
// lowercase), Workers, Seed, Repeats, Replicas (data-parallel replicas,
// default 1), Batch, Steps, LR, Schedule, and BNStrategy (local|sync, default
// local; sync requires replicas > 1 and an MVF restructuring).
type Spec struct {
	Name        string  `json:"name"`
	Model       string  `json:"model"`
	Restructure string  `json:"restructure,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	Repeats     int     `json:"repeats,omitempty"`
	Replicas    int     `json:"replicas,omitempty"`
	Batch       int     `json:"batch,omitempty"`
	Steps       int     `json:"steps,omitempty"`
	LR          float64 `json:"lr,omitempty"`
	Schedule    string  `json:"schedule,omitempty"`
	BNStrategy  string  `json:"bn_strategy,omitempty"`
}

// Normalize fills defaults in place and validates the result. It is
// idempotent: normalizing a normalized spec changes nothing, which is what
// keeps the JSON round trip byte-stable.
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
	if s.Repeats == 0 {
		s.Repeats = 3
	}
	if s.Repeats < 1 {
		return fmt.Errorf("scenario %q: repeats %d must be positive", s.Name, s.Repeats)
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
	if s.LR < 0 {
		return fmt.Errorf("scenario %q: lr %v must be positive", s.Name, s.LR)
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

// Checks lists the embedded assertions an experiment runner must evaluate
// for this scenario, in fixed order: a training run promises bit-identical
// repeats (same seed, same data, same trajectory).
func (s Spec) Checks() []string {
	return []string{"bit-identical-repeats"}
}

// MarshalCanonical renders the spec as its canonical indented JSON —
// normalized field values, fixed field order, trailing newline — the byte
// form grids and BENCH files embed.
func (s Spec) MarshalCanonical() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
