package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"bnff/internal/obs"
	"bnff/internal/scenario"
)

// BENCH_train.json is the machine-readable evidence a paper run leaves behind:
// for every training scenario executed, the normalized spec, the pass/fail verdict of each embedded check, and the
// min/median/mean/max aggregate of every metric across repeats. Timing
// metrics are flagged so the canonical form — the byte-deterministic subset —
// can strip them; everything else in the file is a pure function of the grid
// and the seeds.

// BenchSchemaVersion is bumped whenever the BENCH file layout changes
// incompatibly; readers reject files from another version. Version 2 dropped
// the file's area and the embedded spec's kind.
const BenchSchemaVersion = 2

// The injected-clock modes a run records.
const (
	ClockWall = "wall"
	ClockStep = "step"
)

// BenchCheck is one embedded assertion's verdict.
type BenchCheck struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// BenchMetric is one aggregated measurement. Timing marks metrics whose
// values depend on the clock or the scheduler; Canonical zeroes their
// aggregates so the rest of the file is byte-deterministic across runs.
type BenchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Timing bool    `json:"timing,omitempty"`
	Agg    obs.Agg `json:"agg"`
}

// BenchScenario is one executed scenario: its normalized spec, a digest of
// the deterministic output (the trained-parameter checkpoint), the
// check verdicts, and the metric aggregates.
type BenchScenario struct {
	Name    string        `json:"name"`
	Spec    scenario.Spec `json:"spec"`
	Repeats int           `json:"repeats"`
	Digest  string        `json:"digest,omitempty"`
	Checks  []BenchCheck  `json:"checks"`
	Metrics []BenchMetric `json:"metrics"`
}

// BenchFile is one BENCH_train.json document.
type BenchFile struct {
	SchemaVersion int             `json:"schema_version"`
	Clock         string          `json:"clock"`
	Smoke         bool            `json:"smoke,omitempty"`
	Scenarios     []BenchScenario `json:"scenarios"`
}

// Validate checks the document's invariants: matching schema version, known
// clock, scenarios sorted by unique name, every spec normalized, repeats at least 3 in a full (non-smoke) run,
// and the check list exactly the one the spec promises — every check passing.
func (f *BenchFile) Validate() error {
	if f.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("bench: schema_version %d, this build reads %d", f.SchemaVersion, BenchSchemaVersion)
	}
	if f.Clock != ClockWall && f.Clock != ClockStep {
		return fmt.Errorf("bench: unknown clock %q (want %s or %s)", f.Clock, ClockWall, ClockStep)
	}
	if len(f.Scenarios) == 0 {
		return fmt.Errorf("bench: file has no scenarios")
	}
	prev := ""
	for i := range f.Scenarios {
		bs := &f.Scenarios[i]
		if bs.Name <= prev {
			return fmt.Errorf("bench: scenario %q out of sorted order (after %q)", bs.Name, prev)
		}
		prev = bs.Name
		if err := f.validateScenario(bs); err != nil {
			return err
		}
	}
	return nil
}

func (f *BenchFile) validateScenario(bs *BenchScenario) error {
	if bs.Name != bs.Spec.Name {
		return fmt.Errorf("bench: scenario %q wraps spec named %q", bs.Name, bs.Spec.Name)
	}
	norm := bs.Spec
	if err := norm.Normalize(); err != nil {
		return fmt.Errorf("bench: scenario %q: %w", bs.Name, err)
	}
	if norm != bs.Spec {
		return fmt.Errorf("bench: scenario %q: embedded spec is not normalized", bs.Name)
	}
	if bs.Repeats != bs.Spec.Repeats {
		return fmt.Errorf("bench: scenario %q ran %d repeats, spec asks for %d", bs.Name, bs.Repeats, bs.Spec.Repeats)
	}
	if !f.Smoke && bs.Repeats < 3 {
		return fmt.Errorf("bench: scenario %q has %d repeats; full runs need at least 3", bs.Name, bs.Repeats)
	}
	want := bs.Spec.Checks()
	if len(bs.Checks) != len(want) {
		return fmt.Errorf("bench: scenario %q records %d checks, spec promises %d", bs.Name, len(bs.Checks), len(want))
	}
	for i, c := range bs.Checks {
		if c.Name != want[i] {
			return fmt.Errorf("bench: scenario %q check %d is %q, spec promises %q", bs.Name, i, c.Name, want[i])
		}
		if !c.Pass {
			return fmt.Errorf("bench: scenario %q failed check %q: %s", bs.Name, c.Name, c.Detail)
		}
	}
	for _, mt := range bs.Metrics {
		if mt.Name == "" {
			return fmt.Errorf("bench: scenario %q has an unnamed metric", bs.Name)
		}
	}
	return nil
}

// Canonical returns a deep copy with every timing metric's aggregate zeroed.
// Two runs of the same grid at the same seeds produce byte-identical
// canonical forms; only the stripped timing aggregates may differ.
func (f *BenchFile) Canonical() *BenchFile {
	out := *f
	out.Scenarios = make([]BenchScenario, len(f.Scenarios))
	for i, bs := range f.Scenarios {
		cp := bs
		cp.Checks = append([]BenchCheck(nil), bs.Checks...)
		cp.Metrics = append([]BenchMetric(nil), bs.Metrics...)
		for j := range cp.Metrics {
			if cp.Metrics[j].Timing {
				cp.Metrics[j].Agg = obs.Agg{}
			}
		}
		out.Scenarios[i] = cp
	}
	return &out
}

// MarshalCanonicalJSON renders the file as indented JSON with a trailing
// newline, HTML escaping off — the committed byte form.
func (f *BenchFile) MarshalCanonicalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile validates the document and writes its canonical JSON to path.
func (f *BenchFile) WriteFile(path string) error {
	if err := f.Validate(); err != nil {
		return err
	}
	b, err := f.MarshalCanonicalJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadBenchFile parses and validates a BENCH_train.json document.
func ReadBenchFile(path string) (*BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f BenchFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}
