package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"bnff/internal/obs"
	"bnff/internal/scenario"
)

// validBench builds a minimal valid train BENCH file from the builtin
// registry so the test tracks spec evolution instead of freezing a copy.
func validBench(t *testing.T) *BenchFile {
	t.Helper()
	reg := scenario.Builtin()
	var scs []BenchScenario
	for _, sp := range reg.Specs() {
		var checks []BenchCheck
		for _, name := range sp.Checks() {
			checks = append(checks, BenchCheck{Name: name, Pass: true})
		}
		scs = append(scs, BenchScenario{
			Name:    sp.Name,
			Spec:    sp,
			Repeats: sp.Repeats,
			Digest:  "fnv1a:0000000000000000",
			Checks:  checks,
			Metrics: []BenchMetric{
				{Name: "final_loss", Unit: "loss", Agg: obs.Agg{N: 3, Min: 1, Median: 1, Mean: 1, Max: 1}},
				{Name: "train_time", Unit: "ns", Timing: true, Agg: obs.Agg{N: 3, Min: 5, Median: 6, Mean: 6, Max: 7}},
			},
		})
	}
	return &BenchFile{
		SchemaVersion: BenchSchemaVersion,
		Clock:         ClockStep,
		Scenarios:     scs,
	}
}

func TestBenchValidateAccepts(t *testing.T) {
	if err := validBench(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBenchValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*BenchFile)
		want string
	}{
		{"bad version", func(f *BenchFile) { f.SchemaVersion = 99 }, "schema_version"},
		{"bad clock", func(f *BenchFile) { f.Clock = "sun" }, "unknown clock"},
		{"empty", func(f *BenchFile) { f.Scenarios = nil }, "no scenarios"},
		{"unsorted", func(f *BenchFile) {
			f.Scenarios[0], f.Scenarios[1] = f.Scenarios[1], f.Scenarios[0]
		}, "sorted order"},
		{"name mismatch", func(f *BenchFile) { f.Scenarios[0].Name = "zzz" }, "wraps spec named"},
		{"not normalized", func(f *BenchFile) { f.Scenarios[0].Spec.Batch = 0 }, "not normalized"},
		{"invalid spec", func(f *BenchFile) { f.Scenarios[0].Spec.Model = "no-such-model" }, "unknown model"},
		{"repeats mismatch", func(f *BenchFile) { f.Scenarios[0].Repeats = 7 }, "repeats"},
		{"too few repeats", func(f *BenchFile) {
			f.Scenarios[0].Spec.Repeats = 2
			f.Scenarios[0].Repeats = 2
		}, "at least 3"},
		{"missing check", func(f *BenchFile) { f.Scenarios[0].Checks = nil }, "promises"},
		{"wrong check name", func(f *BenchFile) { f.Scenarios[0].Checks[0].Name = "vibes" }, "promises"},
		{"failed check", func(f *BenchFile) {
			f.Scenarios[0].Checks[0].Pass = false
			f.Scenarios[0].Checks[0].Detail = "digest drift"
		}, "failed check"},
		{"unnamed metric", func(f *BenchFile) { f.Scenarios[0].Metrics[0].Name = "" }, "unnamed metric"},
	}
	for _, tc := range cases {
		f := validBench(t)
		tc.mut(f)
		err := f.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestBenchSmokeAllowsFewRepeats(t *testing.T) {
	f := validBench(t)
	f.Smoke = true
	f.Scenarios[0].Spec.Repeats = 2
	f.Scenarios[0].Repeats = 2
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBenchCanonicalStripsTimingOnly(t *testing.T) {
	f := validBench(t)
	c := f.Canonical()
	for _, bs := range c.Scenarios {
		for _, mt := range bs.Metrics {
			if mt.Timing && mt.Agg != (obs.Agg{}) {
				t.Errorf("%s/%s: timing agg survived canonicalization", bs.Name, mt.Name)
			}
			if !mt.Timing && mt.Agg == (obs.Agg{}) {
				t.Errorf("%s/%s: non-timing agg was stripped", bs.Name, mt.Name)
			}
		}
	}
	// Canonical must not mutate the original.
	for _, bs := range f.Scenarios {
		for _, mt := range bs.Metrics {
			if mt.Timing && mt.Agg == (obs.Agg{}) {
				t.Fatal("Canonical mutated the source file")
			}
		}
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	f := validBench(t)
	path := filepath.Join(t.TempDir(), "BENCH_train.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.MarshalCanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.MarshalCanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("write/read round trip changed the canonical bytes")
	}
}
