package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bnff/internal/experiments"
)

// The committed files this command generates and checks, relative to the
// package directory.
const (
	committedBench = "../../BENCH_train.json"
	committedGrid  = "../../" + defaultGridPath
)

// runOut runs the command with args and returns its stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.String()
}

// One scenario run under the step clock writes a valid BENCH file whose
// digest — the trained checkpoint's — is the committed one: the training
// trajectory gate, in go test.
func TestOnlyScenarioMatchesCommittedDigest(t *testing.T) {
	const name = "train/tiny-cnn/bnff"
	dir := t.TempDir()
	out := runOut(t, "-only", name, "-clock", "step", "-out", dir)
	path := filepath.Join(dir, "BENCH_train.json")
	if !strings.Contains(out, path) {
		t.Errorf("output does not name %s:\n%s", path, out)
	}
	got, err := experiments.ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Scenarios) != 1 || got.Scenarios[0].Name != name || got.Clock != experiments.ClockStep {
		t.Fatalf("wrote %d scenarios, clock %s; want only %s under the step clock", len(got.Scenarios), got.Clock, name)
	}
	want, err := experiments.ReadBenchFile(committedBench)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range want.Scenarios {
		if bs.Name == name {
			if got.Scenarios[0].Digest != bs.Digest {
				t.Errorf("digest %s, committed %s", got.Scenarios[0].Digest, bs.Digest)
			}
			return
		}
	}
	t.Errorf("committed BENCH_train.json has no %s row", name)
}

func TestValidateAcceptsCommittedBench(t *testing.T) {
	if out := runOut(t, "-validate", committedBench); !strings.Contains(out, ": ok (") {
		t.Errorf("-validate output: %s", out)
	}
	var out bytes.Buffer
	if err := run([]string{"-validate", filepath.Join(t.TempDir(), "missing.json")}, &out); err == nil {
		t.Error("-validate accepted a missing file")
	}
}

// The committed grid is exactly what -write-grid renders from the builtin
// registry; a drifted checkin would silently change what the paper's grid
// means. Regenerate with: go run ./cmd/bnff-exp -write-grid
func TestWriteGridReproducesCommittedGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "experiments.json")
	runOut(t, "-write-grid", "-grid", path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(committedGrid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is stale: regenerate with `go run ./cmd/bnff-exp -write-grid`", defaultGridPath)
	}
}

func TestRejectsStrayArgumentsAndUnknownScenarios(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"train"}, &out); err == nil {
		t.Error("stray argument accepted")
	}
	if err := run([]string{"-only", "train/no-such", "-out", t.TempDir()}, &out); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown -only scenario: err %v", err)
	}
}
