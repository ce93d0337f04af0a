package main

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
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

func TestPaperTable1(t *testing.T) {
	out := runOut(t, "paper", "-exp", "table1")
	if !strings.HasPrefix(out, "== table1:") || !strings.Contains(out, "Skylake") {
		t.Errorf("paper -exp table1 output:\n%s", out)
	}
	csv := runOut(t, "paper", "-exp", "table1", "-format", "csv")
	if !strings.HasPrefix(csv, "experiment,metric,measured,paper,unit\n") {
		t.Errorf("csv header missing:\n%s", csv)
	}
}

func TestGraphVerb(t *testing.T) {
	full := runOut(t, "graph", "-model", "tiny-cnn", "-batch", "2")
	if !strings.Contains(full, "per-class totals:") || !strings.Contains(full, "\nforward ") ||
		!strings.Contains(full, "\nbackward ") {
		t.Errorf("graph table output:\n%s", full)
	}
	summary := runOut(t, "graph", "-model", "tiny-cnn", "-batch", "2", "-summary")
	if !strings.Contains(summary, "per-class totals:") || strings.Contains(summary, "\nforward ") {
		t.Errorf("graph -summary output:\n%s", summary)
	}
	if dot := runOut(t, "graph", "-model", "tiny-cnn", "-batch", "2", "-dot"); !strings.HasPrefix(dot, "digraph") {
		t.Errorf("graph -dot output does not start a digraph:\n%s", dot)
	}
	// A tiny model's sweeps are kilobytes and its FLOPs megaFLOPs: the
	// totals must not round to 0, and BNFF must sweep fewer bytes than the
	// baseline.
	base, baseFLOPs := graphTotals(t, runOut(t, "graph", "-model", "tiny-cnn", "-restructure", "baseline", "-batch", "16", "-summary"))
	bnff, bnffFLOPs := graphTotals(t, runOut(t, "graph", "-model", "tiny-cnn", "-restructure", "bnff", "-batch", "16", "-summary"))
	if bnff <= 0 || base <= bnff {
		t.Errorf("tiny-cnn swept MB: baseline %g, bnff %g; want baseline > bnff > 0", base, bnff)
	}
	if baseFLOPs <= 0 || bnffFLOPs <= 0 {
		t.Errorf("tiny-cnn GFLOPs: baseline %g, bnff %g; want both > 0", baseFLOPs, bnffFLOPs)
	}
}

// graphTotals reads the swept MB and the GFLOPs of the total row of the
// graph verb's per-class totals.
func graphTotals(t *testing.T, out string) (mb, gflops float64) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 6 && f[0] == "total" && f[2] == "MB" && f[5] == "GFLOPs" {
			var err1, err2 error
			mb, err1 = strconv.ParseFloat(f[1], 64)
			gflops, err2 = strconv.ParseFloat(f[4], 64)
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
			return mb, gflops
		}
	}
	t.Fatalf("no total row in:\n%s", out)
	return 0, 0
}

// -dir used to fall through to "both" for any value but forward/backward, so
// a typo listed every pass.
func TestGraphDirRejectsUnknownPass(t *testing.T) {
	for _, dir := range []string{"bwd", "fwd", ""} {
		if err := run([]string{"graph", "-model", "tiny-cnn", "-batch", "2", "-dir", dir}, &bytes.Buffer{}); err == nil {
			t.Errorf("-dir %q accepted", dir)
		}
	}
	bwd := runOut(t, "graph", "-model", "tiny-cnn", "-batch", "2", "-dir", "backward")
	if strings.Contains(bwd, "\nforward ") || !strings.Contains(bwd, "\nbackward ") {
		t.Errorf("-dir backward output:\n%s", bwd)
	}
}

func TestCacheVerb(t *testing.T) {
	out := runOut(t, "cache", "-model", "tiny-cnn", "-batch", "4")
	if !strings.Contains(out, "cache-sim replay") || !strings.Contains(out, "(ratio ") {
		t.Errorf("cache output lacks the ratio line:\n%s", out)
	}
}

func TestUnknownVerbAndStrayArgs(t *testing.T) {
	if err := run([]string{"inspect"}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown verb") {
		t.Errorf("unknown verb: err %v", err)
	}
	if err := run([]string{"graph", "-model", "tiny-cnn", "cache"}, &bytes.Buffer{}); err == nil {
		t.Error("argument after the flags accepted")
	}
	if err := run([]string{"graph", "-scenario", "bnff"}, &bytes.Buffer{}); err == nil {
		t.Error("graph accepted -scenario; it takes -restructure")
	}
}

// The measured run refuses an explicit zero with the flag's name rather than
// profiling the spec's default in its place (Normalize fills zero fields).
func TestMeasuredRejectsExplicitNonPositive(t *testing.T) {
	for _, flagName := range []string{"batch", "steps", "workers"} {
		for _, v := range []string{"0", "-1"} {
			args := []string{"-model", "tiny-cnn", "-batch", "2", "-steps", "1", "-trace", "", "-" + flagName, v}
			if err := run(args, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-"+flagName) {
				t.Errorf("%v: err = %v, want a -%s error", args, err, flagName)
			}
		}
	}
}
