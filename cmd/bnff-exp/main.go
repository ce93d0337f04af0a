// bnff-exp executes declarative experiment grids and emits the paper's
// machine-readable training evidence. A grid (scripts/paper/experiments.json,
// or the built-in default) lists training scenarios as scenario.Specs;
// bnff-exp runs each one Repeats times under an injected clock, evaluates the
// check each spec embeds (bit-identical repeats: same final loss, same
// trained-parameter checkpoint), aggregates min/median/mean/max across
// repeats, and writes BENCH_train.json. Its non-timing fields are
// byte-deterministic: two runs of the same grid differ only in
// timing-flagged aggregates.
//
// Usage:
//
//	bnff-exp                                  # built-in grid, full run
//	bnff-exp -grid scripts/paper/experiments.json -out .
//	bnff-exp -smoke                           # the grid's smoke subset
//	bnff-exp -only train/tiny-cnn/bnff        # one scenario
//	bnff-exp -write-grid                      # regenerate experiments.json
//	bnff-exp -validate BENCH_train.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bnff/internal/experiments"
	"bnff/internal/obs"
	"bnff/internal/scenario"
)

// defaultGridPath is where -write-grid puts the canonical grid and where
// scripts/paper/run_all.sh reads it from.
const defaultGridPath = "scripts/paper/experiments.json"

func main() {
	// -h has printed its usage already; like flag.ExitOnError, it succeeds.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "bnff-exp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bnff-exp", flag.ContinueOnError)
	gridPath := fs.String("grid", "", "experiment grid JSON (empty: the built-in default grid)")
	out := fs.String("out", ".", "directory to write BENCH_train.json into")
	smoke := fs.Bool("smoke", false, "run only the grid's smoke subset and mark the BENCH file as smoke")
	clockKind := fs.String("clock", "wall", "measurement clock: wall (real time) or step (deterministic fake)")
	only := fs.String("only", "", "comma-separated scenario names to run (empty: every selected scenario)")
	writeGrid := fs.Bool("write-grid", false, fmt.Sprintf("write the built-in grid to -grid (default %s) and exit", defaultGridPath))
	validate := fs.String("validate", "", "comma-separated BENCH_train.json paths to validate and exit")
	canon := fs.String("canon", "", "print the canonical (timing-stripped) form of a BENCH_train.json file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	switch {
	case *validate != "":
		return validateFiles(stdout, strings.Split(*validate, ","))
	case *canon != "":
		f, err := experiments.ReadBenchFile(*canon)
		if err != nil {
			return err
		}
		b, err := f.Canonical().MarshalCanonicalJSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	case *writeGrid:
		path := *gridPath
		if path == "" {
			path = defaultGridPath
		}
		return emitGrid(stdout, path)
	}

	grid, err := loadGrid(*gridPath)
	if err != nil {
		return err
	}
	clock, err := obs.ParseClock(*clockKind)
	if err != nil {
		return err
	}
	specs, err := selectSpecs(grid, *smoke, *only)
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("selection matches no scenarios")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	f := &experiments.BenchFile{
		SchemaVersion: experiments.BenchSchemaVersion,
		Clock:         *clockKind,
		Smoke:         *smoke,
	}
	for _, sp := range specs {
		fmt.Fprintf(os.Stderr, "bnff-exp: %s (%d repeats)\n", sp.Name, sp.Repeats)
		bs, err := runTrain(clock, sp)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		for _, c := range bs.Checks {
			status := "ok"
			if !c.Pass {
				status = "FAIL: " + c.Detail
			}
			fmt.Fprintf(os.Stderr, "bnff-exp:   check %s: %s\n", c.Name, status)
		}
		f.Scenarios = append(f.Scenarios, bs)
	}
	path := filepath.Join(*out, "BENCH_train.json")
	if err := f.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d scenarios)\n", path, len(f.Scenarios))
	return nil
}

// selectSpecs resolves the grid + -smoke + -only into the specs to run,
// sorted by name (the order BENCH files require).
func selectSpecs(grid *scenario.Grid, smoke bool, only string) ([]scenario.Spec, error) {
	reg, err := grid.Registry()
	if err != nil {
		return nil, err
	}
	names := reg.Names()
	if smoke {
		names = append([]string(nil), grid.Smoke...)
	}
	if only != "" {
		var keep []string
		for _, name := range strings.Split(only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := reg.Get(name); !ok {
				return nil, fmt.Errorf("unknown scenario %q (grid has %v)", name, reg.Names())
			}
			keep = append(keep, name)
		}
		names = keep
	}
	sort.Strings(names)
	var specs []scenario.Spec
	for _, name := range names {
		sp, ok := reg.Get(name)
		if !ok {
			return nil, fmt.Errorf("smoke entry %q not in grid", name)
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

func loadGrid(path string) (*scenario.Grid, error) {
	if path == "" {
		return scenario.DefaultGrid(), nil
	}
	return scenario.LoadGrid(path)
}

func emitGrid(stdout io.Writer, path string) error {
	b, err := scenario.DefaultGrid().MarshalCanonical()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

func validateFiles(stdout io.Writer, paths []string) error {
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := experiments.ReadBenchFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: ok (clock=%s, %d scenarios, smoke=%t)\n",
			path, f.Clock, len(f.Scenarios), f.Smoke)
	}
	return nil
}

// digestOf fingerprints a trained-parameter checkpoint for cross-repeat and
// cross-run comparison.
func digestOf(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}
