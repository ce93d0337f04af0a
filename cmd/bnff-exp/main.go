// bnff-exp executes declarative experiment grids and emits the paper's
// machine-readable evidence files. A grid (scripts/paper/experiments.json, or
// the built-in default) lists training and serving scenarios as
// scenario.Specs; bnff-exp runs each one Repeats times under an injected
// clock, evaluates the checks the spec embeds (bit-identical training
// repeats, serve logits bit-matching a batch-1 reference, overload shedding,
// replica-crash recovery, checkpoint survival of a failed save), aggregates
// min/median/mean/max across repeats, and writes BENCH_train.json and
// BENCH_serve.json. Non-timing fields of those files are byte-deterministic:
// two runs of the same grid differ only in timing-flagged aggregates.
//
// Usage:
//
//	bnff-exp                                  # built-in grid, full run
//	bnff-exp -grid scripts/paper/experiments.json -out .
//	bnff-exp -smoke                           # the grid's smoke subset
//	bnff-exp -only serve/tiny-densenet/overload    # one scenario
//	bnff-exp -write-grid                      # regenerate experiments.json
//	bnff-exp -validate BENCH_train.json,BENCH_serve.json
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
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
	gridPath := flag.String("grid", "", "experiment grid JSON (empty: the built-in default grid)")
	out := flag.String("out", ".", "directory to write BENCH_train.json / BENCH_serve.json into")
	smoke := flag.Bool("smoke", false, "run only the grid's smoke subset and mark the BENCH files as smoke")
	clockKind := flag.String("clock", "wall", "measurement clock: wall (real time) or step (deterministic fake)")
	only := flag.String("only", "", "comma-separated scenario names to run (empty: every selected scenario)")
	writeGrid := flag.Bool("write-grid", false, fmt.Sprintf("write the built-in grid to -grid (default %s) and exit", defaultGridPath))
	validate := flag.String("validate", "", "comma-separated BENCH_*.json paths to validate and exit")
	canon := flag.String("canon", "", "print the canonical (timing-stripped) form of a BENCH_*.json file and exit")
	flag.Parse()

	if err := run(*gridPath, *out, *clockKind, *only, *smoke, *writeGrid, *validate, *canon); err != nil {
		fmt.Fprintln(os.Stderr, "bnff-exp:", err)
		os.Exit(1)
	}
}

func run(gridPath, out, clockKind, only string, smoke, writeGrid bool, validate, canon string) error {
	if validate != "" {
		return validateFiles(strings.Split(validate, ","))
	}
	if canon != "" {
		f, err := experiments.ReadBenchFile(canon)
		if err != nil {
			return err
		}
		b, err := f.Canonical().MarshalCanonicalJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	if writeGrid {
		path := gridPath
		if path == "" {
			path = defaultGridPath
		}
		return emitGrid(path)
	}

	grid, err := loadGrid(gridPath)
	if err != nil {
		return err
	}
	clock, err := obs.ParseClock(clockKind)
	if err != nil {
		return err
	}
	train, serve, err := selectSpecs(grid, smoke, only)
	if err != nil {
		return err
	}
	if len(train)+len(serve) == 0 {
		return fmt.Errorf("selection matches no scenarios")
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	r := &runner{clock: clock, ckpts: map[string][]byte{}}
	if err := runArea(r, experiments.AreaTrain, clockKind, smoke, train,
		filepath.Join(out, "BENCH_train.json")); err != nil {
		return err
	}
	return runArea(r, experiments.AreaServe, clockKind, smoke, serve,
		filepath.Join(out, "BENCH_serve.json"))
}

// runArea executes one kind's scenarios in sorted-name order and writes the
// area's BENCH file. An empty selection (e.g. -only naming a single serve
// scenario) skips the file rather than writing an empty one.
func runArea(r *runner, area, clockKind string, smoke bool, specs []scenario.Spec, path string) error {
	if len(specs) == 0 {
		fmt.Fprintf(os.Stderr, "bnff-exp: no %s scenarios selected; skipping %s\n", area, path)
		return nil
	}
	f := &experiments.BenchFile{
		SchemaVersion: experiments.BenchSchemaVersion,
		Area:          area,
		Clock:         clockKind,
		Smoke:         smoke,
	}
	for _, sp := range specs {
		fmt.Fprintf(os.Stderr, "bnff-exp: %s (%d repeats)\n", sp.Name, sp.Repeats)
		var (
			bs  experiments.BenchScenario
			err error
		)
		if area == experiments.AreaTrain {
			bs, err = r.runTrain(sp)
		} else {
			bs, err = r.runServe(sp)
		}
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
	if err := f.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d scenarios)\n", path, len(f.Scenarios))
	return nil
}

// selectSpecs resolves the grid + -smoke + -only into per-kind spec lists,
// sorted by name (the order BENCH files require).
func selectSpecs(grid *scenario.Grid, smoke bool, only string) (train, serve []scenario.Spec, err error) {
	reg, err := grid.Registry()
	if err != nil {
		return nil, nil, err
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
				return nil, nil, fmt.Errorf("unknown scenario %q (grid has %v)", name, reg.Names())
			}
			keep = append(keep, name)
		}
		names = keep
	}
	sort.Strings(names)
	for _, name := range names {
		sp, ok := reg.Get(name)
		if !ok {
			return nil, nil, fmt.Errorf("smoke entry %q not in grid", name)
		}
		if sp.Kind == scenario.KindTrain {
			train = append(train, sp)
		} else {
			serve = append(serve, sp)
		}
	}
	return train, serve, nil
}

func loadGrid(path string) (*scenario.Grid, error) {
	if path == "" {
		return scenario.DefaultGrid(), nil
	}
	return scenario.LoadGrid(path)
}

func emitGrid(path string) error {
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
	fmt.Printf("wrote %s\n", path)
	return nil
}

func validateFiles(paths []string) error {
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := experiments.ReadBenchFile(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: ok (%s, clock=%s, %d scenarios, smoke=%t)\n",
			path, f.Area, f.Clock, len(f.Scenarios), f.Smoke)
	}
	return nil
}

// runner carries the run-wide caches: one serve checkpoint per (model, seed)
// regardless of how many scenarios and repeats reuse it.
type runner struct {
	clock func() int64
	ckpts map[string][]byte
}

// digestOf fingerprints deterministic outputs (checkpoint images, reference
// logits) for cross-repeat and cross-run comparison.
func digestOf(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}
