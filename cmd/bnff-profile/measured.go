package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"bnff/internal/core"
	"bnff/internal/experiments"
	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/memplan"
	"bnff/internal/memsim"
	"bnff/internal/models"
	"bnff/internal/obs"
	"bnff/internal/scenario"
	"bnff/internal/train"
)

// runMeasured measures where training time actually goes and compares it
// with the machine model's prediction. For each restructuring scenario it
// runs real traced training steps on a scaled model, prints the
// paper-Figure-1-style layer breakdown (measured share next to the memsim
// modeled share), and writes measured and modeled Chrome traces that load
// side by side in chrome://tracing or ui.perfetto.dev:
//
//	<prefix>.<scenario>.trace.json        measured spans
//	<prefix>.<scenario>.model.trace.json  memsim prediction
func runMeasured(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bnff-profile", flag.ContinueOnError)
	scenName := fs.String("scenario", "", "start from this builtin train scenario; set flags override its fields")
	model := fs.String("model", "tiny-densenet", fmt.Sprintf("model: one of %v", models.Names()))
	batch := fs.Int("batch", 16, "mini-batch size")
	steps := fs.Int("steps", 1, "traced training steps per scenario")
	workers := fs.Int("workers", 1, "worker goroutines per executor")
	tracePfx := fs.String("trace", "bnff-profile", "path prefix for Chrome trace files (empty: no files)")
	clock := fs.String("clock", "wall", "span clock: wall (real time) or step (deterministic fake)")
	seed := fs.Uint64("seed", 42, "parameter and data seed")
	if err := parse(fs, args); err != nil {
		return err
	}

	// The profile sweeps every restructuring itself, so the spec's own
	// Restructure field is overwritten per scenario.
	sp, err := scenario.Resolve(*scenName, scenario.Spec{
		Name:    "cli/profile",
		Model:   *model,
		Batch:   *batch,
		Steps:   *steps,
		Workers: *workers,
		Seed:    *seed,
	}, func(sp *scenario.Spec) {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "model":
				sp.Model = *model
			case "batch":
				sp.Batch = *batch
			case "steps":
				sp.Steps = *steps
			case "workers":
				sp.Workers = *workers
			case "seed":
				sp.Seed = *seed
			}
		})
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "model=%s batch=%d steps=%d workers=%d clock=%s lanes=%s machine=Skylake\n\n",
		sp.Model, sp.Batch, sp.Steps, sp.Workers, *clock, layers.Body())
	var results []scenarioResult
	for _, sc := range core.Scenarios() {
		spScen := sp
		spScen.Restructure = strings.ToLower(sc.String())
		res, err := profileScenario(stdout, spScen, sc, *tracePfx, *clock)
		if err != nil {
			return fmt.Errorf("%v: %w", sc, err)
		}
		results = append(results, res)

		fmt.Fprintf(stdout, "== %v ==\n", sc)
		if err := res.measured.WriteTable(stdout, res.modeled); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "measured %.1f ms over %d step(s); model predicts %.3f ms/iteration\n\n",
			float64(res.measured.TotalNs)/1e6, sp.Steps, res.modelSec*1e3)
	}
	summarize(stdout, results)
	return nil
}

// scenarioResult is one scenario's measured and modeled outcome.
type scenarioResult struct {
	scenario  core.Scenario
	measured  obs.Breakdown
	modeled   map[string]float64 // share of modeled iteration time per class
	modelSec  float64            // memsim total iteration seconds
	arenaPeak int64              // measured arena peak bytes
	arenaHeld int64              // bytes the arena holds at the end, checked out or free
	planPeak  int64              // memplan's predicted activation peak bytes
}

func profileScenario(stdout io.Writer, sp scenario.Spec, sc core.Scenario, tracePfx, clockKind string) (scenarioResult, error) {
	report, err := experiments.Simulate(sp.Model, sp.Batch, sc, memsim.Skylake())
	if err != nil {
		return scenarioResult{}, err
	}
	res := scenarioResult{
		scenario: sc,
		modeled:  modeledShares(report),
		modelSec: report.Total(),
	}

	clk, err := obs.ParseClock(clockKind)
	if err != nil {
		return scenarioResult{}, err
	}
	tracer := obs.NewTracer(clk)
	// Predicted peak comes from the same intervals the arena's release table
	// is compiled from, so measured-vs-planned is apples to apples.
	plan, err := memplan.PlanTraining(report.Graph)
	if err != nil {
		return scenarioResult{}, err
	}
	res.planPeak = plan.PeakBytes
	tr, err := sp.NewTrainer(train.WithTracer(tracer))
	if err != nil {
		return scenarioResult{}, err
	}
	if _, err := tr.Run(sp.Steps); err != nil {
		return scenarioResult{}, err
	}
	res.measured = obs.LayerBreakdown(tracer.Spans())
	st := tr.Exec.ArenaStats()
	res.arenaPeak, res.arenaHeld = st.PeakBytes, st.HeldBytes

	if tracePfx != "" {
		measured := fmt.Sprintf("%s.%s.trace.json", tracePfx, fileScenario(sc))
		modeled := fmt.Sprintf("%s.%s.model.trace.json", tracePfx, fileScenario(sc))
		if err := writeFile(measured, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, tracer.Spans(), 1)
		}); err != nil {
			return scenarioResult{}, err
		}
		if err := writeFile(modeled, report.ChromeTrace); err != nil {
			return scenarioResult{}, err
		}
		fmt.Fprintf(stdout, "traces: %s, %s\n", measured, modeled)
	}
	return res, nil
}

// modeledShares converts a memsim report into per-class time shares keyed
// like the measured breakdown (graph.LayerClass names).
func modeledShares(r *memsim.Report) map[string]float64 {
	total := r.Total()
	out := make(map[string]float64)
	if total == 0 {
		return out
	}
	for cls, t := range r.TimeByClass() {
		out[cls.String()] = t / total
	}
	return out
}

// fileScenario flattens a scenario name for a filename ("BNFF+ICF" →
// "bnff-icf").
func fileScenario(s core.Scenario) string {
	return strings.ReplaceAll(strings.ToLower(s.String()), "+", "-")
}

// summarize prints the cross-scenario table the paper's Figure 1 motivates:
// how much of the iteration is not convolution, measured vs modeled, and how
// far restructuring shrinks it relative to the baseline.
func summarize(w io.Writer, results []scenarioResult) {
	convName := graph.ClassConv.String()
	nonConv := func(r scenarioResult) (measured, modeled float64) {
		measured = 1 - r.measured.ShareOf(convName)
		var convShare float64
		for _, row := range obs.CompareShares(nil, r.modeled) {
			if row.Cat == convName {
				convShare = row.Modeled
			}
		}
		return measured, 1 - convShare
	}

	// shareGap is the total-variation distance between the measured and
	// modeled per-class share distributions (Σ|measured−modeled|/2): 0 means
	// the measured breakdown matches the roofline model exactly, 1 means
	// disjoint. The blocked-kernel work tracks this converging toward 0.
	shareGap := func(r scenarioResult) float64 {
		var gap float64
		seen := make(map[string]bool, len(r.measured.Rows))
		for _, row := range r.measured.Rows {
			gap += math.Abs(row.Share - r.modeled[row.Cat])
			seen[row.Cat] = true
		}
		for _, row := range obs.CompareShares(nil, r.modeled) {
			if !seen[row.Cat] {
				gap += row.Modeled
			}
		}
		return gap / 2
	}

	fmt.Fprintf(w, "== non-CONV share by scenario (measured vs modeled) ==\n")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "scenario", "total ms", "non-CONV", "modeled", "share gap")
	sort.SliceStable(results, func(i, j int) bool { return results[i].scenario < results[j].scenario })
	for _, r := range results {
		m, p := nonConv(r)
		fmt.Fprintf(w, "%-10v %12.3f %11.1f%% %11.1f%% %11.1f%%\n",
			r.scenario, float64(r.measured.TotalNs)/1e6, 100*m, 100*p, 100*shareGap(r))
	}
	if len(results) > 1 {
		base, _ := nonConv(results[0])
		last := results[len(results)-1]
		m, _ := nonConv(last)
		fmt.Fprintf(w, "\nnon-CONV share: %.1f%% (%v) -> %.1f%% (%v)\n",
			100*base, results[0].scenario, 100*m, last.scenario)
	}
	fmt.Fprintf(w, "\n== activation memory: arena peak, measured vs planned ==\n")
	fmt.Fprintf(w, "%-10s %14s %14s %8s %10s %8s\n", "scenario", "measured MB", "planned MB", "ratio", "held MB", "held/pl")
	for _, r := range results {
		fmt.Fprintf(w, "%-10v %14.2f %14.2f %7.2fx %10.2f %7.2fx\n",
			r.scenario, float64(r.arenaPeak)/1e6, float64(r.planPeak)/1e6,
			float64(r.arenaPeak)/float64(r.planPeak),
			float64(r.arenaHeld)/1e6, float64(r.arenaHeld)/float64(r.planPeak))
	}
	fmt.Fprintf(w, "(planned = memplan training-interval peak; measured includes workspace the plan prices identically;\n")
	fmt.Fprintf(w, " held = every byte the arena owns after the run, checked out or free)\n")
}
