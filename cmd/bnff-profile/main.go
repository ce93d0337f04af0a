// bnff-profile measures where training time actually goes and compares it
// with the analytical machine model's prediction. For each restructuring
// scenario it runs real traced training steps on a scaled model, prints the
// paper-Figure-1-style layer breakdown (measured share next to the memsim
// modeled share), and writes measured and modeled Chrome traces that load
// side by side in chrome://tracing or ui.perfetto.dev.
//
// Usage:
//
//	bnff-profile -model tiny-densenet
//	bnff-profile -model tiny-resnet -steps 3 -workers 4 -trace out/resnet
//	bnff-profile -model tiny-cnn -clock step        # deterministic traces
//
// Files written per scenario (prefix from -trace, empty disables):
//
//	<prefix>.<scenario>.trace.json        measured spans
//	<prefix>.<scenario>.model.trace.json  memsim prediction
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/memplan"
	"bnff/internal/memsim"
	"bnff/internal/models"
	"bnff/internal/obs"
	"bnff/internal/scenario"
	"bnff/internal/train"
)

func main() {
	scenName := flag.String("scenario", "", "start from this builtin train scenario; set flags override its fields")
	model := flag.String("model", "tiny-densenet", fmt.Sprintf("model: one of %v", models.Names()))
	batch := flag.Int("batch", 16, "mini-batch size")
	steps := flag.Int("steps", 1, "traced training steps per scenario")
	workers := flag.Int("workers", 1, "worker goroutines per executor")
	tracePfx := flag.String("trace", "bnff-profile", "path prefix for Chrome trace files (empty: no files)")
	clock := flag.String("clock", "wall", "span clock: wall (real time) or step (deterministic fake)")
	seed := flag.Uint64("seed", 42, "parameter and data seed")
	flag.Parse()

	sp, err := resolveSpec(*scenName, func(sp *scenario.Spec) {
		flag.Visit(func(f *flag.Flag) {
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
	}, scenario.Spec{
		Name:    "cli/profile",
		Kind:    scenario.KindTrain,
		Model:   *model,
		Batch:   *batch,
		Steps:   *steps,
		Workers: *workers,
		Seed:    *seed,
	})
	if err == nil {
		err = run(sp, *tracePfx, *clock)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bnff-profile:", err)
		os.Exit(1)
	}
}

// resolveSpec layers explicitly set flags over the named builtin scenario,
// or returns the flag-assembled spec when no name is given. The profile
// sweeps every restructuring itself, so the spec's own Restructure field is
// overwritten per iteration.
func resolveSpec(name string, override func(*scenario.Spec), fromFlags scenario.Spec) (scenario.Spec, error) {
	sp := fromFlags
	if name != "" {
		reg := scenario.Builtin()
		got, ok := reg.Get(name)
		if !ok {
			return scenario.Spec{}, fmt.Errorf("unknown scenario %q (builtin: %v)", name, reg.Names())
		}
		if got.Kind != scenario.KindTrain {
			return scenario.Spec{}, fmt.Errorf("scenario %q is a %s scenario; this command profiles training", name, got.Kind)
		}
		sp = got
		override(&sp)
	}
	if err := sp.Normalize(); err != nil {
		return scenario.Spec{}, err
	}
	return sp, nil
}

// newClock builds the tracer clock named by -clock. The step clock advances a
// fixed stride per reading, so span layout depends only on the recording
// order — two runs of the same build produce byte-identical trace files.
func newClock(kind string) (func() int64, error) {
	switch kind {
	case "wall":
		return obs.WallClock(), nil
	case "step":
		return obs.StepClock(1000), nil
	default:
		return nil, fmt.Errorf("unknown clock %q (want wall, step)", kind)
	}
}

// scenarioResult is one scenario's measured and modeled outcome.
type scenarioResult struct {
	scenario  core.Scenario
	measured  obs.Breakdown
	modeled   map[string]float64 // share of modeled iteration time per class
	modelSec  float64            // memsim total iteration seconds
	arenaPeak int64              // measured arena peak bytes
	planPeak  int64              // memplan's predicted activation peak bytes
}

func run(sp scenario.Spec, tracePfx, clockKind string) error {
	fmt.Printf("model=%s batch=%d steps=%d workers=%d clock=%s machine=Skylake\n\n",
		sp.Model, sp.Batch, sp.Steps, sp.Workers, clockKind)

	var results []scenarioResult
	for _, sc := range core.Scenarios() {
		spScen := sp
		spScen.Restructure = strings.ToLower(sc.String())
		res, err := profileScenario(spScen, sc, tracePfx, clockKind)
		if err != nil {
			return fmt.Errorf("%v: %w", sc, err)
		}
		results = append(results, res)

		fmt.Printf("== %v ==\n", sc)
		if err := res.measured.WriteTable(os.Stdout, res.modeled); err != nil {
			return err
		}
		fmt.Printf("measured %.1f ms over %d step(s); model predicts %.3f ms/iteration\n\n",
			float64(res.measured.TotalNs)/1e6, sp.Steps, res.modelSec*1e3)
	}
	return summarize(os.Stdout, results)
}

func profileScenario(sp scenario.Spec, sc core.Scenario, tracePfx, clockKind string) (scenarioResult, error) {
	g, err := sp.BuildGraph(sp.Batch)
	if err != nil {
		return scenarioResult{}, err
	}
	report, err := memsim.Simulate(g, memsim.Skylake())
	if err != nil {
		return scenarioResult{}, err
	}
	res := scenarioResult{
		scenario: sc,
		modeled:  modeledShares(report),
		modelSec: report.Total(),
	}

	clk, err := newClock(clockKind)
	if err != nil {
		return scenarioResult{}, err
	}
	tracer := obs.NewTracer(clk)
	// Predicted peak comes from the same intervals the arena's release table
	// is compiled from, so measured-vs-planned is apples to apples.
	plan, err := memplan.PlanTraining(g)
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
	res.arenaPeak = tr.Exec.ArenaStats().PeakBytes

	if tracePfx != "" {
		if err := writeTraces(tracePfx, sc, tracer, report); err != nil {
			return scenarioResult{}, err
		}
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
	name := strings.ToLower(s.String())
	name = strings.ReplaceAll(name, "+", "-")
	return name
}

func writeTraces(prefix string, scenario core.Scenario, tracer *obs.Tracer, report *memsim.Report) error {
	measured := fmt.Sprintf("%s.%s.trace.json", prefix, fileScenario(scenario))
	f, err := os.Create(measured)
	if err != nil {
		return err
	}
	// pid 1 measured, pid 2 modeled: the two processes sit side by side when
	// both files load into one viewer.
	if err := obs.WriteChromeTrace(f, tracer.Spans(), 1); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	modeled := fmt.Sprintf("%s.%s.model.trace.json", prefix, fileScenario(scenario))
	f, err = os.Create(modeled)
	if err != nil {
		return err
	}
	if err := report.ChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("traces: %s, %s\n", measured, modeled)
	return nil
}

// summarize prints the cross-scenario table the paper's Figure 1 motivates:
// how much of the iteration is not convolution, measured vs modeled, and how
// far restructuring shrinks it relative to the baseline.
func summarize(w *os.File, results []scenarioResult) error {
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
	fmt.Fprintf(w, "%-10s %14s %14s %8s\n", "scenario", "measured MB", "planned MB", "ratio")
	for _, r := range results {
		fmt.Fprintf(w, "%-10v %14.2f %14.2f %7.2fx\n",
			r.scenario, float64(r.arenaPeak)/1e6, float64(r.planPeak)/1e6,
			float64(r.arenaPeak)/float64(r.planPeak))
	}
	fmt.Fprintf(w, "(planned = memplan training-interval peak; measured includes workspace the plan prices identically)\n")
	return nil
}
