package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"bnff/internal/cachesim"
	"bnff/internal/core"
	"bnff/internal/experiments"
	"bnff/internal/graph"
	"bnff/internal/memsim"
	"bnff/internal/models"
)

// runPaper regenerates the paper's tables and figures from the analytical
// machine model and prints paper-vs-measured comparisons: one experiment
// (-exp, an id of experiments.IDs) or all of them.
func runPaper(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	exp := fs.String("exp", "all", fmt.Sprintf("experiment id: one of %s, or all", strings.Join(experiments.IDs(), ", ")))
	batch := fs.Int("batch", experiments.DefaultBatch, "mini-batch size for the simulated training iteration")
	format := fs.String("format", "text", "output format: text, csv")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want text, csv)", *format)
	}
	var all []*experiments.Experiment
	if *exp == "all" {
		var err error
		if all, err = experiments.All(*batch); err != nil {
			return err
		}
	} else {
		e, err := experiments.ByID(*exp, *batch)
		if err != nil {
			return err
		}
		all = []*experiments.Experiment{e}
	}
	if *format == "csv" {
		return writeCSV(stdout, all)
	}
	for _, e := range all {
		fmt.Fprintln(stdout, e)
	}
	return nil
}

func writeCSV(out io.Writer, all []*experiments.Experiment) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"experiment", "metric", "measured", "paper", "unit"}); err != nil {
		return err
	}
	for _, e := range all {
		for _, mt := range e.Metrics {
			paper := ""
			if !math.IsNaN(mt.Paper) {
				paper = strconv.FormatFloat(mt.Paper, 'g', 6, 64)
			}
			if err := w.Write([]string{e.ID, mt.Name,
				strconv.FormatFloat(mt.Measured, 'g', 6, 64), paper, mt.Unit}); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

// runGraph dumps a model's graph after a restructuring with per-operator FLOP
// and memory-sweep accounting — the textual analogue of the paper's Figure 5
// diagrams, for whole models — or, with -dot or -trace, exports it.
func runGraph(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("graph", flag.ContinueOnError)
	model := fs.String("model", "densenet121", fmt.Sprintf("model: one of %v", models.Names()))
	restructure := fs.String("restructure", "bnff", "scenario: baseline, rcf, rcf+mvf, bnff, bnff+icf")
	batch := fs.Int("batch", 120, "mini-batch size")
	dir := fs.String("dir", "both", "pass to list: forward, backward, both")
	summary := fs.Bool("summary", false, "print only per-class totals")
	dot := fs.Bool("dot", false, "emit the graph in Graphviz dot format instead of tables")
	trace := fs.String("trace", "", "write a Chrome trace JSON of the simulated iteration to this path")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir != "forward" && *dir != "backward" && *dir != "both" {
		return fmt.Errorf("unknown -dir %q (want forward, backward, both)", *dir)
	}
	sc, err := core.ParseScenario(*restructure)
	if err != nil {
		return err
	}
	r, err := experiments.Simulate(*model, *batch, sc, memsim.Skylake())
	if err != nil {
		return err
	}
	g := r.Graph
	switch {
	case *trace != "":
		if err := writeFile(*trace, r.ChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote Chrome trace (%.3f s simulated iteration) to %s — open at chrome://tracing\n",
			r.Total(), *trace)
		return nil
	case *dot:
		fmt.Fprint(stdout, g.DOT())
		return nil
	}

	sum, err := g.Summarize()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s (scenario %v, batch %d)\n", sum, sc, *batch)
	kinds := g.CountKinds()
	fmt.Fprintf(stdout, "kinds: ")
	for k := graph.OpKind(0); int(k) < 32; k++ {
		if kinds[k] > 0 {
			fmt.Fprintf(stdout, "%v=%d ", k, kinds[k])
		}
	}
	fmt.Fprintln(stdout)

	classFLOPs := map[graph.LayerClass]int64{}
	classGB := map[graph.LayerClass]float64{}
	if !*summary {
		fmt.Fprintf(stdout, "%-9s %-32s %-12s %6s %6s %10s %12s\n",
			"pass", "node", "kind", "reads", "writes", "sweep GB", "GFLOPs")
	}
	for _, t := range r.Timings {
		c := t.Cost
		if *dir != "both" && c.Dir.String() != *dir {
			continue
		}
		cls := graph.ClassConcat
		name := c.Node.Name
		kind := "Split"
		if !c.Synthetic {
			cls = c.Node.Class()
			kind = c.Node.Kind.String()
			if c.Node.StatsOut != nil {
				kind += "+stats"
			}
		} else {
			name += ".split"
		}
		var reads, writes int
		var gb float64
		for _, s := range c.Sweeps {
			if s.Kind != graph.SweepFeatureMap {
				continue
			}
			if s.Write {
				writes++
			} else {
				reads++
			}
			gb += float64(s.Bytes) / 1e9
		}
		classFLOPs[cls] += c.FLOPs
		classGB[cls] += gb
		if !*summary {
			fmt.Fprintf(stdout, "%-9s %-32s %-12s %6d %6d %10.3f %12.2f\n",
				c.Dir, name, kind, reads, writes, gb, float64(c.FLOPs)/1e9)
		}
	}
	fmt.Fprintln(stdout, "per-class totals:")
	for cls := graph.LayerClass(0); int(cls) < 7; cls++ {
		if classFLOPs[cls] == 0 && classGB[cls] == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-14s %10.1f GB swept %12.1f GFLOPs\n",
			cls, classGB[cls], float64(classFLOPs[cls])/1e9)
	}
	return nil
}

// runCache cross-checks the Figure 5 sweep accounting against the
// trace-driven cache simulator: it replays a full training iteration through
// a set-associative cache and compares the resulting DRAM traffic with the
// cost model's sweep totals. The two are independent implementations of the
// same operator semantics, so agreement validates both; it also reports the
// cache-filtering regime at small batch sizes, the paper's justification for
// why BN becomes a bottleneck only at 100+.
func runCache(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cache", flag.ContinueOnError)
	model := fs.String("model", "tiny-densenet", fmt.Sprintf("model: one of %v", models.Names()))
	restructure := fs.String("restructure", "bnff", "scenario: baseline, rcf, rcf+mvf, bnff, bnff+icf")
	batch := fs.Int("batch", 256, "mini-batch size")
	cacheMB := fs.Int("cache-mb", 1, "cache capacity in MiB")
	sweep := fs.Bool("sweep-batches", false, "sweep batch sizes to show the cache-filtering regime")
	if err := parse(fs, args); err != nil {
		return err
	}
	sc, err := core.ParseScenario(*restructure)
	if err != nil {
		return err
	}
	if *sweep {
		fmt.Fprintf(stdout, "%s %v, %d MiB cache: replayed DRAM vs sweep accounting across batch sizes\n",
			*model, sc, *cacheMB)
		fmt.Fprintf(stdout, "%8s %14s %14s %10s\n", "batch", "replay GB", "sweeps GB", "ratio")
		for _, b := range []int{1, 4, 16, 64, 256} {
			replay, sweeps, err := replayDRAM(*model, sc, b, *cacheMB)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%8d %14.4f %14.4f %10.3f\n", b,
				float64(replay)/1e9, float64(sweeps)/1e9, float64(replay)/float64(sweeps))
		}
		fmt.Fprintln(stdout, "\nratio → 1 as the batch grows: once maps spill the cache, every sweep")
		fmt.Fprintln(stdout, "is real DRAM traffic — the regime the paper's analysis assumes.")
		return nil
	}
	replay, sweeps, err := replayDRAM(*model, sc, *batch, *cacheMB)
	if err != nil {
		return err
	}
	ratio := float64(replay) / float64(sweeps)
	fmt.Fprintf(stdout, "%s %v batch %d, %d MiB cache:\n", *model, sc, *batch, *cacheMB)
	fmt.Fprintf(stdout, "  cost-model sweeps: %.4f GB\n", float64(sweeps)/1e9)
	fmt.Fprintf(stdout, "  cache-sim replay : %.4f GB (ratio %.3f)\n", float64(replay)/1e9, ratio)
	if ratio > 0.9 && ratio < 1.1 {
		fmt.Fprintln(stdout, "  -> agreement within 10%: the sweep accounting is validated by the trace.")
	} else {
		fmt.Fprintln(stdout, "  -> divergence: the cache is filtering sweeps (small batch) or the model disagrees.")
	}
	return nil
}

// replayDRAM returns the DRAM bytes a cache replay of one training iteration
// moves and the feature-map sweep bytes the cost model charges for it.
func replayDRAM(model string, sc core.Scenario, batch, cacheMB int) (replay, sweeps int64, err error) {
	r, err := experiments.Simulate(model, batch, sc, memsim.Skylake())
	if err != nil {
		return 0, 0, err
	}
	for _, t := range r.Timings {
		for _, sw := range t.Cost.Sweeps {
			if sw.Kind == graph.SweepFeatureMap {
				sweeps += sw.Bytes
			}
		}
	}
	cache, err := cachesim.New(cacheMB<<20, 64, 16)
	if err != nil {
		return 0, 0, err
	}
	if err := cachesim.ReplayTraining(cache, r.Graph); err != nil {
		return 0, 0, err
	}
	return cache.Stats().DRAMBytes(cache.LineSize()), sweeps, nil
}
