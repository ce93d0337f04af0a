// bnff-validate cross-checks the Figure 5 sweep accounting against the
// trace-driven cache simulator: it replays a full training iteration of a
// model through a set-associative cache and compares the resulting DRAM
// traffic with the cost model's sweep totals. The two are independent
// implementations of the same operator semantics, so agreement validates
// both; it also reports the cache-filtering regime at small batch sizes,
// the paper's justification for why BN becomes a bottleneck only at 100+.
//
// Usage:
//
//	bnff-validate -model tiny-densenet -scenario bnff -batch 256
//	bnff-validate -model tiny-resnet -sweep-batches
package main

import (
	"flag"
	"fmt"
	"os"

	"bnff/internal/cachesim"
	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/models"
)

func main() {
	model := flag.String("model", "tiny-densenet", fmt.Sprintf("model: one of %v", models.Names()))
	scen := flag.String("scenario", "bnff", "scenario: baseline, rcf, rcf+mvf, bnff, bnff+icf")
	batch := flag.Int("batch", 256, "mini-batch size")
	cacheMB := flag.Int("cache-mb", 1, "cache capacity in MiB")
	sweep := flag.Bool("sweep-batches", false, "sweep batch sizes to show the cache-filtering regime")
	flag.Parse()

	if err := run(*model, *scen, *batch, *cacheMB, *sweep); err != nil {
		fmt.Fprintln(os.Stderr, "bnff-validate:", err)
		os.Exit(1)
	}
}

func build(model string, batch int) (*graph.Graph, error) {
	return models.Build(model, batch)
}

func measure(model string, scenario core.Scenario, batch, cacheMB int) (replay, sweeps int64, err error) {
	g, err := build(model, batch)
	if err != nil {
		return 0, 0, err
	}
	if err := core.Restructure(g, scenario.Options()); err != nil {
		return 0, 0, err
	}
	costs, err := g.TrainingCosts()
	if err != nil {
		return 0, 0, err
	}
	for _, c := range costs {
		for _, sw := range c.Sweeps {
			if sw.Kind == graph.SweepFeatureMap {
				sweeps += sw.Bytes
			}
		}
	}
	cache, err := cachesim.New(cacheMB<<20, 64, 16)
	if err != nil {
		return 0, 0, err
	}
	if err := cachesim.ReplayTraining(cache, g); err != nil {
		return 0, 0, err
	}
	return cache.Stats().DRAMBytes(cache.LineSize()), sweeps, nil
}

func run(model, scen string, batch, cacheMB int, sweep bool) error {
	scenario, err := core.ParseScenario(scen)
	if err != nil {
		return err
	}
	if sweep {
		fmt.Printf("%s %v, %d MiB cache: replayed DRAM vs sweep accounting across batch sizes\n",
			model, scenario, cacheMB)
		fmt.Printf("%8s %14s %14s %10s\n", "batch", "replay GB", "sweeps GB", "ratio")
		for _, b := range []int{1, 4, 16, 64, 256} {
			replay, sweeps, err := measure(model, scenario, b, cacheMB)
			if err != nil {
				return err
			}
			fmt.Printf("%8d %14.4f %14.4f %10.3f\n", b,
				float64(replay)/1e9, float64(sweeps)/1e9, float64(replay)/float64(sweeps))
		}
		fmt.Println("\nratio → 1 as the batch grows: once maps spill the cache, every sweep")
		fmt.Println("is real DRAM traffic — the regime the paper's analysis assumes.")
		return nil
	}
	replay, sweeps, err := measure(model, scenario, batch, cacheMB)
	if err != nil {
		return err
	}
	ratio := float64(replay) / float64(sweeps)
	fmt.Printf("%s %v batch %d, %d MiB cache:\n", model, scenario, batch, cacheMB)
	fmt.Printf("  cost-model sweeps: %.4f GB\n", float64(sweeps)/1e9)
	fmt.Printf("  cache-sim replay : %.4f GB (ratio %.3f)\n", float64(replay)/1e9, ratio)
	if ratio > 0.9 && ratio < 1.1 {
		fmt.Println("  -> agreement within 10%: the sweep accounting is validated by the trace.")
	} else {
		fmt.Println("  -> divergence: the cache is filtering sweeps (small batch) or the model disagrees.")
	}
	return nil
}
