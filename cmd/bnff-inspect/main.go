// bnff-inspect dumps a model's graph before/after a restructuring scenario
// with per-operator FLOP and memory-sweep accounting — the textual analogue
// of the paper's Figure 5 diagrams, for whole models.
//
// Usage:
//
//	bnff-inspect -model densenet121 -scenario bnff -batch 120
//	bnff-inspect -model resnet50 -scenario baseline -dir backward
package main

import (
	"flag"
	"fmt"
	"os"

	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/memsim"
	"bnff/internal/models"
)

func main() {
	model := flag.String("model", "densenet121", fmt.Sprintf("model: one of %v", models.Names()))
	scen := flag.String("scenario", "bnff", "scenario: baseline, rcf, rcf+mvf, bnff, bnff+icf")
	batch := flag.Int("batch", 120, "mini-batch size")
	dir := flag.String("dir", "both", "pass to list: forward, backward, both")
	summary := flag.Bool("summary", false, "print only per-class totals")
	dot := flag.Bool("dot", false, "emit the graph in Graphviz dot format instead of tables")
	save := flag.String("save", "", "write the (restructured) graph to this path in text form")
	trace := flag.String("trace", "", "write a Chrome trace JSON of the simulated iteration to this path")
	flag.Parse()

	if *trace != "" {
		if err := runTrace(*model, *scen, *batch, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "bnff-inspect:", err)
			os.Exit(1)
		}
		return
	}
	if *save != "" {
		if err := runSave(*model, *scen, *batch, *save); err != nil {
			fmt.Fprintln(os.Stderr, "bnff-inspect:", err)
			os.Exit(1)
		}
		return
	}
	if *dot {
		if err := runDOT(*model, *scen, *batch); err != nil {
			fmt.Fprintln(os.Stderr, "bnff-inspect:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*model, *scen, *batch, *dir, *summary); err != nil {
		fmt.Fprintln(os.Stderr, "bnff-inspect:", err)
		os.Exit(1)
	}
}

func build(model string, batch int) (*graph.Graph, error) {
	return models.Build(model, batch)
}

func runTrace(model, scen string, batch int, path string) error {
	scenario, err := core.ParseScenario(scen)
	if err != nil {
		return err
	}
	g, err := build(model, batch)
	if err != nil {
		return err
	}
	if err := core.Restructure(g, scenario.Options()); err != nil {
		return err
	}
	r, err := memsim.Simulate(g, memsim.Skylake())
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.ChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote Chrome trace (%.3f s simulated iteration) to %s — open at chrome://tracing\n",
		r.Total(), path)
	return nil
}

func runSave(model, scen string, batch int, path string) error {
	scenario, err := core.ParseScenario(scen)
	if err != nil {
		return err
	}
	g, err := build(model, batch)
	if err != nil {
		return err
	}
	if err := core.Restructure(g, scenario.Options()); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.Serialize(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d live nodes) to %s\n", g.Name, len(g.Live()), path)
	return nil
}

func runDOT(model, scen string, batch int) error {
	scenario, err := core.ParseScenario(scen)
	if err != nil {
		return err
	}
	g, err := build(model, batch)
	if err != nil {
		return err
	}
	if err := core.Restructure(g, scenario.Options()); err != nil {
		return err
	}
	fmt.Print(g.DOT())
	return nil
}

func sweepString(c graph.OpCost) (reads, writes int, gb float64) {
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
	return reads, writes, gb
}

func run(model, scen string, batch int, dir string, summary bool) error {
	scenario, err := core.ParseScenario(scen)
	if err != nil {
		return err
	}
	g, err := build(model, batch)
	if err != nil {
		return err
	}
	if err := core.Restructure(g, scenario.Options()); err != nil {
		return err
	}
	costs, err := g.TrainingCosts()
	if err != nil {
		return err
	}

	sum, err := g.Summarize()
	if err != nil {
		return err
	}
	fmt.Printf("%s (scenario %v, batch %d)\n", sum, scenario, batch)
	kinds := g.CountKinds()
	fmt.Printf("kinds: ")
	for k := graph.OpKind(0); int(k) < 32; k++ {
		if kinds[k] > 0 {
			fmt.Printf("%v=%d ", k, kinds[k])
		}
	}
	fmt.Println()

	classFLOPs := map[graph.LayerClass]int64{}
	classGB := map[graph.LayerClass]float64{}
	if !summary {
		fmt.Printf("%-9s %-32s %-12s %6s %6s %10s %12s\n",
			"pass", "node", "kind", "reads", "writes", "sweep GB", "GFLOPs")
	}
	for _, c := range costs {
		if dir == "forward" && c.Dir != graph.Forward {
			continue
		}
		if dir == "backward" && c.Dir != graph.Backward {
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
		r, w, gbs := sweepString(c)
		classFLOPs[cls] += c.FLOPs
		classGB[cls] += gbs
		if !summary {
			fmt.Printf("%-9s %-32s %-12s %6d %6d %10.3f %12.2f\n",
				c.Dir, name, kind, r, w, gbs, float64(c.FLOPs)/1e9)
		}
	}
	fmt.Println("per-class totals:")
	for cls := graph.LayerClass(0); int(cls) < 7; cls++ {
		if classFLOPs[cls] == 0 && classGB[cls] == 0 {
			continue
		}
		fmt.Printf("  %-14s %10.1f GB swept %12.1f GFLOPs\n",
			cls, classGB[cls], float64(classFLOPs[cls])/1e9)
	}
	return nil
}
