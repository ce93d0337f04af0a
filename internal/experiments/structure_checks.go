package experiments

import (
	"fmt"
	"strings"

	"bnff/internal/graph"
	"bnff/internal/scenario"
)

// opCounts tallies the structural markers restructuring leaves in a graph.
type opCounts struct {
	bn         int // monolithic OpBN nodes
	reluConv   int // OpReLUConv (RCF: ReLU fused into the consumer's read)
	bnReluConv int // OpBNReLUConv (BNFF: full BN+ReLU+CONV fusion)
	subBN      int // OpSubBN1/OpSubBN2 fission halves
	statsOut   int // nodes producing BN statistics as a side output
	mvf        int // BN attrs with mean/variance fusion enabled
}

func countOps(g *graph.Graph) opCounts {
	var c opCounts
	for _, n := range g.Live() {
		switch n.Kind {
		case graph.OpBN:
			c.bn++
		case graph.OpReLUConv:
			c.reluConv++
		case graph.OpBNReLUConv:
			c.bnReluConv++
		case graph.OpSubBN1, graph.OpSubBN2:
			c.subBN++
		}
		if n.StatsOut != nil {
			c.statsOut++
			if n.StatsOut.MVF {
				c.mvf++
			}
		}
		if n.BN != nil && n.BN.MVF {
			c.mvf++
		}
	}
	return c
}

// expectStructure returns an error when the counted markers contradict what
// the named restructuring level promises to leave in the graph.
func expectStructure(restructure string, c opCounts) error {
	switch restructure {
	case "baseline":
		if c.reluConv+c.bnReluConv+c.subBN+c.statsOut+c.mvf != 0 {
			return fmt.Errorf("baseline graph carries restructuring markers: %+v", c)
		}
		if c.bn == 0 {
			return fmt.Errorf("baseline graph has no BN nodes")
		}
	case "rcf":
		if c.reluConv == 0 {
			return fmt.Errorf("RCF graph has no ReLU-on-read convolutions")
		}
		if c.bnReluConv+c.mvf != 0 {
			return fmt.Errorf("RCF graph carries MVF/BNFF markers: %+v", c)
		}
		if c.bn == 0 {
			return fmt.Errorf("RCF graph lost its monolithic BN nodes")
		}
	case "rcf+mvf":
		if c.reluConv == 0 {
			return fmt.Errorf("RCF+MVF graph has no ReLU-on-read convolutions")
		}
		if c.mvf == 0 {
			return fmt.Errorf("RCF+MVF graph has no mean/variance-fused BN attrs")
		}
		if c.bnReluConv != 0 {
			return fmt.Errorf("RCF+MVF graph carries BNFF fusions: %+v", c)
		}
		if c.bn == 0 {
			return fmt.Errorf("RCF+MVF graph lost its monolithic BN nodes")
		}
	case "bnff", "bnff+icf":
		if c.bnReluConv == 0 {
			return fmt.Errorf("%s graph has no BN+ReLU+CONV fusions", restructure)
		}
		if c.statsOut == 0 {
			return fmt.Errorf("%s graph has no statistics-producing nodes", restructure)
		}
		if c.bn != 0 {
			return fmt.Errorf("%s graph still has %d monolithic BN nodes", restructure, c.bn)
		}
	default:
		return fmt.Errorf("unknown restructure level %q", restructure)
	}
	return nil
}

// StructureChecks verifies, for every builtin train scenario, that the graph
// its spec builds carries the structural signature its restructuring level
// promises: baseline keeps monolithic BN and no fusion markers, RCF fuses
// ReLU into convolution reads, RCF+MVF additionally fuses mean/variance
// computation, and BNFF(+ICF) replaces every monolithic BN with fissioned
// statistics producers and BN+ReLU+CONV fusions. Because the scenario list
// comes from scenario.Builtin(), a spec added to the grid is structure-checked
// here automatically — it cannot ship with a silently unrestructured graph.
func StructureChecks() (*Experiment, error) {
	e := &Experiment{
		ID:    "structure",
		Title: "Graph-structure invariants of every builtin train scenario",
		Notes: "Counts the fusion/fission markers each restructuring level must leave (Figures 2 and 5); any contradiction is a hard error, not a metric.",
	}
	var detail strings.Builder
	fmt.Fprintf(&detail, "%-36s %-10s %4s %5s %4s %5s %6s\n",
		"scenario", "level", "bn", "rconv", "brc", "stats", "subbn")
	for _, sp := range scenario.Builtin().Specs() {
		g, err := sp.BuildGraph(sp.Batch)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name, err)
		}
		c := countOps(g)
		if err := expectStructure(sp.Restructure, c); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name, err)
		}
		fmt.Fprintf(&detail, "%-36s %-10s %4d %5d %4d %5d %6d\n",
			sp.Name, sp.Restructure, c.bn, c.reluConv, c.bnReluConv, c.statsOut, c.subBN)
		e.Metrics = append(e.Metrics,
			noPaper(sp.Name+" fused nodes", "count", float64(c.reluConv+c.bnReluConv)))
	}
	e.Detail = detail.String()
	return e, nil
}
