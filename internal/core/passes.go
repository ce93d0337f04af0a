// Package core implements the paper's contribution: the BN Fission-n-Fusion
// restructuring passes over the graph IR, and a numeric executor that runs
// both baseline and restructured graphs through internal/layers — every
// conv-like node as one layers.ConvWindow per direction, built from the node —
// so the transformation can be verified end to end.
//
// The passes mirror §3.2 of the paper:
//
//   - Fission splits each training-mode BN into a statistics sub-layer
//     (sub-BN1) and a normalize sub-layer (sub-BN2), and likewise splits the
//     backward pass into the dγ/dβ reductions (sub-BN2') and the element-wise
//     input gradient (sub-BN1').
//   - Fusion glues sub-BN1 into the preceding CONV as its StatsOut epilogue
//     (the CONV node's output statistics) and sub-BN2 into the following
//     ReLU and CONV (OpBNReLUConv). BNs not preceded by a CONV
//     (composite-layer boundaries) keep a standalone sub-BN1 node.
//   - MVF removes the mean→variance dependency via V(X)=E(X²)−E(X)².
//   - RCF fuses any remaining ReLU into its following CONV (OpReLUConv).
//   - ICF marks a boundary sub-BN1 that reads a Concat (graph.BNAttr.ICF).
//     It is a cost-model term only: the cost model prices the sweeps a
//     fusion with the concat's producers would remove, and the executor
//     runs the sub-BN1 as it runs any other.
//
// The executor serves every per-pass buffer — node outputs, gradients, and
// layer workspace — from a private
// liveness-driven tensor.Arena (see arena.go): buffers return to the arena
// at the End step of the live interval memplan.TrainingIntervals computes,
// so steady-state iterations run almost allocation-free, bit-identical to
// plain allocation.
package core

import (
	"fmt"
	"strings"

	"bnff/internal/graph"
)

// Scenario names the evaluation configurations of the paper's Figure 7.
type Scenario int

const (
	Baseline Scenario = iota // reference implementation, no restructuring
	RCF                      // ReLU-CONV fusion only
	RCFMVF                   // RCF + mean/variance fusion (BN stays monolithic)
	BNFF                     // full Fission-n-Fusion (includes MVF and RCF)
	BNFFICF                  // BNFF + inter-composite-layer fusion
)

//lint:ignore noglobals read-only scenario-name table, written by no one after compile
var scenarioNames = [...]string{"baseline", "RCF", "RCF+MVF", "BNFF", "BNFF+ICF"}

func (s Scenario) String() string {
	if s < 0 || int(s) >= len(scenarioNames) {
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
	return scenarioNames[s]
}

// Scenarios lists every configuration in evaluation order.
func Scenarios() []Scenario { return []Scenario{Baseline, RCF, RCFMVF, BNFF, BNFFICF} }

// ParseScenario maps a user-facing configuration name onto its Scenario.
// Matching is case-insensitive; "mvf" and "icf" are accepted as shorthand
// for "rcf+mvf" and "bnff+icf".
func ParseScenario(s string) (Scenario, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return Baseline, nil
	case "rcf":
		return RCF, nil
	case "rcf+mvf", "mvf":
		return RCFMVF, nil
	case "bnff":
		return BNFF, nil
	case "bnff+icf", "icf":
		return BNFFICF, nil
	}
	return Baseline, fmt.Errorf("core: unknown scenario %q (want baseline, rcf, rcf+mvf, bnff, or bnff+icf)", s)
}

// Options are the individual restructuring switches; Scenario.Options maps
// the paper's configurations onto them.
type Options struct {
	RCF     bool // fuse ReLU into the following CONV
	MVF     bool // single-sweep statistics via E(X²)−E(X)²
	Fission bool // split BN and fuse the sub-layers with neighboring CONVs
	ICF     bool // fuse boundary sub-BN1 with the adjacent Concat/Split
}

// Options returns the switch settings for a scenario.
func (s Scenario) Options() Options {
	switch s {
	case RCF:
		return Options{RCF: true}
	case RCFMVF:
		return Options{RCF: true, MVF: true}
	case BNFF:
		return Options{RCF: true, MVF: true, Fission: true}
	case BNFFICF:
		return Options{RCF: true, MVF: true, Fission: true, ICF: true}
	default:
		return Options{}
	}
}

// Restructure rewrites g in place according to opts and re-validates it.
// The graph must be a freshly built baseline graph (passes are not designed
// to stack on an already-restructured graph).
func Restructure(g *graph.Graph, opts Options) error {
	for _, n := range g.Nodes {
		switch n.Kind {
		case graph.OpBNReLUConv, graph.OpReLUConv, graph.OpSubBN1, graph.OpSubBN2:
			return fmt.Errorf("core: graph %q already restructured (found %v node %q)", g.Name, n.Kind, n.Name)
		}
		if n.StatsOut != nil {
			return fmt.Errorf("core: graph %q already restructured (node %q has a statistics epilogue)", g.Name, n.Name)
		}
	}
	if opts.Fission {
		if err := fissionFusion(g, opts); err != nil {
			return err
		}
	}
	if opts.RCF {
		if err := reluConvFusion(g); err != nil {
			return err
		}
	}
	if opts.MVF && !opts.Fission {
		for _, n := range g.Live() {
			if n.Kind == graph.OpBN {
				n.BN.MVF = true
			}
		}
	}
	if err := g.Normalize(); err != nil {
		return err
	}
	return g.Validate()
}

// singleConsumer returns the lone live consumer of n, or nil if the fan-out
// differs from one. Fusion across a fan-out point would duplicate work, so
// every fusion rule requires it.
func singleConsumer(cons map[int][]*graph.Node, n *graph.Node) *graph.Node {
	cs := cons[n.ID]
	if len(cs) != 1 {
		return nil
	}
	return cs[0]
}

// fissionFusion performs the BN fission and both fusions. For every
// monolithic BN node (input p, consumers r…):
//
//	stats side: if p is conv-like and consumed only by this BN, p gains a
//	StatsOut epilogue (sub-BN1 fused into the preceding CONV — which may
//	itself already be a BNReLUConv from the previous BN's window, the
//	overlapping-windows case of a CONV-BN-ReLU-CONV-BN chain). Otherwise a
//	standalone OpSubBN1 node is added reading p; when opts.ICF is set and p
//	is a Concat, the sub-BN1 is marked ICF (its sweeps ride the
//	Concat/Split).
//
//	normalize side: if the BN feeds exactly ReLU → CONV with no other
//	consumers, the CONV becomes OpBNReLUConv absorbing the BN and ReLU.
//	Otherwise the BN node itself becomes a standalone OpSubBN2.
func fissionFusion(g *graph.Graph, opts Options) error {
	cons := g.Consumers()
	for _, b := range g.Nodes {
		if b.Dead || b.Kind != graph.OpBN {
			continue
		}
		p := b.Inputs[0]
		b.BN.MVF = opts.MVF

		// Statistics side (sub-BN1).
		var statsFrom *graph.Node
		if p.Kind.IsConvLike() && p.StatsOut == nil && singleConsumer(cons, p) == b {
			p.StatsOut = b.BN
			statsFrom = p
		} else {
			s := &graph.Node{
				Kind:     graph.OpSubBN1,
				Name:     b.Name + ".stats",
				Inputs:   []*graph.Node{p},
				OutShape: p.OutShape.Clone(),
				BN:       b.BN,
				CPL:      b.CPL,
			}
			if opts.ICF && p.Kind == graph.OpConcat {
				s.BN.ICF = true
			}
			g.AddNode(s)
			statsFrom = s
		}

		// Normalize side (sub-BN2).
		r := singleConsumer(cons, b)
		if r != nil && r.Kind == graph.OpReLU {
			if c2 := singleConsumer(cons, r); c2 != nil && c2.Kind == graph.OpConv {
				c2.Kind = graph.OpBNReLUConv
				c2.Inputs = []*graph.Node{p}
				c2.BN = b.BN
				c2.StatsFrom = statsFrom
				b.Dead, r.Dead = true, true
				continue
			}
		}
		b.Kind = graph.OpSubBN2
		b.StatsFrom = statsFrom
	}
	return nil
}

// reluConvFusion applies RCF to every remaining ReLU whose single consumer
// is a plain CONV.
func reluConvFusion(g *graph.Graph) error {
	cons := g.Consumers()
	for _, r := range g.Nodes {
		if r.Dead || r.Kind != graph.OpReLU {
			continue
		}
		c := singleConsumer(cons, r)
		if c == nil || c.Kind != graph.OpConv {
			continue
		}
		c.Kind = graph.OpReLUConv
		c.Inputs = []*graph.Node{r.Inputs[0]}
		r.Dead = true
	}
	return nil
}
