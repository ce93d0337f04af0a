package graph

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the live graph in Graphviz dot format: data edges solid,
// statistics-dependency edges (StatsFrom) dashed, fused operators shaded,
// and stats epilogues flagged in the label. Useful with
// bnff-profile graph -dot to see what a pass did to a model.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")

	live := g.Live()
	for _, n := range live {
		// \n must reach dot as a two-character escape, so the label is
		// quoted by hand (%q would double the backslash).
		label := fmt.Sprintf(`"%s\n%s %v"`, n.Name, n.Kind, []int(n.OutShape))
		attrs := []string{"label=" + label}
		switch n.Kind {
		case OpReLUConv, OpBNReLUConv:
			attrs = append(attrs, "style=filled", "fillcolor=lightblue")
		case OpSubBN1, OpSubBN2:
			attrs = append(attrs, "style=filled", "fillcolor=lightyellow")
		case OpInput:
			attrs = append(attrs, "shape=ellipse")
		}
		if n.StatsOut != nil {
			attrs = append(attrs, "color=blue", "penwidth=2")
		}
		if g.Output == n {
			attrs = append(attrs, "peripheries=2")
		}
		sort.Strings(attrs)
		fmt.Fprintf(&b, "  n%d [%s];\n", n.ID, strings.Join(attrs, ", "))
	}
	for _, n := range live {
		for _, in := range n.Inputs {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", in.ID, n.ID)
		}
		if n.StatsFrom != nil {
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed, label=\"stats\"];\n", n.StatsFrom.ID, n.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
