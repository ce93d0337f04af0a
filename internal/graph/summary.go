package graph

import (
	"fmt"
	"strings"
)

// Summary aggregates a graph's static properties — the numbers a model card
// would quote.
type Summary struct {
	Name            string
	LiveNodes       int
	Params          int64 // learnable scalar count (weights, γ/β, biases)
	ParamBytes      int64
	ActivationBytes int64 // sum of all live node output tensors (one batch)
	ForwardFLOPs    int64
	TrainingFLOPs   int64 // forward + backward
	KindCounts      map[OpKind]int
}

// Summarize computes a Summary for the graph's current (possibly
// restructured) form.
func (g *Graph) Summarize() (*Summary, error) {
	s := &Summary{Name: g.Name, KindCounts: g.CountKinds()}
	seenBN := map[string]bool{}
	for _, n := range g.Live() {
		s.LiveNodes++
		if n.Kind != OpInput && n.Kind != OpSubBN1 && n.Kind != OpFlatten {
			s.ActivationBytes += fmBytes(n.OutShape)
		}
		if n.Conv != nil {
			s.Params += int64(n.Conv.WeightShape().NumElems())
		}
		if n.FC != nil {
			s.Params += int64(n.FC.In)*int64(n.FC.Out) + int64(n.FC.Out)
		}
		for _, attr := range []*BNAttr{n.BN, n.StatsOut} {
			if attr != nil && !seenBN[attr.ParamName] {
				seenBN[attr.ParamName] = true
				s.Params += 2 * int64(attr.Channels) // γ and β
			}
		}
	}
	s.ParamBytes = 4 * s.Params
	costs, err := g.TrainingCosts()
	if err != nil {
		return nil, err
	}
	for _, c := range costs {
		s.TrainingFLOPs += c.FLOPs
		if c.Dir == Forward {
			s.ForwardFLOPs += c.FLOPs
		}
	}
	return s, nil
}

// String renders a compact model card.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes, %d params (%.6f MB), %.6f MB activations/batch, %.9f GFLOPs fwd (%.9f training)",
		s.Name, s.LiveNodes, s.Params, float64(s.ParamBytes)/1e6,
		float64(s.ActivationBytes)/1e6, float64(s.ForwardFLOPs)/1e9, float64(s.TrainingFLOPs)/1e9)
	return b.String()
}
