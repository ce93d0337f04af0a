package memplan

import (
	"fmt"

	"bnff/internal/graph"
)

// This file is the shared liveness core consumed by two clients with very
// different stakes in its accuracy:
//
//   - the analytical report (PlanTraining), which turns the intervals into
//     the peak-footprint numbers EXPERIMENTS.md quotes; and
//   - the runtime arena (internal/core/arena.go), which returns each buffer
//     to its executor's tensor.Arena at exactly the interval's End step — so an
//     interval that ends too early is a use-after-free, not a reporting
//     blemish.
//
// The rules below therefore mirror what core.Executor actually reads, not a
// textbook autodiff model: BN backward consumes the saved x̂, never its
// forward input; a SubBN2's upstream gradient is stashed and re-read at the
// statistics producer's backward step; a flatten output is a view that keeps
// its producer's storage alive through the view's readers.

// BufKind classifies a live interval by the buffer family it describes.
type BufKind int

const (
	// BufValue is a node's forward output (one mini-batch feature map).
	BufValue BufKind = iota
	// BufXHat is a saved normalized map x̂ (the paper's O2'), owned by the
	// normalize-side node and consumed by the statistics producer's backward.
	BufXHat
	// BufMask is a dropout mask, born at the dropout's forward step and
	// consumed by its backward step.
	BufMask
	// BufGrad is the gradient of a node's output value.
	BufGrad
)

// String names the buffer family the way PlanTraining suffixes buffers.
func (k BufKind) String() string {
	switch k {
	case BufValue:
		return "value"
	case BufXHat:
		return "xhat"
	case BufMask:
		return "mask"
	case BufGrad:
		return "grad"
	}
	return fmt.Sprintf("BufKind(%d)", int(k))
}

// Interval is one buffer's live range over the training schedule: it is
// written at step Start and last read at step End (inclusive).
type Interval struct {
	Node  *graph.Node
	Kind  BufKind
	Bytes int64
	Start int
	End   int
}

// Schedule is the training-iteration execution order liveness is computed
// against: the live nodes run forward at steps 0..F−1 in topological order
// and backward at steps F..2F−1 in reverse order, so node i's backward step
// is 2F−1−i. Fwd and Bwd map node IDs to their steps.
type Schedule struct {
	Nodes []*graph.Node
	Fwd   map[int]int
	Bwd   map[int]int
	Steps int
}

// TrainingIntervals computes the live interval of every mini-batch-sized
// buffer in one training iteration of g. Weights and per-channel vectors are
// excluded (static, and small next to feature maps); so is the gradient
// accumulated into the graph input's slot, which the backward pass writes but
// nothing ever reads.
//
// The read sets are the executor's own:
//
//	values — alive from the producer's forward step through the last
//	forward reader and any backward step whose operator re-reads its saved
//	input (CONV, RCF, FC, ReLU — and through flatten views transparently).
//	BN-family backward passes read x̂, never the raw input.
//	x̂ maps — monolithic BN keeps x̂ until its own backward; SubBN2 and the
//	fused BNReLUConv keep it until the statistics producer's backward,
//	which consumes it from the sub-BN2' stash.
//	masks — dropout forward to dropout backward.
//	gradients — written at the first consumer backward that contributes,
//	dead after the node's own backward reads them; a SubBN2's gradient is
//	stashed as dv and survives to the statistics producer's backward,
//	while a fused partner's dv is a fresh buffer modeled on the producer.
func TrainingIntervals(g *graph.Graph) (*Schedule, []Interval, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	live := g.Live()
	f := len(live)
	sched := &Schedule{
		Nodes: live,
		Fwd:   make(map[int]int, f),
		Bwd:   make(map[int]int, f),
		Steps: 2 * f,
	}
	for i, n := range live {
		sched.Fwd[n.ID] = i
		sched.Bwd[n.ID] = 2*f - 1 - i
	}
	cons := g.Consumers()
	fused := fusedPartners(live)

	var ivs []Interval

	// Values.
	for _, n := range live {
		if n.Kind == graph.OpInput || n.Kind == graph.OpFlatten || n.Kind == graph.OpSubBN1 {
			continue // inputs are external; flatten is a view; SubBN1 has no data output
		}
		end := sched.Fwd[n.ID]
		for _, c := range readersThroughFlatten(cons, n) {
			if s := sched.Fwd[c.ID]; s > end {
				end = s
			}
			if backwardReadsInput(c) {
				if s := sched.Bwd[c.ID]; s > end {
					end = s
				}
			}
		}
		ivs = append(ivs, Interval{Node: n, Kind: BufValue, Bytes: featureBytes(n), Start: sched.Fwd[n.ID], End: end})
	}

	// x̂ maps.
	for _, n := range live {
		switch n.Kind {
		case graph.OpBN:
			ivs = append(ivs, Interval{Node: n, Kind: BufXHat, Bytes: featureBytes(n),
				Start: sched.Fwd[n.ID], End: sched.Bwd[n.ID]})
		case graph.OpSubBN2:
			ivs = append(ivs, Interval{Node: n, Kind: BufXHat, Bytes: featureBytes(n),
				Start: sched.Fwd[n.ID], End: sched.Bwd[n.StatsFrom.ID]})
		case graph.OpBNReLUConv:
			ivs = append(ivs, Interval{Node: n, Kind: BufXHat, Bytes: featureBytes(n.Inputs[0]),
				Start: sched.Fwd[n.ID], End: sched.Bwd[n.StatsFrom.ID]})
		}
	}

	// Dropout masks.
	for _, n := range live {
		if n.Kind != graph.OpDropout {
			continue
		}
		ivs = append(ivs, Interval{Node: n, Kind: BufMask, Bytes: featureBytes(n),
			Start: sched.Fwd[n.ID], End: sched.Bwd[n.ID]})
	}

	// Gradients.
	for _, n := range live {
		if n.Kind == graph.OpInput {
			// The input's gradient slot is written but never read.
			continue
		}
		if n.Kind == graph.OpSubBN1 {
			// SubBN1 receives its upstream gradient through the stash, not the
			// map. With a standalone SubBN2 partner the stashed dv aliases the
			// partner's gradient buffer, whose own interval already extends to
			// this node's backward. A fused BNReLUConv partner instead stashes
			// a fresh dv (the BN-input gradient its fused sweep produces),
			// born at the partner's backward and consumed here.
			if p := fused[n.ID]; p != nil {
				ivs = append(ivs, Interval{Node: n, Kind: BufGrad, Bytes: featureBytes(n),
					Start: sched.Bwd[p.ID], End: sched.Bwd[n.ID]})
			}
			continue
		}
		if n.Kind.IsConvLike() && n.StatsOut != nil {
			// A statistics producer's upstream gradient arrives through the
			// sub-BN2' stash. With a standalone SubBN2 partner the stashed dv
			// aliases the partner's gradient buffer (whose interval already
			// extends here), and only the sub-BN1' input gradient is fresh —
			// a transient within the producer's backward step. With a fused
			// BNReLUConv partner the dv itself is a fresh buffer born at the
			// partner's backward.
			start := sched.Bwd[n.ID]
			if p := fused[n.ID]; p != nil {
				start = sched.Bwd[p.ID]
			}
			ivs = append(ivs, Interval{Node: n, Kind: BufGrad, Bytes: featureBytes(n),
				Start: start, End: sched.Bwd[n.ID]})
			continue
		}
		start := sched.Bwd[n.ID]
		for _, c := range cons[n.ID] {
			if !writesInputGrad(c) {
				continue
			}
			if s := sched.Bwd[c.ID]; s < start {
				start = s
			}
		}
		end := sched.Bwd[n.ID]
		if n.Kind == graph.OpSubBN2 {
			// The gradient doubles as the stashed dv, re-read by the
			// statistics producer's backward.
			end = sched.Bwd[n.StatsFrom.ID]
		}
		ivs = append(ivs, Interval{Node: n, Kind: BufGrad, Bytes: featureBytes(n), Start: start, End: end})
	}

	return sched, ivs, nil
}

// readersThroughFlatten returns the consumers whose execution actually reads
// n's storage: direct consumers, plus — because a flatten output is a view
// sharing the producer's backing array — the readers of any flatten consumer,
// recursively.
func readersThroughFlatten(cons map[int][]*graph.Node, n *graph.Node) []*graph.Node {
	direct := cons[n.ID]
	expanded := make([]*graph.Node, 0, len(direct))
	for _, c := range direct {
		if c.Kind == graph.OpFlatten {
			expanded = append(expanded, c) // the view's own forward step reads nothing, but keep ordering cheap
			expanded = append(expanded, readersThroughFlatten(cons, c)...)
			continue
		}
		expanded = append(expanded, c)
	}
	return expanded
}

// backwardReadsInput reports whether an operator's backward pass re-reads its
// saved forward input. This is the executor's saved-tensor set: CONV-family
// and FC backward need the ifmap for dW, ReLU backward needs the sign of its
// input. The BN family (monolithic, sub-BNs, fused) works from x̂ and the
// stash; pooling keeps argmax indices; Concat/EWS/GAP/Dropout keep nothing.
func backwardReadsInput(n *graph.Node) bool {
	switch n.Kind {
	case graph.OpConv, graph.OpReLUConv, graph.OpFC, graph.OpReLU:
		return true
	default:
		return false
	}
}

// writesInputGrad reports whether a consumer's backward step contributes a
// gradient into its inputs' gradient buffers. SubBN2 and BNReLUConv route
// their contribution through the stash instead.
func writesInputGrad(n *graph.Node) bool {
	switch n.Kind {
	case graph.OpInput, graph.OpSubBN2, graph.OpBNReLUConv:
		return false
	default:
		return true
	}
}

// fusedPartners maps a statistics producer's ID to its BNReLUConv partner —
// the fused node drawing statistics from it. The StatsFrom edge is the
// authority here, not Consumers(): a SubBN1's partner reads the raw ifmap
// directly and references the SubBN1 only through StatsFrom, so it never
// appears among the SubBN1's tensor-edge consumers.
func fusedPartners(live []*graph.Node) map[int]*graph.Node {
	m := make(map[int]*graph.Node)
	for _, c := range live {
		if c.Kind == graph.OpBNReLUConv && c.StatsFrom != nil {
			m[c.StatsFrom.ID] = c
		}
	}
	return m
}
