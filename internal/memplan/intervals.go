package memplan

import "bnff/internal/graph"

// This file is the shared liveness core consumed by three clients with very
// different stakes in its accuracy:
//
//   - the analytical report (PlanTraining, PlanInference), which turns the
//     intervals into the peak-footprint numbers EXPERIMENTS.md quotes;
//   - a training executor's arena (internal/core/arena.go), which returns
//     each buffer to its executor's tensor.Arena at exactly the interval's
//     End step — so an interval that ends too early is a use-after-free, not
//     a reporting blemish — and carves it at the offset Place assigns
//     (place.go); and
//   - an inference executor's arena, which releases each forward value at
//     the End of its InferenceIntervals interval, its last forward reader.
//
// The rules below therefore mirror what core.Executor actually reads, not a
// textbook autodiff model: nothing saves x̂. A monolithic BN re-reads its
// input x in its own backward; a SubBN2 or a fused BNReLUConv re-reads its
// input in its own backward and in its statistics producer's; each
// regenerates x̂ from x. A ReLU's backward masks with its own output, not its
// input. A max pool's backward scans its input again for each window's
// argmax, and a dropout's replays its keep decisions from a generator copy,
// so neither keeps a buffer of its own. A SubBN2's upstream gradient is
// stashed and re-read at the statistics producer's backward step; flatten
// and concat outputs are views that keep their inputs' storage alive through
// the view's readers, and so, at inference, is a dropout's.

// BufKind classifies a live interval by the buffer family it describes.
type BufKind int

const (
	// BufValue is a node's forward output (one mini-batch feature map).
	BufValue BufKind = iota
	// BufGrad is the gradient of a node's output value.
	BufGrad
)

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
//	input (CONV, RCF, FC, a monolithic BN, which regenerates x̂ from it,
//	and a max pool, which re-derives each window's argmax from it; a
//	SubBN2 or fused BNReLUConv through its statistics producer's backward,
//	whose sub-BN1' regenerates x̂ from it), through flatten and concat views
//	transparently: a view owns no storage. A ReLU's output lives through
//	its own backward, which masks with it.
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
		if !ownsValue(n, false) {
			continue
		}
		end := sched.Fwd[n.ID]
		if n.Kind == graph.OpReLU {
			end = sched.Bwd[n.ID]
		}
		for _, c := range readersThroughViews(cons, n, false) {
			last := sched.Fwd[c.ID]
			switch {
			case c.Kind == graph.OpBNReLUConv || c.Kind == graph.OpSubBN2:
				last = sched.Bwd[c.StatsFrom.ID]
			case backwardReadsInput(c):
				last = sched.Bwd[c.ID]
			}
			end = max(end, last)
		}
		ivs = append(ivs, Interval{Node: n, Kind: BufValue, Bytes: featureBytes(n), Start: sched.Fwd[n.ID], End: end})
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
			// sub-BN2' stash, and its sub-BN1' input gradient is written over
			// the stashed dv. With a standalone SubBN2 partner dv is the
			// partner's gradient buffer, whose interval already extends here.
			// With a fused BNReLUConv partner it is a fresh buffer born at the
			// partner's backward.
			if p := fused[n.ID]; p != nil {
				ivs = append(ivs, Interval{Node: n, Kind: BufGrad, Bytes: featureBytes(n),
					Start: sched.Bwd[p.ID], End: sched.Bwd[n.ID]})
			}
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

// InferenceIntervals computes the live interval of every forward value in
// one inference pass of g: the live nodes run forward at steps 0..F−1 in
// topological order (Schedule.Bwd is empty), and a value dies at its last
// forward reader, since nothing runs backward. Views own no storage and keep
// their inputs live through their own readers: a flatten, a concat, and a
// dropout, which at inference is the identity and aliases its input. Inputs
// and SubBN1 nodes (which take no statistics at inference) hold no value;
// the graph output's interval ends at its own step.
func InferenceIntervals(g *graph.Graph) (*Schedule, []Interval, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	live := g.Live()
	sched := &Schedule{Nodes: live, Fwd: make(map[int]int, len(live)), Bwd: map[int]int{}, Steps: len(live)}
	for i, n := range live {
		sched.Fwd[n.ID] = i
	}
	cons := g.Consumers()
	var ivs []Interval
	for _, n := range live {
		if !ownsValue(n, true) {
			continue
		}
		end := sched.Fwd[n.ID]
		for _, c := range readersThroughViews(cons, n, true) {
			end = max(end, sched.Fwd[c.ID])
		}
		ivs = append(ivs, Interval{Node: n, Kind: BufValue, Bytes: featureBytes(n), Start: sched.Fwd[n.ID], End: end})
	}
	return sched, ivs, nil
}

// ownsValue reports whether a node's forward output is storage of its own:
// inputs are external, views own none, and SubBN1 has no data output.
func ownsValue(n *graph.Node, inference bool) bool {
	return n.Kind != graph.OpInput && n.Kind != graph.OpSubBN1 && !isView(n, inference)
}

// isView reports whether a node's output is a view of its inputs' storage: a
// flatten is a reshape of one tensor, a concat the list of its inputs, and
// at inference a dropout its input itself.
func isView(n *graph.Node, inference bool) bool {
	return n.Kind == graph.OpFlatten || n.Kind == graph.OpConcat || inference && n.Kind == graph.OpDropout
}

// readersThroughViews returns the consumers whose execution actually reads
// n's storage: direct consumers, plus — because a view shares its inputs'
// storage — the readers of any view consumer, recursively.
func readersThroughViews(cons map[int][]*graph.Node, n *graph.Node, inference bool) []*graph.Node {
	direct := cons[n.ID]
	expanded := make([]*graph.Node, 0, len(direct))
	for _, c := range direct {
		expanded = append(expanded, c) // a view's own forward step reads nothing, but keep ordering cheap
		if isView(c, inference) {
			expanded = append(expanded, readersThroughViews(cons, c, inference)...)
		}
	}
	return expanded
}

// backwardReadsInput reports whether an operator's own backward pass re-reads
// its saved forward input. This is the executor's saved-tensor set: CONV-family
// and FC backward need the ifmap for dW, a monolithic BN regenerates x̂ from
// its input, and a max pool re-derives each window's argmax from its input. A
// SubBN2 or fused BNReLUConv reads its input later still, at its statistics
// producer's backward (TrainingIntervals). ReLU masks with its own output;
// an average pool reads only its input's shape; Dropout replays its keep
// decisions from a generator copy; Concat/EWS/GAP keep nothing.
func backwardReadsInput(n *graph.Node) bool {
	switch n.Kind {
	case graph.OpConv, graph.OpReLUConv, graph.OpFC, graph.OpBN:
		return true
	case graph.OpPool:
		return n.Pool.Max
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
