// Package memplan computes the activation-memory footprint of one training
// iteration, or one inference pass, by liveness analysis over the graph's
// execution schedule.
//
// It exists to quantify a side effect of the restructuring the paper does
// not measure but that follows from its design (and that the related work it
// cites, Gist, optimizes directly). No training graph stores x̂ (Figure 5's
// O2'): every BN backward regenerates it from the BN input, and a ReLU's
// backward masks with its own output. So the baseline keeps two mini-batch
// maps alive per BN window for the backward pass — the BN input and the
// rectified output, which the next CONV's dW reads anyway — and RCF the BN
// input and the BN output, while BNFF's fused window keeps only the BN input,
// so BNFF reduces peak training memory as well as traffic. Nor does any
// graph store Figure 5's other saved maps: a max pool's backward re-derives
// each window's argmax from the pool's input, which stays live to it, and a
// dropout's replays its keep decisions from a copy of the generator, so
// every buffer is a value or a gradient. A concat is a view
// of its inputs (Pleiss et al.'s shared feature storage), so a dense block
// keeps each feature map once rather than a copy per composite layer, and a
// BN reading a concat keeps nothing of its own.
//
// The interval computation itself (TrainingIntervals and, for a forward-only
// pass, InferenceIntervals in intervals.go) is a shared library:
// PlanTraining and PlanInference aggregate the intervals into the analytical
// report below, and every core.Executor replays the same intervals at
// runtime to return each buffer to its tensor.Arena at its last-reader
// step. Place (place.go) turns them into offsets in one slab as well (in
// segments no buffer straddles), and the executor carves each planned buffer
// at its offset, so the arena holds the slab — PeakBytes, or a little more
// where no packing of the sizes meets it — plus what the plan does not
// price, rather than best fit's fragments. Because the runtime trusts the
// intervals for reuse, they model what the executor actually reads, not a
// conservative superset.
package memplan

import "bnff/internal/graph"

// Result is the footprint analysis of one training iteration or inference
// pass: PeakBytes is the largest sum of interval bytes live at any one
// schedule step.
type Result struct {
	PeakBytes int64
}

// featureBytes is a node's output size in bytes.
func featureBytes(n *graph.Node) int64 {
	b := int64(4)
	for _, d := range n.OutShape {
		b *= int64(d)
	}
	return b
}

// PlanTraining computes liveness for one iteration: forward nodes execute at
// steps 0..F−1 in topological order, backward nodes at steps F..2F−1 in
// reverse order. Two buffer families are tracked (see TrainingIntervals for
// the exact read sets):
//
//	activations — born at the producer's forward step, alive through the
//	last forward consumer and any backward step that re-reads them (saved
//	ifmaps for dW, BN inputs x̂ is regenerated from, max-pool inputs the
//	argmax is re-derived from, ReLU outputs that mask their own backward);
//	no x̂ map, argmax map or dropout mask is ever stored;
//	gradients — born at the first contributing consumer backward, dead
//	after the producer's own backward step reads them (a SubBN2's gradient
//	survives to its statistics producer's backward as the stashed dv).
//
// Weights and per-channel vectors are excluded (they are static and small
// next to mini-batch maps).
func PlanTraining(g *graph.Graph) (*Result, error) {
	sched, ivs, err := TrainingIntervals(g)
	if err != nil {
		return nil, err
	}
	return plan(sched, ivs), nil
}

// PlanInference computes liveness for one inference pass: the forward values
// of InferenceIntervals, each dead after its last forward reader. Its
// PeakBytes is the most feature-map bytes an inference executor keeps live
// at once.
func PlanInference(g *graph.Graph) (*Result, error) {
	sched, ivs, err := InferenceIntervals(g)
	if err != nil {
		return nil, err
	}
	return plan(sched, ivs), nil
}

// plan computes the peak of the live-bytes profile over the schedule: each
// interval adds its bytes at Start and removes them after End.
func plan(sched *Schedule, ivs []Interval) *Result {
	delta := make([]int64, sched.Steps+1)
	for _, iv := range ivs {
		delta[iv.Start] += iv.Bytes
		delta[iv.End+1] -= iv.Bytes
	}
	var cur, peak int64
	for _, d := range delta {
		cur += d
		peak = max(peak, cur)
	}
	return &Result{PeakBytes: peak}
}
