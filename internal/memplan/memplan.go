// Package memplan computes the activation-memory footprint of one training
// iteration by liveness analysis over the graph's execution schedule.
//
// It exists to quantify a side effect of the restructuring the paper does
// not measure but that follows from its design (and that the related work it
// cites, Gist, optimizes directly): the baseline keeps three mini-batch maps
// alive per BN window for the backward pass — the BN input, the BN output,
// and the rectified output — while the restructured graph keeps only the BN
// input, from which each fused window regenerates x̂ (Figure 5's O2') in its
// backward instead of storing it, so BNFF reduces peak training memory as
// well as traffic. A concat is a view of its inputs (Pleiss et al.'s shared
// feature storage), so a dense block keeps each feature map once rather than
// a copy per composite layer.
//
// The interval computation itself (TrainingIntervals in intervals.go) is a
// shared library: PlanTraining aggregates the intervals into the analytical
// report below, and every core.Executor replays the same intervals at
// runtime to return each buffer to its tensor.Arena at its last-reader
// step. Because the runtime trusts the intervals for reuse, they model what
// the executor actually reads, not a conservative superset.
package memplan

import (
	"fmt"
	"sort"

	"bnff/internal/graph"
)

// Buffer is one tensor allocation with its live interval in schedule steps.
type Buffer struct {
	Name  string
	Bytes int64
	Start int // schedule step that produces it
	End   int // last schedule step that reads it
}

// Result is the footprint analysis of one training iteration.
type Result struct {
	Buffers   []Buffer
	PeakBytes int64
	PeakStep  int
	Steps     int
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
// reverse order. Four buffer families are tracked (see TrainingIntervals for
// the exact read sets):
//
//	activations — born at the producer's forward step, alive through the
//	last forward consumer and any backward step that re-reads them (saved
//	ifmaps for dW, ReLU sign checks);
//	x̂ maps — the saved normalized maps: a monolithic BN keeps x̂ for its
//	own backward, a SubBN2 keeps O2' until the statistics producer's
//	backward consumes it (a fused BNReLUConv keeps its input instead);
//	dropout masks — forward to backward of the dropout node;
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
	buffers := make([]Buffer, 0, len(ivs))
	for _, iv := range ivs {
		name := iv.Node.Name
		switch iv.Kind {
		case BufXHat:
			name += ".xhat"
		case BufMask:
			name += ".mask"
		case BufGrad:
			name += ".grad"
		}
		buffers = append(buffers, Buffer{Name: name, Bytes: iv.Bytes, Start: iv.Start, End: iv.End})
	}
	res := &Result{Buffers: buffers, Steps: sched.Steps}
	res.computePeak()
	return res, nil
}

func (r *Result) computePeak() {
	type event struct {
		step  int
		delta int64
	}
	var events []event
	for _, b := range r.Buffers {
		events = append(events, event{b.Start, b.Bytes}, event{b.End + 1, -b.Bytes})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].step < events[j].step })
	var cur, peak int64
	peakStep := 0
	for i := 0; i < len(events); {
		step := events[i].step
		for ; i < len(events) && events[i].step == step; i++ {
			cur += events[i].delta
		}
		// cur is now the live set for [step, nextStep).
		if cur > peak {
			peak, peakStep = cur, step
		}
	}
	r.PeakBytes = peak
	r.PeakStep = peakStep
}

// LiveAt returns the bytes live at a schedule step.
func (r *Result) LiveAt(step int) int64 {
	var s int64
	for _, b := range r.Buffers {
		if b.Start <= step && step <= b.End {
			s += b.Bytes
		}
	}
	return s
}

// TotalAllocated returns the sum of all buffer sizes (ignoring reuse).
func (r *Result) TotalAllocated() int64 {
	var s int64
	for _, b := range r.Buffers {
		s += b.Bytes
	}
	return s
}

// String summarizes the plan.
func (r *Result) String() string {
	return fmt.Sprintf("peak %.1f MB at step %d/%d (%d buffers, %.1f MB allocated)",
		float64(r.PeakBytes)/1e6, r.PeakStep, r.Steps, len(r.Buffers),
		float64(r.TotalAllocated())/1e6)
}
