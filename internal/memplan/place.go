package memplan

import "slices"

// Placement is an offset assignment of a set of training intervals inside one
// slab: the runtime arena carves every planned buffer at its offset, so the
// intervals decide where a buffer lives as well as when it dies.
//
// Offsets and sizes are in per-sample elements. Every interval is an [N, …]
// map, so at batch N buffer i spans [N·Offsets[i], N·(Offsets[i]+SampleElems))
// of a slab of N·Slab elements, and the assignment holds at any batch.
//
// No buffer straddles a multiple of Seg, the largest interval's size, so the
// slab can be stored as segments of Seg elements, none larger than the
// largest buffer.
type Placement struct {
	Offsets []int // Offsets[i] is interval i's start
	Slab    int   // the slab's extent: the largest Offsets[i]+SampleElems
	Seg     int   // the segment length no interval crosses
}

// SampleElems is an interval's size in elements per sample (its node's
// output shape without the batch dimension).
func (iv Interval) SampleElems() int {
	n := 1
	for _, d := range iv.Node.OutShape[1:] {
		n *= d
	}
	return n
}

// overlaps reports whether two intervals are live at a common step.
func (iv Interval) overlaps(o Interval) bool { return iv.Start <= o.End && o.Start <= iv.End }

// Place assigns every interval an offset by greedy-by-size placement
// (Pisarchyk & Lee, Efficient Memory Management for Deep Neural Net
// Inference, arXiv:2001.03288): intervals go largest first, ties in the
// order of ivs, and each takes the lowest offset at which it overlaps, in
// both time and space, none of the intervals already placed, and crosses no
// multiple of Seg. The slab can exceed the peak of the live bytes
// (PlanTraining's PeakBytes) when no packing of the sizes fits the peak
// exactly; it never falls below it.
func Place(ivs []Interval) Placement {
	size := make([]int, len(ivs))
	order := make([]int, len(ivs))
	for i, iv := range ivs {
		size[i], order[i] = iv.SampleElems(), i
	}
	slices.SortStableFunc(order, func(x, y int) int { return size[y] - size[x] })

	p := Placement{Offsets: make([]int, len(ivs))}
	if len(ivs) > 0 {
		p.Seg = size[order[0]]
	}
	byOff := make([]int, 0, len(ivs)) // placed intervals in ascending offset order
	for _, i := range order {
		off := 0
		// inSeg moves off to the next segment if [off, off+size) would cross
		// into it. No placed interval crosses one either, so every interval
		// already scanned past ends at or below the new off.
		inSeg := func() {
			if size[i] > 0 && off/p.Seg != (off+size[i]-1)/p.Seg {
				off = (off/p.Seg + 1) * p.Seg
			}
		}
		for _, j := range byOff {
			if !ivs[i].overlaps(ivs[j]) {
				continue
			}
			if inSeg(); p.Offsets[j] >= off+size[i] {
				break // the gap below j fits
			}
			off = max(off, p.Offsets[j]+size[j])
		}
		inSeg()
		p.Offsets[i] = off
		p.Slab = max(p.Slab, off+size[i])
		k, _ := slices.BinarySearchFunc(byOff, off, func(j, o int) int { return p.Offsets[j] - o })
		byOff = slices.Insert(byOff, k, i)
	}
	return p
}
