package tensor

import (
	"math"
	"slices"
)

// Arena is a deterministic best-fit range allocator for activation-sized
// buffers. It exists so a training loop's steady state performs (almost) no
// heap allocation: the executor requests every node output, gradient, and
// workspace from its arena and returns each buffer at its last-reader step
// (the same live intervals internal/memplan computes), so iteration k+1
// re-serves iteration k's storage instead of paying allocator+GC cost per
// mini-batch.
//
// Tensors and float32 scratch are carved from shared float32 chunks. Get and
// Floats take the smallest free range that fits (ties: lowest chunk, then
// lowest offset) and split off the unused tail; only when no free range fits
// is a new chunk of exactly the requested size allocated. Put and PutFloats
// return the range and coalesce it with its free neighbours within its
// chunk, so a freed buffer can serve any smaller request and adjacent frees
// merge back into one larger range.
//
// Best fit alone does not hold a training step at memplan's planned peak:
// every miss adds an exact-size chunk, free ranges in different chunks never
// merge, and the fragments grow the footprint 1.2–1.45× past the plan (4×
// over an inference pass of a DenseNet, whose maps grow along each block).
// So an executor places its planned buffers. PlacePass reserves one slab
// (on the first placed pass, sized for it, and anew for a larger pass when
// nothing is checked out of it), and Expect queues the
// (offset, length) slots memplan.Place assigned to the buffers born at the
// next schedule step. A tensor Get whose length matches a queued slot takes
// exactly that range of the slab if it is free, and falls back to best fit
// beside the slab otherwise, so a wrong plan costs placement, never
// correctness. Every other request in a placed pass — step workspace,
// Floats, a second consumer's transient gradient — is a transient of the
// current step: it takes the best-fitting free range, which may lie in the
// slab wherever no slot still queued for the step lies. A slab range such a
// request still holds at the next Expect counts a place miss, since a later
// slot may need it. In any other pass the slab is ordinary free space.
//
// The slab is one offset space stored as segments, one chunk each, no
// longer than the plan's largest buffer, which no slot straddles. One
// contiguous allocation of the whole slab (39 MiB on bn-heavy) sometimes
// found no free run of that length in a Go heap that earlier executors had
// left fragmented, and the heap grew by a whole second slab; segments ask
// the heap for no more than best fit asks for its largest chunk.
//
// Design constraints, in order:
//
//   - Deterministic: which range a request gets depends only on the sequence
//     of Get/Put calls, never on time, randomness, or map iteration order —
//     so arena-backed execution is bit-identical run to run.
//   - Safe against misuse: the arena tracks ownership of every buffer it has
//     handed out. Put of a foreign tensor, a double Put, or a Put of a view
//     is a no-op, so at worst a bug costs reuse, never a use-after-free of
//     memory the arena does not own. Every handed-out slice is capped at its
//     range (chunk[off:off+n:off+n]), so an append can never reach a
//     neighbouring buffer.
//   - Per-owner: an Arena is NOT safe for concurrent use. It must be owned by
//     one executor and called only from the dispatching goroutine — never
//     inside a parallel.Pool.Run closure. Workers that need per-chunk scratch
//     get it carved from a slab the dispatcher allocated (see
//     parallel.Pool.RunChunked).
//
// Reused ranges are zeroed, so Get is observationally identical to New and
// layers that rely on zero-initialized outputs (ReLU writes only positive
// elements) stay bit-identical. Built with the arenapoison tag, Put,
// PutFloats and Detach fill the released range with a NaN pattern, so a
// read after release shows up as a changed digest instead of silently
// reading a neighbouring buffer's values.
//
// The zero Arena is not usable; a nil *Arena is: every method degrades to the
// plain-allocation path (Get == New, Put == no-op), so layer code threads the
// pointer unconditionally, exactly like the nil obs.Tracer contract.
type Arena struct {
	chunks [][]float32 // float32 storage; chunks never move or shrink
	free   []span      // free ranges sorted by (chunk, off), neighbours coalesced
	hdrs   []*Tensor   // recycled tensor headers, LIFO

	// Placement (PlacePass, Expect): chunks[slab:slabEnd] are the slab's
	// segments, seg elements each but the last; slab is -1 until the first
	// placed pass reserves them. pass is the current pass's segment length,
	// 0 when the pass does not place; queue holds the slots Expect queued
	// for the current schedule step, and loose the slab ranges this step's
	// transients hold.
	slab, slabEnd, seg, pass int
	queue                    []Slot
	loose                    []span

	owned  map[*Tensor]span  // tensors currently checked out
	ownedF map[*float32]span // float32 scratch checked out, keyed by &s[0]

	hits        int64
	misses      int64
	placeMisses int64
	bytesInUse  int64
	peakBytes   int64
	heldBytes   int64
	slabBytes   int64
}

// Slot is one planned range of the placement slab: Len elements at element
// offset Off.
type Slot struct{ Off, Len int }

// span is the element range [off, off+n) of chunks[chunk].
type span struct{ chunk, off, n int }

// cmpSpan orders spans by chunk, then offset — the free list's sort key.
func cmpSpan(x, y span) int {
	if x.chunk != y.chunk {
		return x.chunk - y.chunk
	}
	return x.off - y.off
}

// poisonNaN is the quiet-NaN bit pattern an arenapoison build writes over
// released ranges.
const poisonNaN = 0x7fc0dead

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		slab:   -1,
		owned:  make(map[*Tensor]span),
		ownedF: make(map[*float32]span),
	}
}

// ArenaStats is a snapshot of an arena's counters.
type ArenaStats struct {
	Hits        int64 // Get/Floats calls served from storage the arena already held
	Misses      int64 // calls that fell through to a fresh heap allocation
	PlaceMisses int64 // placed Gets whose slot was not free, transients holding the slab at the next Expect, and passes whose plan outgrew the slab
	BytesInUse  int64 // bytes currently checked out (4 per element)
	PeakBytes   int64 // high-water mark of BytesInUse
	HeldBytes   int64 // every byte the arena owns, checked out or free, slab included
	SlabBytes   int64 // the placement slab's size; 0 before PlacePass reserves it
}

// Stats returns a snapshot of the arena's counters; zero for a nil arena.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{Hits: a.hits, Misses: a.misses, PlaceMisses: a.placeMisses,
		BytesInUse: a.bytesInUse, PeakBytes: a.peakBytes, HeldBytes: a.heldBytes, SlabBytes: a.slabBytes}
}

// PlacePass begins a pass. need > 0 begins a placed pass whose Expect slots
// lie within need elements, none straddling a multiple of seg (seg <= 0:
// one segment). The first such call reserves a slab of exactly need
// elements in segments of seg. A later pass whose need or seg the slab
// cannot hold reserves a new slab the same way if no range of the old one is
// checked out, and lets the old one go; otherwise it is unplaced and counts a
// place miss. need <= 0 begins an unplaced pass, in which the slab is
// ordinary free space.
func (a *Arena) PlacePass(need, seg int) {
	if a == nil {
		return
	}
	a.queue = a.queue[:0]
	a.pass = 0
	if need <= 0 {
		return
	}
	if seg <= 0 || seg > need {
		seg = need
	}
	if a.slab >= 0 && (4*int64(need) > a.slabBytes || seg > a.seg) {
		if !a.slabFree() {
			a.placeMisses++
			return
		}
		a.dropSlab()
	}
	if a.slab < 0 {
		a.slab, a.seg = len(a.chunks), seg
		for off := 0; off < need; off += seg {
			n := min(seg, need-off)
			a.chunks = append(a.chunks, make([]float32, n))
			a.free = append(a.free, span{len(a.chunks) - 1, 0, n}) // the highest chunk sorts last
		}
		a.slabEnd = len(a.chunks)
		a.slabBytes = 4 * int64(need)
		a.heldBytes += a.slabBytes
	}
	a.pass = seg
}

// slabFree reports whether no range of the slab is checked out: each of its
// segments is one whole free range.
func (a *Arena) slabFree() bool {
	for c := a.slab; c < a.slabEnd; c++ {
		i, found := slices.BinarySearchFunc(a.free, span{c, 0, 0}, cmpSpan)
		if !found || a.free[i].n != len(a.chunks[c]) {
			return false
		}
	}
	return true
}

// dropSlab lets go of a free slab: its segments leave the free list, and
// their chunks the arena. The emptied chunk entries stay, so no other
// chunk's index moves.
func (a *Arena) dropSlab() {
	i, _ := slices.BinarySearchFunc(a.free, span{a.slab, 0, 0}, cmpSpan)
	a.free = slices.Delete(a.free, i, i+a.slabEnd-a.slab)
	for c := a.slab; c < a.slabEnd; c++ {
		a.chunks[c] = nil
	}
	a.heldBytes -= a.slabBytes
	a.slab, a.slabEnd, a.slabBytes = -1, 0, 0
}

// inSlab reports whether chunk c is a segment of the slab.
func (a *Arena) inSlab(c int) bool { return c >= a.slab && c < a.slabEnd }

// Expect begins a schedule step: every slab range a transient of the step
// before still holds counts a place miss, and the queue of slots the next
// tensor Gets may take becomes slots, each offset and length multiplied by
// scale (slots are planned per sample; scale is the batch). Outside a placed
// pass the queue stays empty.
func (a *Arena) Expect(slots []Slot, scale int) {
	if a == nil {
		return
	}
	a.placeMisses += int64(len(a.loose))
	a.loose = a.loose[:0]
	a.queue = a.queue[:0]
	if a.pass == 0 {
		return
	}
	for _, s := range slots {
		a.queue = append(a.queue, Slot{s.Off * scale, s.Len * scale})
	}
}

// checkOut books n freshly handed-out elements (4 bytes each).
func (a *Arena) checkOut(n int) {
	a.bytesInUse += 4 * int64(n)
	if a.bytesInUse > a.peakBytes {
		a.peakBytes = a.bytesInUse
	}
}

// slotSpan is where a queued slot lies: offset Off is element Off mod the
// pass's segment length of segment Off div it. The span may lie past the
// slab or cross a segment end; carveGet then finds no free range for it.
func (a *Arena) slotSpan(q Slot) span {
	return span{a.slab + q.Off/a.pass, q.Off % a.pass, q.Len}
}

// carve hands out a zeroed range of n elements: the best-fitting free range,
// split if larger, or else a new chunk of exactly n. In a placed pass a slab
// range is a candidate only for a transient (gap), and only where no queued
// slot lies; the range it takes is recorded as loose until it is released.
// Zero elements take no range.
func (a *Arena) carve(n int, gap bool) ([]float32, span) {
	if n == 0 {
		a.hits++
		return nil, span{chunk: -1}
	}
	best, at := span{n: -1}, -1
	fits := func(c span, i int) bool {
		if c.n >= n && (at < 0 || c.n < best.n) {
			best, at = c, i
		}
		return best.n == n // an exact fit; earlier ones would have stopped the scan
	}
	for i, f := range a.free {
		if a.pass == 0 || !a.inSlab(f.chunk) {
			if fits(f, i) {
				break
			}
			continue
		}
		if !gap {
			continue
		}
		// The pieces of f between the queued slots, lowest first.
		end, exact := f.off+f.n, false
		for lo := f.off; lo < end && !exact; {
			hi, next := end, end
			for _, q := range a.queue {
				if s := a.slotSpan(q); s.chunk == f.chunk && s.n > 0 && s.off < hi && s.off+s.n > lo {
					hi, next = max(s.off, lo), s.off+s.n
				}
			}
			exact = fits(span{f.chunk, lo, hi - lo}, i)
			lo = next
		}
		if exact {
			break
		}
	}
	if at < 0 {
		a.chunks = append(a.chunks, make([]float32, n))
		a.heldBytes += 4 * int64(n)
		a.misses++
		s := span{len(a.chunks) - 1, 0, n}
		return a.chunks[s.chunk][:n:n], s
	}
	s := span{best.chunk, best.off, n}
	a.take(at, s)
	if a.pass > 0 && a.inSlab(s.chunk) {
		a.loose = append(a.loose, s)
	}
	buf := a.chunks[s.chunk][s.off : s.off+n : s.off+n]
	clear(buf)
	return buf, s
}

// take removes s from the free range a.free[i], which holds it, and counts
// a hit.
func (a *Arena) take(i int, s span) {
	f := a.free[i]
	lo := span{f.chunk, f.off, s.off - f.off}
	hi := span{f.chunk, s.off + s.n, f.off + f.n - s.off - s.n}
	switch {
	case lo.n == 0 && hi.n == 0:
		a.free = slices.Delete(a.free, i, i+1)
	case lo.n == 0:
		a.free[i] = hi
	case hi.n == 0:
		a.free[i] = lo
	default:
		a.free[i] = lo
		a.free = slices.Insert(a.free, i+1, hi)
	}
	a.hits++
}

// carveGet hands out a zeroed range of n elements for a tensor Get: the first
// queued slot of length n if its range of the slab is free. The slot is used
// up either way; a slot that is not free counts a place miss and falls back
// to best fit beside the slab. A Get no slot is queued for is a transient
// (carve).
func (a *Arena) carveGet(n int) ([]float32, span) {
	q := -1
	if n > 0 {
		q = slices.IndexFunc(a.queue, func(s Slot) bool { return s.Len == n })
	}
	if q < 0 {
		return a.carve(n, true)
	}
	s := a.slotSpan(a.queue[q])
	a.queue = slices.Delete(a.queue, q, q+1)
	// The free span that could hold s is the last one starting at or below it.
	i, found := slices.BinarySearchFunc(a.free, s, cmpSpan)
	if !found {
		i--
	}
	if !a.inSlab(s.chunk) || i < 0 || a.free[i].chunk != s.chunk || a.free[i].off+a.free[i].n < s.off+n {
		a.placeMisses++
		return a.carve(n, false)
	}
	a.take(i, s)
	buf := a.chunks[s.chunk][s.off : s.off+n : s.off+n]
	clear(buf)
	return buf, s
}

// release returns a range to the free list, merged with any free neighbour in
// the same chunk.
func (a *Arena) release(s span) {
	if s.n == 0 {
		return // a zero-element tensor holds no range; keep the list free of empty entries
	}
	if i := slices.Index(a.loose, s); i >= 0 {
		a.loose = slices.Delete(a.loose, i, i+1)
	}
	if poisonReleased {
		r := a.chunks[s.chunk][s.off : s.off+s.n]
		for i := range r {
			r[i] = math.Float32frombits(poisonNaN)
		}
	}
	i, _ := slices.BinarySearchFunc(a.free, s, cmpSpan)
	if i < len(a.free) {
		if next := a.free[i]; next.chunk == s.chunk && next.off == s.off+s.n {
			s.n += next.n
			a.free = slices.Delete(a.free, i, i+1)
		}
	}
	if i > 0 {
		if prev := &a.free[i-1]; prev.chunk == s.chunk && prev.off+prev.n == s.off {
			prev.n += s.n
			return
		}
	}
	a.free = slices.Insert(a.free, i, s)
}

// Get returns a zero-filled tensor of the given shape carved from the
// arena's chunks: at its queued slot of the slab in a placed pass (see
// Expect), else best fit (see carveGet). A nil arena returns New(shape...).
func (a *Arena) Get(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	ne := Shape(shape).NumElems()
	data, s := a.carveGet(ne)
	var t *Tensor
	if k := len(a.hdrs); k > 0 {
		// Reuse a recycled header and its shape slice when it has capacity,
		// so a steady-state hit performs zero heap allocations.
		t = a.hdrs[k-1]
		a.hdrs = a.hdrs[:k-1]
		t.Data = data
		if cap(t.shape) >= len(shape) {
			t.shape = t.shape[:len(shape)]
			copy(t.shape, shape)
		} else {
			t.shape = Shape(shape).Clone()
		}
	} else {
		t = &Tensor{Data: data, shape: Shape(shape).Clone()}
	}
	a.owned[t] = s
	a.checkOut(ne)
	return t
}

// Put returns a tensor obtained from Get to the arena. Puts of nil, foreign,
// already-returned, or view tensors are no-ops, so release paths may be
// conservative without risking a double free.
func (a *Arena) Put(t *Tensor) {
	if a == nil || t == nil {
		return
	}
	s, ok := a.owned[t]
	if !ok {
		return
	}
	delete(a.owned, t)
	a.bytesInUse -= 4 * int64(s.n)
	a.release(s)
	a.hdrs = append(a.hdrs, t)
}

// Detach releases the arena's claim on a checked-out tensor: its values move
// to a fresh heap slice, which the tensor keeps, and its range returns to the
// arena. The tensor leaves the arena for good and becomes ordinary
// GC-managed memory. The executor detaches the graph output it hands to the
// caller, whose lifetime the schedule no longer bounds. No-op for buffers the
// arena does not own.
func (a *Arena) Detach(t *Tensor) {
	if a == nil || t == nil {
		return
	}
	s, ok := a.owned[t]
	if !ok {
		return
	}
	delete(a.owned, t)
	a.bytesInUse -= 4 * int64(s.n)
	t.Data = slices.Clone(t.Data)
	a.release(s)
}

// Floats returns a zero-filled float32 scratch slice of length n carved from
// the arena's chunks. Layers use it for reduction partials and per-chunk
// workspace slabs. A nil arena falls back to make.
func (a *Arena) Floats(n int) []float32 {
	if n <= 0 {
		return nil
	}
	if a == nil {
		return make([]float32, n)
	}
	buf, s := a.carve(n, true)
	a.ownedF[&buf[0]] = s
	a.checkOut(n)
	return buf
}

// PutFloats returns a slice obtained from Floats; no-op for nil, empty,
// resliced, or foreign slices.
func (a *Arena) PutFloats(buf []float32) {
	if a == nil || len(buf) == 0 {
		return
	}
	s, ok := a.ownedF[&buf[0]]
	if !ok || s.n != len(buf) {
		return
	}
	delete(a.ownedF, &buf[0])
	a.bytesInUse -= 4 * int64(s.n)
	a.release(s)
}

// Clone copies t into an arena-managed tensor (Get + copy).
func (a *Arena) Clone(t *Tensor) *Tensor {
	c := a.Get(t.shape...)
	copy(c.Data, t.Data)
	return c
}
