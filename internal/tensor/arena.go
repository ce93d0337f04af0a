package tensor

import (
	"math"
	"slices"
)

// Arena is a deterministic best-fit range allocator for activation-sized
// buffers. It exists so a training loop's steady state performs (almost) no
// heap allocation: the executor requests every node output, x̂ map, gradient,
// and workspace from its arena and returns each buffer at its last-reader step
// (the same live intervals internal/memplan computes), so iteration k+1
// re-serves iteration k's storage instead of paying allocator+GC cost per
// mini-batch.
//
// Tensors and float32 scratch are carved from shared float32 chunks. Get and
// Floats take the smallest free range that fits (ties: lowest chunk, then
// lowest offset) and split off the unused tail; only when no free range fits
// is a new chunk of exactly the requested size allocated. Put and PutFloats
// return the range and coalesce it with its free neighbours, so a freed
// buffer can serve any smaller request and adjacent frees merge back into one
// larger range. The arena therefore holds about memplan's planned peak, not
// one buffer per distinct size. Int32 scratch (pooling argmax indices) is
// small and keeps exact-size LIFO free lists.
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
	chunks [][]float32       // float32 storage; chunks never move or shrink
	free   []span            // free ranges sorted by (chunk, off), neighbours coalesced
	hdrs   []*Tensor         // recycled tensor headers, LIFO
	freeI  map[int][][]int32 // recycled int32 scratch by length, LIFO

	owned  map[*Tensor]span  // tensors currently checked out
	ownedF map[*float32]span // float32 scratch checked out, keyed by &s[0]
	ownedI map[*int32]int    // int32 scratch checked out, keyed by &s[0]

	hits       int64
	misses     int64
	bytesInUse int64
	peakBytes  int64
	heldBytes  int64
}

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
		freeI:  make(map[int][][]int32),
		owned:  make(map[*Tensor]span),
		ownedF: make(map[*float32]span),
		ownedI: make(map[*int32]int),
	}
}

// ArenaStats is a snapshot of an arena's counters.
type ArenaStats struct {
	Hits       int64 // Get/Floats/Ints calls served from storage the arena already held
	Misses     int64 // calls that fell through to a fresh heap allocation
	BytesInUse int64 // bytes currently checked out (4 per element)
	PeakBytes  int64 // high-water mark of BytesInUse
	HeldBytes  int64 // every byte the arena owns, checked out or free, Ints included
}

// Stats returns a snapshot of the arena's counters; zero for a nil arena.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{Hits: a.hits, Misses: a.misses, BytesInUse: a.bytesInUse,
		PeakBytes: a.peakBytes, HeldBytes: a.heldBytes}
}

// checkOut books n freshly handed-out elements (4 bytes each).
func (a *Arena) checkOut(n int) {
	a.bytesInUse += 4 * int64(n)
	if a.bytesInUse > a.peakBytes {
		a.peakBytes = a.bytesInUse
	}
}

// carve hands out a zeroed range of n elements: the best-fitting free range,
// split if larger, or else a new chunk of exactly n.
func (a *Arena) carve(n int) ([]float32, span) {
	best := -1
	for i, f := range a.free {
		if f.n >= n && (best < 0 || f.n < a.free[best].n) {
			best = i
			if f.n == n {
				break // an exact fit; earlier ones would have stopped the scan
			}
		}
	}
	if best < 0 {
		a.chunks = append(a.chunks, make([]float32, n))
		a.heldBytes += 4 * int64(n)
		a.misses++
		s := span{len(a.chunks) - 1, 0, n}
		return a.chunks[s.chunk][:n:n], s
	}
	f := a.free[best]
	if f.n == n {
		a.free = slices.Delete(a.free, best, best+1)
	} else {
		a.free[best] = span{f.chunk, f.off + n, f.n - n}
	}
	a.hits++
	buf := a.chunks[f.chunk][f.off : f.off+n : f.off+n]
	clear(buf)
	return buf, span{f.chunk, f.off, n}
}

// release returns a range to the free list, merged with any free neighbour in
// the same chunk.
func (a *Arena) release(s span) {
	if s.n == 0 {
		return // a zero-element tensor holds no range; keep the list free of empty entries
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
// arena's chunks (see carve). A nil arena returns New(shape...).
func (a *Arena) Get(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	ne := Shape(shape).NumElems()
	data, s := a.carve(ne)
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
	t.Data = slices.Clone(a.chunks[s.chunk][s.off : s.off+s.n])
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
	buf, s := a.carve(n)
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

// Ints returns a zero-filled int32 scratch slice of length n (max-pooling
// argmax indices), recycled from an exact-size free list when possible.
func (a *Arena) Ints(n int) []int32 {
	if n <= 0 {
		return nil
	}
	if a == nil {
		return make([]int32, n)
	}
	var s []int32
	if list := a.freeI[n]; len(list) > 0 {
		s = list[len(list)-1]
		a.freeI[n] = list[:len(list)-1]
		clear(s)
		a.hits++
	} else {
		s = make([]int32, n)
		a.heldBytes += 4 * int64(n)
		a.misses++
	}
	a.ownedI[&s[0]] = n
	a.checkOut(n)
	return s
}

// PutInts returns a slice obtained from Ints; no-op for nil, empty, or
// foreign slices.
func (a *Arena) PutInts(s []int32) {
	if a == nil || len(s) == 0 {
		return
	}
	n, ok := a.ownedI[&s[0]]
	if !ok || n != len(s) {
		return
	}
	delete(a.ownedI, &s[0])
	a.bytesInUse -= 4 * int64(n)
	a.freeI[n] = append(a.freeI[n], s)
}

// Clone copies t into an arena-managed tensor (Get + copy).
func (a *Arena) Clone(t *Tensor) *Tensor {
	c := a.Get(t.shape...)
	copy(c.Data, t.Data)
	return c
}
