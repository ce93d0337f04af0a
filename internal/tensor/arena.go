package tensor

// Arena is a deterministic free-list allocator for activation-sized buffers.
// It exists so a training loop's steady state performs (almost) no heap
// allocation: the executor requests every node output, x̂ map, gradient, and
// workspace from its arena and returns each buffer at its last-reader step
// (the same live intervals internal/memplan computes), so iteration k+1
// re-serves iteration k's storage instead of paying allocator+GC cost per
// mini-batch.
//
// Design constraints, in order:
//
//   - Deterministic: free lists are exact-size LIFO stacks keyed by element
//     count. Which storage a Get returns depends only on the sequence of
//     Get/Put calls, never on time, randomness, or map iteration order — so
//     arena-backed execution is bit-identical run to run.
//   - Safe against misuse: the arena tracks ownership of every buffer it has
//     handed out. Put of a foreign tensor, a double Put, or a Put of a view
//     is a no-op, so at worst a bug costs reuse, never a use-after-free of
//     memory the arena does not own.
//   - Per-owner: an Arena is NOT safe for concurrent use. It must be owned by
//     one executor and called only from the dispatching goroutine — never
//     inside a parallel.Pool.Run closure. Workers that need per-chunk scratch
//     get it carved from a slab the dispatcher allocated (see
//     parallel.Pool.RunChunked).
//
// Reused buffers are zeroed, so Get is observationally identical to New and
// layers that rely on zero-initialized outputs (ReLU writes only positive
// elements) stay bit-identical.
//
// The zero Arena is not usable; a nil *Arena is: every method degrades to the
// plain-allocation path (Get == New, Put == no-op), so layer code threads the
// pointer unconditionally, exactly like the nil obs.Tracer contract.
type Arena struct {
	free  map[int][]*Tensor   // recycled tensors by element count, LIFO
	freeF map[int][][]float32 // recycled float32 scratch by length, LIFO
	freeI map[int][][]int32   // recycled int32 scratch by length, LIFO

	owned  map[*Tensor]struct{} // tensors currently checked out
	ownedF map[*float32]int     // float32 scratch checked out, keyed by &s[0]
	ownedI map[*int32]int       // int32 scratch checked out, keyed by &s[0]

	hits       int64
	misses     int64
	bytesInUse int64
	peakBytes  int64
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		free:   make(map[int][]*Tensor),
		freeF:  make(map[int][][]float32),
		freeI:  make(map[int][][]int32),
		owned:  make(map[*Tensor]struct{}),
		ownedF: make(map[*float32]int),
		ownedI: make(map[*int32]int),
	}
}

// ArenaStats is a snapshot of an arena's counters.
type ArenaStats struct {
	Hits       int64 // Get/Floats/Ints calls served from a free list
	Misses     int64 // calls that fell through to a fresh heap allocation
	BytesInUse int64 // bytes currently checked out (4 per element)
	PeakBytes  int64 // high-water mark of BytesInUse
}

// Stats returns a snapshot of the arena's counters; zero for a nil arena.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{Hits: a.hits, Misses: a.misses, BytesInUse: a.bytesInUse, PeakBytes: a.peakBytes}
}

// checkOut books n freshly handed-out elements (4 bytes each).
func (a *Arena) checkOut(n int) {
	a.bytesInUse += 4 * int64(n)
	if a.bytesInUse > a.peakBytes {
		a.peakBytes = a.bytesInUse
	}
}

// Get returns a tensor of the given shape: recycled storage when an
// exact-size buffer is free, a fresh allocation otherwise. The tensor is
// zero-filled. A nil arena returns New(shape...).
func (a *Arena) Get(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	ne := 1
	for _, d := range shape {
		ne *= d
	}
	var t *Tensor
	if list := a.free[ne]; len(list) > 0 {
		t = list[len(list)-1]
		a.free[ne] = list[:len(list)-1]
		// Reuse the recycled tensor's shape slice when it has capacity, so a
		// steady-state hit performs zero heap allocations.
		if cap(t.shape) >= len(shape) {
			t.shape = t.shape[:len(shape)]
			copy(t.shape, shape)
		} else {
			t.shape = Shape(shape).Clone()
		}
		t.Zero()
		a.hits++
	} else {
		t = &Tensor{Data: make([]float32, ne), shape: Shape(shape).Clone()}
		a.misses++
	}
	a.owned[t] = struct{}{}
	a.checkOut(ne)
	return t
}

// Put returns a tensor obtained from Get to the free list. Puts of nil,
// foreign, already-returned, or view tensors are no-ops, so release paths may
// be conservative without risking a double free.
func (a *Arena) Put(t *Tensor) {
	if a == nil || t == nil {
		return
	}
	if _, ok := a.owned[t]; !ok {
		return
	}
	delete(a.owned, t)
	a.bytesInUse -= 4 * int64(len(t.Data))
	a.free[len(t.Data)] = append(a.free[len(t.Data)], t)
}

// Detach releases the arena's claim on a checked-out tensor without recycling
// its storage: the tensor leaves the arena for good and becomes ordinary
// GC-managed memory. The executor detaches the graph output it hands to the
// caller, whose lifetime the schedule no longer bounds. No-op for buffers the
// arena does not own.
func (a *Arena) Detach(t *Tensor) {
	if a == nil || t == nil {
		return
	}
	if _, ok := a.owned[t]; !ok {
		return
	}
	delete(a.owned, t)
	a.bytesInUse -= 4 * int64(len(t.Data))
}

// Floats returns a zero-filled float32 scratch slice of length n, recycled
// when possible. Layers use it for reduction partials
// and per-chunk workspace slabs. A nil arena falls back to make.
func (a *Arena) Floats(n int) []float32 {
	if n <= 0 {
		return nil
	}
	if a == nil {
		return make([]float32, n)
	}
	var s []float32
	if list := a.freeF[n]; len(list) > 0 {
		s = list[len(list)-1]
		a.freeF[n] = list[:len(list)-1]
		clear(s)
		a.hits++
	} else {
		s = make([]float32, n)
		a.misses++
	}
	a.ownedF[&s[0]] = n
	a.checkOut(n)
	return s
}

// PutFloats returns a slice obtained from Floats; no-op for nil, empty, or
// foreign slices.
func (a *Arena) PutFloats(s []float32) {
	if a == nil || len(s) == 0 {
		return
	}
	n, ok := a.ownedF[&s[0]]
	if !ok || n != len(s) {
		return
	}
	delete(a.ownedF, &s[0])
	a.bytesInUse -= 4 * int64(n)
	a.freeF[n] = append(a.freeF[n], s)
}

// Ints returns a zero-filled int32 scratch slice of length n (max-pooling
// argmax indices), recycled when possible.
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
