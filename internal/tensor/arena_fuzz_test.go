package tensor

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// arenaSizes are the request lengths FuzzArena draws from: small enough that
// ranges split and coalesce often, varied enough that best fit has choices,
// and 0 for a tensor with an empty dimension.
var arenaSizes = [...]int{0, 1, 2, 3, 5, 8, 13}

// arenaBuf is one buffer a fuzz run holds: a live tensor, live float scratch,
// or a detached tensor, plus the value every element was filled with.
type arenaBuf struct {
	t     *Tensor
	f     []float32 // float scratch
	fill  float32
	loose bool // a transient holding a slab range since the last Expect
}

func (b arenaBuf) data() []float32 {
	if b.t != nil {
		return b.t.Data
	}
	return b.f
}

// arenaPlans are the (need, seg) pairs a PlacePass op asks for: 0 begins an
// unplaced pass, 48 outgrows a slab reserved at 24 (and replaces it if no
// range of it is checked out), and the segment lengths fit or do not fit a
// slab reserved in segments of 24 or 8.
var arenaPlans = [...]struct{ need, seg int }{{0, 0}, {24, 24}, {48, 48}, {24, 8}, {12, 4}}

// runArenaOps decodes ops as (opcode, argument) byte pairs, drives a fresh
// arena with them, and checks the arena's invariants after every call. It
// returns the (chunk, offset) of every range handed out, in order.
//
// It models placement alongside: the slab's segments (chunks appended by the
// reserving PlacePass), the current pass's segment length, and the slots
// Expect queued in a placed pass, the first of a Get's length used up by that
// Get. A Get whose slot range lies inside one segment and is free must land
// exactly there; a slot that was not free, over a checked-out range or a
// segment end, must count one place miss and land outside the slab. Any
// other request in a placed pass is a transient:
// it may land in the slab, but outside every slot still queued, and if it
// still holds that range at the next Expect it counts exactly one place miss.
func runArenaOps(t *testing.T, ops []byte) []span {
	a := NewArena()
	var live, detached []arenaBuf
	var layout []span
	var queue []Slot // the model of a.queue
	var segs []int   // the slab's segment lengths, chunks base, base+1, …
	base, resNeed, resSeg, pass := 0, 0, 0, 0
	next := float32(1)
	inSlab := func(s span) bool { return s.chunk >= base && s.chunk < base+len(segs) }
	// slotSpan is where a free slot [off, off+n) of the pass must land.
	slotSpan := func(off, n int) (span, bool) {
		s := span{base + off/pass, off % pass, n}
		if !inSlab(s) || s.off+n > segs[s.chunk-base] {
			return s, false
		}
		for _, b := range live {
			var o span
			if b.t != nil {
				o = a.owned[b.t]
			} else {
				o = a.ownedF[&b.f[0]]
			}
			if o.chunk == s.chunk && o.n > 0 && o.off < s.off+n && s.off < o.off+o.n {
				return s, false
			}
		}
		return s, true
	}
	// transient checks a non-slot request's span against the queue and
	// reports whether it holds a range of the slab.
	transient := func(what string, s span) bool {
		if pass == 0 || s.n == 0 || !inSlab(s) {
			return false
		}
		for _, q := range queue {
			o := span{base + q.Off/pass, q.Off % pass, q.Len}
			if o.chunk == s.chunk && o.n > 0 && o.off < s.off+s.n && s.off < o.off+o.n {
				t.Fatalf("%s took %v of the slab over the queued slot %v", what, s, q)
			}
		}
		return true
	}
	take := func(arg byte, tensors bool) (int, bool) {
		var idx []int
		for i, b := range live {
			if (b.t != nil) == tensors {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return 0, false
		}
		return idx[int(arg)%len(idx)], true
	}
	handOut := func(b arenaBuf, s span) {
		d := b.data()
		if cap(d) != len(d) {
			t.Fatalf("handed-out slice has len %d cap %d: an append could reach a neighbour", len(d), cap(d))
		}
		for i, v := range d {
			if v != 0 {
				t.Fatalf("fresh buffer element %d = %v, want 0", i, v)
			}
		}
		b.fill = next
		next++
		for i := range d {
			d[i] = b.fill
		}
		live = append(live, b)
		layout = append(layout, s)
	}
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k]%10, ops[k+1]
		n := arenaSizes[int(arg)%len(arenaSizes)]
		switch op {
		case 0: // Get, at its queued slot if the model says the slot is free
			slot := slices.IndexFunc(queue, func(s Slot) bool { return s.Len == n })
			misses := a.Stats().PlaceMisses
			if pass == 0 || n == 0 {
				slot = -1
			}
			var want span
			free := false
			if slot >= 0 {
				want, free = slotSpan(queue[slot].Off, n)
				queue = slices.Delete(queue, slot, slot+1)
			}
			g := a.Get(n)
			s := a.owned[g]
			loose := false
			switch {
			case free && s != want:
				t.Fatalf("Get(%d) took %v, its free slot is %v", n, s, want)
			case slot >= 0 && !free && inSlab(s):
				t.Fatalf("Get(%d) with no free slot took %v of the slab", n, s)
			case slot < 0:
				loose = transient(fmt.Sprintf("Get(%d)", n), s)
			}
			if got, wantMiss := a.Stats().PlaceMisses-misses, slot >= 0 && !free; got != 0 != wantMiss {
				t.Fatalf("Get(%d): %d place misses, slot fell back: %v", n, got, wantMiss)
			}
			handOut(arenaBuf{t: g, loose: loose}, s)
		case 1, 6: // Floats (6 was once int32 scratch; it decodes as Floats so old inputs replay)
			f := a.Floats(n)
			if n == 0 {
				if f != nil {
					t.Fatalf("op %d of 0 elements = %v, want nil", op, f)
				}
				break
			}
			s := a.ownedF[&f[0]]
			handOut(arenaBuf{f: f, loose: transient(fmt.Sprintf("op %d of %d", op, n), s)}, s)
		case 2: // Put, twice: the second must be a no-op
			if i, ok := take(arg, true); ok {
				a.Put(live[i].t)
				a.Put(live[i].t)
				live = slices.Delete(live, i, i+1)
			}
		case 3: // PutFloats
			if i, ok := take(arg, false); ok {
				a.PutFloats(live[i].f)
				live = slices.Delete(live, i, i+1)
			}
		case 4: // Detach
			if i, ok := take(arg, true); ok {
				a.Detach(live[i].t)
				detached = append(detached, live[i])
				live = slices.Delete(live, i, i+1)
			}
		case 5, 9: // stray Puts of buffers the arena does not own (9 once toggled a since-deleted allocation mode; it decodes as stray Puts so old inputs replay)
			a.Put(New(n))
			a.PutFloats(make([]float32, n))
			if len(detached) > 0 {
				a.Put(detached[int(arg)%len(detached)].t)
			}
			if i, ok := take(arg, true); ok {
				v, err := live[i].t.Reshape(live[i].t.NumElems())
				if err != nil {
					t.Fatal(err)
				}
				a.Put(v)
			}
			if i, ok := take(arg, false); ok && len(live[i].f) > 1 {
				a.PutFloats(live[i].f[1:])
				a.PutFloats(live[i].f[:1])
			}
		case 7: // PlacePass: reserve, place, outgrow, or end placing
			pl := arenaPlans[int(arg)%len(arenaPlans)]
			misses, chunks := a.Stats().PlaceMisses, len(a.chunks)
			slabFree := true
			for _, b := range live {
				o := a.owned[b.t]
				if b.t == nil {
					o = a.ownedF[&b.f[0]]
				}
				slabFree = slabFree && !(o.n > 0 && inSlab(o))
			}
			outgrown := segs != nil && (pl.need > resNeed || pl.seg > resSeg)
			a.PlacePass(pl.need, pl.seg)
			queue, pass = queue[:0], 0
			if pl.need > 0 && (segs == nil || outgrown && slabFree) {
				segs = nil
				base, resNeed, resSeg = chunks, pl.need, pl.seg
				for off := 0; off < pl.need; off += pl.seg {
					segs = append(segs, min(pl.seg, pl.need-off))
				}
			}
			if pl.need > 0 && pl.need <= resNeed && pl.seg <= resSeg {
				pass = pl.seg
			}
			if a.pass != pass || a.Stats().SlabBytes != 4*int64(resNeed) {
				t.Fatalf("PlacePass(%d, %d) over a slab of %d in segments of %d: pass %d, %+v",
					pl.need, pl.seg, resNeed, resSeg, a.pass, a.Stats())
			}
			if got := a.Stats().PlaceMisses - misses; got != 0 != (pl.need > 0 && pass == 0) {
				t.Fatalf("PlacePass(%d, %d): %d place misses", pl.need, pl.seg, got)
			}
		case 8: // Expect two slots, at any offset: over checked-out ranges and past the slab end too
			slots := []Slot{{Off: int(arg) % 27, Len: n}, {Off: int(arg>>3) % 27, Len: arenaSizes[int(arg>>5)%len(arenaSizes)]}}
			scale := 1 + int(arg>>7)
			misses, holding := a.Stats().PlaceMisses, 0
			for i := range live {
				if live[i].loose {
					holding++
					live[i].loose = false
				}
			}
			a.Expect(slots, scale)
			if got := a.Stats().PlaceMisses - misses; got != int64(holding) {
				t.Fatalf("Expect with %d transients holding the slab: %d place misses", holding, got)
			}
			queue = queue[:0]
			if pass > 0 {
				for _, s := range slots {
					queue = append(queue, Slot{s.Off * scale, s.Len * scale})
				}
			}
		}
		checkArena(t, a, live, detached)
	}
	return layout
}

// checkArena asserts the invariants that must hold between any two calls.
func checkArena(t *testing.T, a *Arena, live, detached []arenaBuf) {
	t.Helper()
	type addrRange struct{ lo, hi uintptr }
	var ranges []addrRange
	var inUse int64
	for _, b := range live {
		d := b.data()
		if len(d) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(d)))
			ranges = append(ranges, addrRange{lo, lo + 4*uintptr(len(d))})
		}
		inUse += 4 * int64(len(d))
		for i, v := range d {
			if v != b.fill {
				t.Fatalf("live buffer element %d = %v, want its fill %v: another buffer wrote into it", i, v, b.fill)
			}
		}
	}
	slices.SortFunc(ranges, func(x, y addrRange) int {
		if x.lo < y.lo {
			return -1
		}
		if x.lo > y.lo {
			return 1
		}
		return 0
	})
	for i := 1; i < len(ranges); i++ {
		if ranges[i].lo < ranges[i-1].hi {
			t.Fatalf("live ranges overlap: %#x..%#x and %#x..%#x", ranges[i-1].lo, ranges[i-1].hi, ranges[i].lo, ranges[i].hi)
		}
	}
	for _, b := range detached {
		for i, v := range b.t.Data {
			if v != b.fill {
				t.Fatalf("detached element %d = %v, want %v", i, v, b.fill)
			}
		}
	}
	s := a.Stats()
	if s.BytesInUse != inUse {
		t.Fatalf("BytesInUse = %d, live buffers hold %d", s.BytesInUse, inUse)
	}
	if s.HeldBytes < s.BytesInUse {
		t.Fatalf("HeldBytes %d < BytesInUse %d", s.HeldBytes, s.BytesInUse)
	}
}

// FuzzArena drives the range allocator with arbitrary Get / Floats / Put /
// PutFloats / Detach / stray-Put / PlacePass / Expect sequences and
// checks, after every call, that live ranges never overlap or get
// overwritten, that every handed-out buffer reads all zeros, that placed Gets
// take exactly their free slots and fall back otherwise, that transients
// keep clear of queued slots and count a place miss for each slab range they
// still hold at the next Expect, that BytesInUse is the sum of
// live lengths and HeldBytes covers it, and that replaying the sequence on a
// fresh arena hands out the same (chunk, offset) layout.
func FuzzArena(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 0, 3, 2, 1, 0, 0, 2, 0, 2, 0, 0, 5})
	f.Add([]byte{1, 5, 1, 2, 0, 4, 3, 0, 4, 0, 1, 1, 5, 1, 3, 0, 0, 5})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 2, 1, 2, 0, 2, 0, 0, 4, 6, 3, 5, 2})
	// A placed pass over a 24-element slab: slots {6, 5} and {7, 1}, a Get
	// of each (the second falls back: the first holds its range), scratch,
	// an outgrown plan, then an unplaced pass Getting from the slab.
	f.Add([]byte{7, 1, 8, 60, 0, 4, 0, 1, 1, 3, 7, 2, 7, 0, 0, 6, 2, 0, 0, 6})
	// A slab in segments of 8: slots {1, 5} and {13, 3} land in segments 0
	// and 1; {6, 5} crosses a segment end and falls back, {7, 1} fits; then
	// a pass in segments of 4 finds the first slot taken and the second past
	// the slab's three segments.
	f.Add([]byte{7, 3, 8, 109, 0, 4, 0, 3, 8, 60, 0, 4, 0, 1, 7, 4, 8, 109, 0, 4, 0, 3})
	// Transients in a placed pass: after slots {6, 5} and {7, 1}, scratch of
	// 3 lands at [0, 3) clear of both, the slot Get takes [6, 11), a Get of 8
	// no slot is queued for takes [11, 19) of the slab and still holds it at
	// the next Expect (one place miss); then scratch and a Get in that step.
	f.Add([]byte{7, 1, 8, 60, 1, 3, 0, 4, 0, 5, 3, 0, 8, 60, 1, 2, 0, 5, 2, 0, 2, 0, 3, 0})
	// A Get takes its slot while scratch of 13 and of 2 fills the slab's
	// gaps around it; then, after the next Expect and an unplaced pass,
	// scratch and a Get use the slab as free space.
	f.Add([]byte{7, 1, 8, 60, 0, 4, 1, 6, 6, 2, 8, 109, 6, 2, 0, 4, 3, 0, 7, 0, 1, 6, 0, 5})
	// A plan of 48 over the 24-element slab: unplaced while a slot Get holds
	// a range of it, then, once that is put, a new slab replaces the old.
	f.Add([]byte{7, 1, 8, 60, 0, 4, 7, 2, 2, 0, 7, 2, 8, 60, 0, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// The checks cost O(live buffers) per call; past a few hundred calls
		// a longer input only slows the search down.
		ops = ops[:min(len(ops), 512)]
		first := runArenaOps(t, ops)
		if again := runArenaOps(t, ops); !slices.Equal(first, again) {
			t.Fatalf("replay handed out a different layout:\n%v\n%v", first, again)
		}
	})
}
