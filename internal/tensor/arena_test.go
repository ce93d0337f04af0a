package tensor

import (
	"slices"
	"testing"
)

func TestArenaBestFit(t *testing.T) {
	a := NewArena()
	t8, t4, t6 := a.Get(8), a.Get(4), a.Get(2, 3)
	p8, p4, p6 := &t8.Data[0], &t4.Data[0], &t6.Data[0]
	a.Put(t8)
	a.Put(t4)
	a.Put(t6)

	// The smallest free range that fits wins, whatever the order of the Puts.
	g5 := a.Get(5)
	if &g5.Data[0] != p6 {
		t.Error("Get(5) did not take the 6-element range, the best fit")
	}
	if len(g5.Data) != 5 || cap(g5.Data) != 5 {
		t.Errorf("Get(5) handed out len %d cap %d, want 5 and 5", len(g5.Data), cap(g5.Data))
	}
	if g := a.Get(2, 2); &g.Data[0] != p4 || !g.Shape().Equal(Shape{2, 2}) {
		t.Errorf("Get(2, 2) = %v at another range, want the exact-fit 4-element range", g.Shape())
	}
	if g := a.Get(3); &g.Data[0] != p8 {
		t.Error("Get(3) did not split the 8-element range (the 1-element tail of the 6 is too small)")
	}
	if s := a.Stats(); s.Hits != 3 || s.Misses != 3 || s.HeldBytes != 4*18 {
		t.Errorf("stats = %+v, want 3 hits / 3 misses / 72 held bytes", s)
	}

	// Ties go to the lowest chunk, not to the most recent Put.
	b := NewArena()
	x, y := b.Get(4), b.Get(4)
	px := &x.Data[0]
	b.Put(x)
	b.Put(y)
	if g := b.Get(4); &g.Data[0] != px {
		t.Error("equal-size free ranges: Get did not take the lowest chunk")
	}
}

func TestArenaSplitCoalesce(t *testing.T) {
	a := NewArena()
	whole := a.Get(12)
	base := whole.Data
	a.Put(whole)

	x, y, z := a.Get(4), a.Get(4), a.Get(4)
	for i, g := range []*Tensor{x, y, z} {
		if &g.Data[0] != &base[4*i] {
			t.Fatalf("piece %d is not carved at offset %d of the freed range", i, 4*i)
		}
	}
	if s := a.Stats(); s.Misses != 1 || s.HeldBytes != 48 {
		t.Fatalf("stats = %+v, want 1 miss and 48 held bytes: the pieces must share one chunk", s)
	}
	y.Data[0] = 5
	_ = append(x.Data, 7) // capped at its range: reallocates, never touches y
	if y.Data[0] != 5 {
		t.Fatal("append to a handed-out slice overwrote its neighbour")
	}

	// Free the middle, then each side: both merges must fire.
	a.Put(y)
	a.Put(x)
	a.Put(z)
	if want := []span{{0, 0, 12}}; !slices.Equal(a.free, want) {
		t.Fatalf("free list = %v, want one coalesced range %v", a.free, want)
	}
	if g := a.Get(12); &g.Data[0] != &base[0] || a.Stats().Misses != 1 {
		t.Error("the coalesced range did not serve a full-size request")
	}
}

func TestArenaZeroOnReuse(t *testing.T) {
	a := NewArena()
	t1 := a.Get(3)
	t1.Data[1] = 42
	a.Put(t1)
	t2 := a.Get(3)
	if t2.Data[1] != 0 {
		t.Error("recycled buffer not zeroed")
	}
}

func TestArenaPutIsOwnershipChecked(t *testing.T) {
	a := NewArena()
	t1 := a.Get(5)
	a.Put(t1)
	a.Put(t1) // double Put: no-op
	if want := []span{{0, 0, 5}}; !slices.Equal(a.free, want) || a.Stats().BytesInUse != 0 {
		t.Errorf("after a double Put free list = %v, in use %d; want %v, 0", a.free, a.Stats().BytesInUse, want)
	}

	foreign := New(5)
	a.Put(foreign) // foreign tensor: no-op
	if len(a.free) != 1 || len(a.hdrs) != 1 {
		t.Error("Put of a foreign tensor entered the free list")
	}

	view := a.Get(4, 2)
	flat, err := view.Reshape(8)
	if err != nil {
		t.Fatal(err)
	}
	a.Put(flat) // view shares storage but is a distinct *Tensor: no-op
	if a.Stats().BytesInUse != 32 || len(a.free) != 1 {
		t.Error("Put of a view recycled shared storage")
	}
	a.Put(nil) // must not panic
}

func TestArenaDetach(t *testing.T) {
	a := NewArena()
	t1 := a.Get(6)
	for i := range t1.Data {
		t1.Data[i] = float32(i + 1)
	}
	if a.Stats().BytesInUse != 24 {
		t.Fatalf("bytes in use = %d, want 24", a.Stats().BytesInUse)
	}
	a.Detach(t1)
	if a.Stats().BytesInUse != 0 {
		t.Error("Detach did not release the bytes-in-use claim")
	}

	// The range goes back to the arena; the detached tensor keeps its values.
	t2 := a.Get(6)
	if a.Stats().Hits != 1 {
		t.Error("Detach pinned its range: the next equal-size Get missed")
	}
	t2.Fill(99)
	for i, v := range t1.Data {
		if v != float32(i+1) {
			t.Fatalf("detached value %d = %v after its range was reused, want %d", i, v, i+1)
		}
	}
	a.Put(t1) // detached tensor is foreign now: no-op
	if a.Stats().BytesInUse != 24 || len(a.free) != 0 {
		t.Error("Put after Detach recycled storage the arena gave up")
	}
}

func TestArenaScratchSlices(t *testing.T) {
	a := NewArena()
	f := a.Floats(4)
	f[0] = 1
	pf := &f[0]
	a.PutFloats(f)
	f2 := a.Floats(4)
	if &f2[0] != pf {
		t.Error("Floats did not recycle")
	}
	if f2[0] != 0 {
		t.Error("recycled float scratch not zeroed")
	}
	a.PutFloats(f2[:2]) // length mismatch with the checked-out slice: no-op
	if a.Stats().BytesInUse == 0 {
		t.Error("PutFloats of a resliced prefix was accepted")
	}
	a.PutFloats(f2)
	a.PutFloats(nil)
	if got := a.Stats().BytesInUse; got != 0 {
		t.Errorf("bytes in use after returning everything = %d", got)
	}
}

func TestArenaStatsBookkeeping(t *testing.T) {
	a := NewArena()
	t1 := a.Get(10)  // 40 bytes
	f := a.Floats(5) // +20 = 60
	if s := a.Stats(); s.BytesInUse != 60 || s.PeakBytes != 60 {
		t.Fatalf("stats = %+v, want 60 in use / 60 peak", s)
	}
	a.Put(t1)
	if s := a.Stats(); s.BytesInUse != 20 || s.PeakBytes != 60 {
		t.Fatalf("stats = %+v, want 20 in use / 60 peak", s)
	}
	a.PutFloats(f)
	t2 := a.Get(10)
	a.Put(t2)
	if s := a.Stats(); s.Hits != 1 || s.Misses != 2 || s.HeldBytes != 60 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses / 60 held bytes", s)
	}
	f2 := a.Floats(3) // scratch is carved from the tensors' chunks
	if s := a.Stats(); s.BytesInUse != 12 || s.Hits != 2 || s.HeldBytes != 60 {
		t.Errorf("stats = %+v, want 12 in use / 2 hits / 60 held bytes", s)
	}
	a.PutFloats(f2)
}

func TestArenaClone(t *testing.T) {
	a := NewArena()
	src := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	c := a.Clone(src)
	if &c.Data[0] == &src.Data[0] {
		t.Fatal("Clone shares storage with the source")
	}
	if d, _ := MaxAbsDiff(src, c); d != 0 {
		t.Error("Clone changed values")
	}
	a.Put(c)
	if want := []span{{0, 0, 4}}; !slices.Equal(a.free, want) {
		t.Errorf("free list after Put of the clone = %v, want %v: the clone is not arena-owned", a.free, want)
	}
}

func TestNilArenaDegradesToPlainAllocation(t *testing.T) {
	var a *Arena
	t1 := a.Get(2, 2)
	if t1 == nil || !t1.Shape().Equal(Shape{2, 2}) {
		t.Fatal("nil arena Get broken")
	}
	a.Put(t1)    // no-op, must not panic
	a.Detach(t1) // no-op
	if f := a.Floats(3); len(f) != 3 {
		t.Error("nil arena Floats broken")
	}
	a.PutFloats(nil)
	a.PlacePass(8, 8) // no-op
	a.Expect([]Slot{{0, 4}}, 1)
	c := a.Clone(t1)
	if d, _ := MaxAbsDiff(t1, c); d != 0 {
		t.Error("nil arena Clone broken")
	}
	if s := a.Stats(); s != (ArenaStats{}) {
		t.Errorf("nil arena stats = %+v, want zero", s)
	}
}

func TestArenaPlacement(t *testing.T) {
	a := NewArena()
	if a.PlacePass(16, 16); a.pass == 0 {
		t.Fatal("first placed pass did not place")
	}
	if s := a.Stats(); s.SlabBytes != 64 || s.HeldBytes != 64 {
		t.Fatalf("stats = %+v, want a 64-byte slab and nothing else", s)
	}
	slab := a.chunks[a.slab]
	a.Expect([]Slot{{Off: 2, Len: 3}, {Off: 8, Len: 4}}, 1)

	// A transient takes the best-fitting range of the slab that lies outside
	// every queued slot: [5, 8) of the pieces [0, 2), [5, 8), [12, 16).
	f3 := a.Floats(3)
	if &f3[0] != &slab[5] {
		t.Fatalf("scratch ahead of the slots took %v, want [5, 8)", a.ownedF[&f3[0]])
	}
	// Gets take their queued slot by length, whatever the order.
	g4 := a.Get(2, 2)
	g3 := a.Get(3)
	if &g4.Data[0] != &slab[8] || &g3.Data[0] != &slab[2] {
		t.Fatal("placed Gets did not take their slots")
	}
	// With the queue used up, a Get no slot is queued for and more scratch
	// fill the slab's gaps; once it is full, best fit adds a chunk beside it.
	h := a.Get(4)
	f2 := a.Floats(2)
	f1 := a.Floats(1)
	if &h.Data[0] != &slab[12] || &f2[0] != &slab[0] || a.inSlab(a.ownedF[&f1[0]].chunk) {
		t.Fatalf("transients took %v, %v and %v", a.owned[h], a.ownedF[&f2[0]], a.ownedF[&f1[0]])
	}
	if s := a.Stats(); s.Misses != 1 || s.HeldBytes != 4*(16+1) || s.PlaceMisses != 0 {
		t.Fatalf("stats = %+v, want 1 miss, 68 held bytes, no place miss", s)
	}

	// A transient that still holds the slab at the next Expect counts one
	// place miss; one released in its step, or beside the slab, counts none.
	a.PutFloats(f3)
	a.PutFloats(f2)
	a.Expect(nil, 1)
	a.Expect(nil, 1)
	if s := a.Stats(); s.PlaceMisses != 1 {
		t.Fatalf("%d place misses, want 1 for the Get still holding [12, 16)", s.PlaceMisses)
	}
	a.Put(h)
	a.PutFloats(f1)

	// A slot whose range is checked out falls back beside the slab and
	// counts a place miss.
	a.Expect([]Slot{{Off: 3, Len: 2}}, 1)
	g2 := a.Get(2)
	if a.inSlab(a.owned[g2].chunk) || a.Stats().PlaceMisses != 2 {
		t.Fatalf("placement over a checked-out range: span %v, %d place misses", a.owned[g2], a.Stats().PlaceMisses)
	}

	// Slots are per sample: scale multiplies offset and length.
	for _, x := range []*Tensor{g4, g3, g2} {
		a.Put(x)
	}
	a.PlacePass(16, 16)
	a.Expect([]Slot{{Off: 3, Len: 2}}, 2)
	if g := a.Get(4); &g.Data[0] != &slab[6] {
		t.Error("a slot scaled by 2 did not land at offset 6")
	} else {
		a.Put(g)
	}

	// An unplaced pass uses the slab as ordinary free space, and Expect
	// queues nothing in it.
	a.PlacePass(0, 0)
	a.Expect([]Slot{{Off: 8, Len: 4}}, 1)
	if g := a.Get(4); &g.Data[0] == &slab[8] {
		t.Error("an unplaced pass honoured a slot")
	} else {
		a.Put(g)
	}
	held := a.Stats().HeldBytes
	if g := a.Get(16); &g.Data[0] != &slab[0] || a.Stats().HeldBytes != held {
		t.Error("an unplaced pass did not serve a slab-sized Get from the slab")
	} else {
		a.Put(g)
	}

	// A plan that outgrows the slab while a range of it is checked out
	// places nothing and counts a place miss; the slab keeps its size.
	hold := a.Get(16)
	if a.PlacePass(32, 32); a.pass != 0 {
		t.Error("a plan larger than a slab in use placed")
	}
	if s := a.Stats(); s.PlaceMisses != 3 || s.SlabBytes != 64 || s.HeldBytes != held {
		t.Errorf("stats = %+v, want 3 place misses and the 64-byte slab", s)
	}
	// Once the slab is free, a larger plan lets it go and reserves its own.
	a.Put(hold)
	if a.PlacePass(32, 32); a.pass != 32 || len(a.chunks[a.slab]) != 32 {
		t.Error("a larger plan over a free slab did not reserve a new one")
	}
	if s := a.Stats(); s.PlaceMisses != 3 || s.SlabBytes != 128 || s.HeldBytes != held-64+128 {
		t.Errorf("stats = %+v, want a 128-byte slab in place of the 64-byte one", s)
	}
	a.Expect([]Slot{{Off: 16, Len: 16}}, 1)
	if g := a.Get(16); &g.Data[0] != &a.chunks[a.slab][16] {
		t.Errorf("a slot of the new slab landed at %v", a.owned[g])
	}
}

func TestArenaPlacementSegments(t *testing.T) {
	a := NewArena()
	a.PlacePass(12, 8)
	if a.slabEnd-a.slab != 2 || len(a.chunks[a.slab]) != 8 || len(a.chunks[a.slab+1]) != 4 {
		t.Fatalf("slab segments %d..%d, want chunks of 8 and 4", a.slab, a.slabEnd)
	}
	if s := a.Stats(); s.SlabBytes != 48 || s.HeldBytes != 48 {
		t.Fatalf("stats = %+v, want a 48-byte slab", s)
	}
	// Offset 9 is element 1 of the second segment; a slot over the first
	// segment's end falls back.
	a.Expect([]Slot{{Off: 9, Len: 2}, {Off: 6, Len: 4}}, 1)
	g := a.Get(2)
	x := a.Get(4)
	if &g.Data[0] != &a.chunks[a.slab+1][1] || a.inSlab(a.owned[x].chunk) || a.Stats().PlaceMisses != 1 {
		t.Fatalf("spans %v and %v, %d place misses", a.owned[g], a.owned[x], a.Stats().PlaceMisses)
	}
	a.Put(g)
	a.Put(x)

	// A smaller batch has shorter segments; each maps onto its reserved
	// segment. A larger one does not fit them and places nothing.
	a.PlacePass(6, 4)
	a.Expect([]Slot{{Off: 5, Len: 2}}, 1)
	if g := a.Get(2); &g.Data[0] != &a.chunks[a.slab+1][1] {
		t.Errorf("a half-batch slot landed at %v", a.owned[g])
	}
	if a.PlacePass(12, 12); a.pass != 0 || a.Stats().PlaceMisses != 2 {
		t.Errorf("a pass with longer segments placed (%d place misses)", a.Stats().PlaceMisses)
	}
}
