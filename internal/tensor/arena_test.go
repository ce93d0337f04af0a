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

	i := a.Ints(3)
	i[2] = 9
	pi := &i[0]
	a.PutInts(i)
	i2 := a.Ints(3)
	if &i2[0] != pi || i2[2] != 0 {
		t.Error("Ints recycle/zero broken")
	}
	a.PutInts(i2)
	a.PutInts(nil)
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
	i := a.Ints(3) // int32 scratch counts towards the held bytes too
	a.PutInts(i)
	if s := a.Stats(); s.BytesInUse != 0 || s.HeldBytes != 72 {
		t.Errorf("stats = %+v, want 0 in use / 72 held bytes", s)
	}
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
	if i := a.Ints(3); len(i) != 3 {
		t.Error("nil arena Ints broken")
	}
	a.PutFloats(nil)
	a.PutInts(nil)
	c := a.Clone(t1)
	if d, _ := MaxAbsDiff(t1, c); d != 0 {
		t.Error("nil arena Clone broken")
	}
	if s := a.Stats(); s != (ArenaStats{}) {
		t.Errorf("nil arena stats = %+v, want zero", s)
	}
}
