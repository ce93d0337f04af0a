package tensor

import "testing"

func TestArenaReusesExactSize(t *testing.T) {
	a := NewArena()
	t1 := a.Get(2, 3)
	p1 := &t1.Data[0]
	a.Put(t1)
	t2 := a.Get(3, 2) // same element count, different shape
	if &t2.Data[0] != p1 {
		t.Error("Get after Put of an equal-sized buffer did not recycle the storage")
	}
	if !t2.Shape().Equal(Shape{3, 2}) {
		t.Errorf("recycled tensor shape = %v, want [3 2]", t2.Shape())
	}
	s := a.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}

	// A different size must not be served from that free entry.
	t3 := a.Get(7)
	if &t3.Data[0] == p1 {
		t.Error("free lists are not exact-size")
	}
}

func TestArenaLIFO(t *testing.T) {
	a := NewArena()
	t1, t2 := a.Get(4), a.Get(4)
	p1, p2 := &t1.Data[0], &t2.Data[0]
	a.Put(t1)
	a.Put(t2)
	// LIFO: the most recently returned buffer comes back first —
	// deterministic, and the cache-warm choice.
	if g := a.Get(4); &g.Data[0] != p2 {
		t.Error("free list is not LIFO")
	}
	if g := a.Get(4); &g.Data[0] != p1 {
		t.Error("second Get did not return the older buffer")
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
	if got := len(a.free[5]); got != 1 {
		t.Errorf("double Put created %d free entries, want 1", got)
	}

	foreign := New(5)
	a.Put(foreign) // foreign tensor: no-op
	if got := len(a.free[5]); got != 1 {
		t.Error("Put of a foreign tensor entered the free list")
	}

	view := a.Get(4, 2)
	flat, err := view.Reshape(8)
	if err != nil {
		t.Fatal(err)
	}
	a.Put(flat) // view shares storage but is a distinct *Tensor: no-op
	if got := len(a.free[8]); got != 0 {
		t.Error("Put of a view recycled shared storage")
	}
	a.Put(nil) // must not panic
}

func TestArenaDetach(t *testing.T) {
	a := NewArena()
	t1 := a.Get(6)
	if a.Stats().BytesInUse != 24 {
		t.Fatalf("bytes in use = %d, want 24", a.Stats().BytesInUse)
	}
	a.Detach(t1)
	if a.Stats().BytesInUse != 0 {
		t.Error("Detach did not release the bytes-in-use claim")
	}
	a.Put(t1) // detached tensor is foreign now: no-op
	if got := len(a.free[6]); got != 0 {
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
	if s := a.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", s)
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
	if got := len(a.free[4]); got != 1 {
		t.Error("clone is not arena-owned")
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
