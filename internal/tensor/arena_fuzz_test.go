package tensor

import (
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
	t    *Tensor
	f    []float32
	fill float32
}

func (b arenaBuf) data() []float32 {
	if b.t != nil {
		return b.t.Data
	}
	return b.f
}

// runArenaOps decodes ops as (opcode, argument) byte pairs, drives a fresh
// arena with them, and checks the arena's invariants after every call. It
// returns the (chunk, offset) of every range handed out, in order.
func runArenaOps(t *testing.T, ops []byte) []span {
	a := NewArena()
	var live, detached []arenaBuf
	var layout []span
	next := float32(1)
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
		op, arg := ops[k]%7, ops[k+1]
		n := arenaSizes[int(arg)%len(arenaSizes)]
		switch op {
		case 0: // Get
			g := a.Get(n)
			handOut(arenaBuf{t: g}, a.owned[g])
		case 1: // Floats
			f := a.Floats(n)
			if n == 0 {
				if f != nil {
					t.Fatalf("Floats(0) = %v, want nil", f)
				}
				break
			}
			handOut(arenaBuf{f: f}, a.ownedF[&f[0]])
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
		case 5: // stray Puts of buffers the arena does not own
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
		case 6: // Ints: exact-size lists, only the byte counts interact
			a.PutInts(a.Ints(n))
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
// PutFloats / Detach / stray-Put sequences and checks, after every call, that
// live ranges never overlap or get overwritten, that every handed-out buffer
// reads all zeros, that BytesInUse is the sum of live lengths and HeldBytes
// covers it, and that replaying the sequence on a fresh arena hands out the
// same (chunk, offset) layout.
func FuzzArena(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 0, 3, 2, 1, 0, 0, 2, 0, 2, 0, 0, 5})
	f.Add([]byte{1, 5, 1, 2, 0, 4, 3, 0, 4, 0, 1, 1, 5, 1, 3, 0, 0, 5})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 2, 1, 2, 0, 2, 0, 0, 4, 6, 3, 5, 2})
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
