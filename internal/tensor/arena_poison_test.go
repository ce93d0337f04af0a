//go:build arenapoison

package tensor

import (
	"math"
	"testing"
)

// TestArenaPoisonsReleasedRanges checks the instrument itself: every release
// path overwrites the range with the poison pattern, and the next Get still
// hands out zeros.
func TestArenaPoisonsReleasedRanges(t *testing.T) {
	a := NewArena()
	x, f, d := a.Get(3), a.Floats(2), a.Get(4)
	stale := [][]float32{x.Data, f, d.Data}
	x.Fill(1)
	d.Fill(2)
	a.Put(x)
	a.PutFloats(f)
	a.Detach(d)
	for i, s := range stale {
		for j, v := range s {
			if math.Float32bits(v) != poisonNaN {
				t.Errorf("released buffer %d element %d = %#x, want the poison pattern %#x", i, j, math.Float32bits(v), poisonNaN)
			}
		}
	}
	for i, v := range d.Data {
		if v != 2 {
			t.Errorf("detached element %d = %v, want 2: the copy must precede the poison", i, v)
		}
	}
	if g := a.Get(3); &g.Data[0] != &stale[0][0] {
		t.Error("Get(3) did not reuse the poisoned 3-element range")
	} else {
		for i, v := range g.Data {
			if v != 0 {
				t.Errorf("Get of a poisoned range: element %d = %v, want 0", i, v)
			}
		}
	}
}
