// Package tensor provides the dense NCHW float32 tensor type used by every
// numeric layer and fused kernel in this repository.
//
// Tensors are deliberately simple: a flat []float32 plus a Shape. All layout
// decisions (NCHW, row-major within a channel) are fixed so that kernels can
// index directly without stride bookkeeping. The package also carries the
// small numeric utilities (fills, comparisons, reductions) that the test
// suite leans on.
//
// Arena adds buffer recycling on top: a best-fit range allocator that carves
// tensors and scratch slices from shared chunks, splits a free range on
// hand-out and coalesces it with its free neighbours when the caller gives it
// back at the end of its lifetime. Recycled storage is zeroed
// by default, so a Get from an arena is observationally identical to a
// fresh allocation; ownership checks make Put safe to call on anything
// (foreign tensors, views, doubles all fall through as no-ops); and a nil
// *Arena degrades to plain allocation, so call sites need no branching.
// Arenas are instance state — one per executor, never shared, never
// package-level (enforced by the noglobals analyzer) — and are not
// goroutine-safe: only the owning dispatcher goroutine may call them.
package tensor

import (
	"fmt"
	"math"
)

// Shape describes a tensor extent. The canonical ranks are:
//
//	4 — N×C×H×W feature maps,
//	2 — N×F fully-connected activations,
//	1 — per-channel vectors (BN statistics, biases).
type Shape []int

// NumElems returns the product of all dimensions. An empty shape has one
// element (a scalar).
func (s Shape) NumElems() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes match exactly, rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as "[2 3 32 32]".
func (s Shape) String() string { return fmt.Sprint([]int(s)) }

// Tensor is a dense float32 array with NCHW semantics for rank-4 shapes.
type Tensor struct {
	Data  []float32
	shape Shape
}

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	return &Tensor{Data: make([]float32, s.NumElems()), shape: s}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must match the shape volume.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	s := Shape(shape).Clone()
	if len(data) != s.NumElems() {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (%d elems)",
			len(data), s, s.NumElems())
	}
	return &Tensor{Data: data, shape: s}, nil
}

// MustFromSlice is FromSlice that panics on shape mismatch; for tests and
// literals where the mismatch is a programming error.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Dim returns the extent of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.shape) }

// NumElems returns the total element count.
func (t *Tensor) NumElems() int { return len(t.Data) }

// Bytes returns the in-memory size assuming 4-byte elements. The memory
// simulator prices sweeps in these units.
func (t *Tensor) Bytes() int64 { return int64(len(t.Data)) * 4 }

// At4 returns element (n,c,h,w) of a rank-4 tensor.
func (t *Tensor) At4(n, c, h, w int) float32 {
	_, C, H, W := t.Dims4()
	return t.Data[((n*C+c)*H+h)*W+w]
}

// Set4 stores v at (n,c,h,w) of a rank-4 tensor.
func (t *Tensor) Set4(n, c, h, w int, v float32) {
	_, C, H, W := t.Dims4()
	t.Data[((n*C+c)*H+h)*W+w] = v
}

// Dims4 unpacks a rank-4 shape as (N, C, H, W). It panics on other ranks,
// which is always a programming error in the layer code.
func (t *Tensor) Dims4() (n, c, h, w int) {
	if len(t.shape) != 4 {
		panic(fmt.Sprintf("tensor: Dims4 on rank-%d tensor %v", len(t.shape), t.shape))
	}
	return t.shape[0], t.shape[1], t.shape[2], t.shape[3]
}

// Dims2 unpacks a rank-2 shape as (N, F).
func (t *Tensor) Dims2() (n, f int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Dims2 on rank-%d tensor %v", len(t.shape), t.shape))
	}
	return t.shape[0], t.shape[1]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view over the same data with a new shape of equal volume.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	s := Shape(shape).Clone()
	if s.NumElems() != len(t.Data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.Data), s, s.NumElems())
	}
	return &Tensor{Data: t.Data, shape: s}, nil
}

// Zero clears every element in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddInPlace accumulates o into t element-wise. Shapes must match.
func (t *Tensor) AddInPlace(o *Tensor) error {
	if !t.shape.Equal(o.shape) {
		return fmt.Errorf("tensor: add shape mismatch %v vs %v", t.shape, o.shape)
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return nil
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Sum returns the float64 sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// AbsMax returns the largest absolute element value.
func (t *Tensor) AbsMax() float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// MaxAbsDiff returns the largest absolute element-wise difference between two
// tensors of identical shape, used pervasively by equivalence tests.
func MaxAbsDiff(a, b *Tensor) (float64, error) {
	if !a.shape.Equal(b.shape) {
		return math.Inf(1), fmt.Errorf("tensor: diff shape mismatch %v vs %v", a.shape, b.shape)
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m, nil
}

// AllClose reports whether every pair of elements differs by at most
// atol + rtol*|b|. It is the tolerance predicate used by the numeric
// equivalence tests between baseline and restructured execution.
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if !a.shape.Equal(b.shape) {
		return false
	}
	for i := range a.Data {
		av, bv := float64(a.Data[i]), float64(b.Data[i])
		if math.Abs(av-bv) > atol+float64(rtol*math.Abs(bv)) {
			return false
		}
	}
	return true
}
