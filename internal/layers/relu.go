package layers

import (
	"fmt"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// ReLUForward returns max(x, 0) as a fresh tensor. In the baseline graph
// this costs one read and one write sweep of the feature map; RCF eliminates
// both by clipping while the following CONV reads its ifmap.
func ReLUForward(x *tensor.Tensor) *tensor.Tensor { return ReLUForwardAlloc(nil, nil, x) }

// ReLUForwardAlloc is ReLUForward on a worker pool — the flat element range
// of a dense x is split into contiguous chunks with disjoint writes, so the
// result is bit-identical to serial; a Concat is walked run by run — drawing
// the output from an arena (nil = heap, bit-identical). Every element is
// written through rectify's mask, without a branch to mispredict. The serial
// path calls the mask body directly, so the steady state allocates no
// closure.
func ReLUForwardAlloc(p *parallel.Pool, a *tensor.Arena, x Map) *tensor.Tensor {
	y := a.Get(x.Shape()...)
	if t, ok := x.(*tensor.Tensor); ok && !p.Serial() {
		p.Run(len(t.Data), func(lo, hi int) { maskRun(y.Data[lo:hi], t.Data[lo:hi], t.Data[lo:hi]) })
		return y
	}
	eachRun(x, func(off int, run []float32) { maskRun(y.Data[off:off+len(run)], run, run) })
	return y
}

// ReLUBackward computes dx = dy ⊙ 1[x > 0]. x may be the ReLU's input or its
// output: relu(x) > 0 exactly where x > 0, so both give dx the same bits (the
// executor keeps the output).
func ReLUBackward(dy, x *tensor.Tensor) (*tensor.Tensor, error) {
	return ReLUBackwardAlloc(nil, nil, dy, x)
}

// ReLUBackwardAlloc is ReLUBackward on a worker pool (bit-identical to
// serial) drawing dx from an arena (nil = heap, bit-identical). dy passes
// through the branch-free mask of x > 0; elsewhere dx is +0.
func ReLUBackwardAlloc(p *parallel.Pool, a *tensor.Arena, dy *tensor.Tensor, x Map) (*tensor.Tensor, error) {
	if !dy.Shape().Equal(x.Shape()) {
		return nil, fmt.Errorf("relu: dy shape %v vs x %v", dy.Shape(), x.Shape())
	}
	dx := a.Get(x.Shape()...)
	if t, ok := x.(*tensor.Tensor); ok && !p.Serial() {
		p.Run(len(t.Data), func(lo, hi int) { maskRun(dx.Data[lo:hi], dy.Data[lo:hi], t.Data[lo:hi]) })
		return dx, nil
	}
	eachRun(x, func(off int, run []float32) {
		maskRun(dx.Data[off:off+len(run)], dy.Data[off:off+len(run)], run)
	})
	return dx, nil
}

// EWSForwardAlloc is the element-wise sum used by ResNet identity shortcuts,
// drawing the output from an arena (nil = heap, bit-identical).
func EWSForwardAlloc(al *tensor.Arena, a, b Map) (*tensor.Tensor, error) {
	if !a.Shape().Equal(b.Shape()) {
		return nil, fmt.Errorf("ews: shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	y := al.Get(a.Shape()...)
	eachRun(a, func(off int, run []float32) { copy(y.Data[off:], run) })
	eachRun(b, func(off int, run []float32) { addRun(y.Data[off:off+len(run)], run) })
	return y, nil
}

// addRun adds src onto dst element-wise: dst[i] += src[i].
//
// hot-path: the EWS sum and every concat-gradient run after the first.
func addRun(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}

// eachRun calls fn on every run of x in its dense layout's order, with the
// run's offset in that layout: a dense map is one run, a Concat one per
// (sample, part).
func eachRun(x Map, fn func(off int, run []float32)) {
	v, ok := x.(*Concat)
	if !ok {
		fn(0, x.(*tensor.Tensor).Data)
		return
	}
	r := runsOf(v)
	off := 0
	for i := 0; i < v.shape[0]; i++ {
		for p := 0; p < r.count(); p++ {
			run, _ := r.run(p, i)
			fn(off, run)
			off += len(run)
		}
	}
}

// EWSBackwardAlloc routes the upstream gradient unchanged to both addends.
// Both returned tensors are independent copies, drawn from an arena (nil =
// heap, bit-identical), so downstream accumulation cannot alias.
func EWSBackwardAlloc(a *tensor.Arena, dy *tensor.Tensor) (da, db *tensor.Tensor) {
	return a.Clone(dy), a.Clone(dy)
}
