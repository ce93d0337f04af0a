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
// is split into contiguous chunks with disjoint writes, so the result is
// bit-identical to serial — drawing the output from an arena (nil = heap,
// bit-identical). Every element is written through rectify's mask, without a
// branch to mispredict. The serial path calls the mask body directly, so the
// steady state allocates no closure.
func ReLUForwardAlloc(p *parallel.Pool, a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := a.Get(x.Shape()...)
	if p.Serial() {
		maskRun(y.Data, x.Data, x.Data)
	} else {
		p.Run(len(x.Data), func(lo, hi int) { maskRun(y.Data[lo:hi], x.Data[lo:hi], x.Data[lo:hi]) })
	}
	return y
}

// ReLUBackward computes dx = dy ⊙ 1[x > 0] from the saved forward input.
func ReLUBackward(dy, x *tensor.Tensor) (*tensor.Tensor, error) {
	return ReLUBackwardAlloc(nil, nil, dy, x)
}

// ReLUBackwardAlloc is ReLUBackward on a worker pool (bit-identical to
// serial) drawing dx from an arena (nil = heap, bit-identical). dy passes
// through the branch-free mask of x > 0; elsewhere dx is +0.
func ReLUBackwardAlloc(p *parallel.Pool, a *tensor.Arena, dy, x *tensor.Tensor) (*tensor.Tensor, error) {
	if !dy.Shape().Equal(x.Shape()) {
		return nil, fmt.Errorf("relu: dy shape %v vs x %v", dy.Shape(), x.Shape())
	}
	dx := a.Get(x.Shape()...)
	if p.Serial() {
		maskRun(dx.Data, dy.Data, x.Data)
	} else {
		p.Run(len(x.Data), func(lo, hi int) { maskRun(dx.Data[lo:hi], dy.Data[lo:hi], x.Data[lo:hi]) })
	}
	return dx, nil
}

// EWSForwardAlloc is the element-wise sum used by ResNet identity shortcuts,
// drawing the output from an arena (nil = heap, bit-identical).
func EWSForwardAlloc(al *tensor.Arena, a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if !a.Shape().Equal(b.Shape()) {
		return nil, fmt.Errorf("ews: shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	y := al.Clone(a)
	if err := y.AddInPlace(b); err != nil {
		al.Put(y)
		return nil, err
	}
	return y, nil
}

// EWSBackwardAlloc routes the upstream gradient unchanged to both addends.
// Both returned tensors are independent copies, drawn from an arena (nil =
// heap, bit-identical), so downstream accumulation cannot alias.
func EWSBackwardAlloc(a *tensor.Arena, dy *tensor.Tensor) (da, db *tensor.Tensor) {
	return a.Clone(dy), a.Clone(dy)
}
