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
// bit-identical). The kernel writes only positive elements and relies on the
// zeroed buffer for the rest, which the arena's default zero-on-reuse
// guarantees.
func ReLUForwardAlloc(p *parallel.Pool, a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := a.Get(x.Shape()...)
	p.Run(len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := x.Data[i]; v > 0 {
				y.Data[i] = v
			}
		}
	})
	return y
}

// ReLUBackward computes dx = dy ⊙ 1[x > 0] from the saved forward input.
func ReLUBackward(dy, x *tensor.Tensor) (*tensor.Tensor, error) {
	return ReLUBackwardAlloc(nil, nil, dy, x)
}

// ReLUBackwardAlloc is ReLUBackward on a worker pool (bit-identical to
// serial) drawing dx from an arena (nil = heap, bit-identical).
func ReLUBackwardAlloc(p *parallel.Pool, a *tensor.Arena, dy, x *tensor.Tensor) (*tensor.Tensor, error) {
	if !dy.Shape().Equal(x.Shape()) {
		return nil, fmt.Errorf("relu: dy shape %v vs x %v", dy.Shape(), x.Shape())
	}
	dx := a.Get(x.Shape()...)
	p.Run(len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x.Data[i] > 0 {
				dx.Data[i] = dy.Data[i]
			}
		}
	})
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
