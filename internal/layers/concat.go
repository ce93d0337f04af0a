package layers

import (
	"fmt"

	"bnff/internal/tensor"
)

// ConcatForwardAlloc concatenates feature maps along the channel axis — the
// DenseNet dense-connectivity primitive — drawing the output from an arena
// (nil = heap, bit-identical). All inputs must agree on N, H, W.
//
// In a pointer-passing implementation this is free on the forward pass
// (the paper's reference treats it so); the numeric implementation here
// materializes the result because downstream layers index it densely.
func ConcatForwardAlloc(a *tensor.Arena, xs ...*tensor.Tensor) (*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("concat: no inputs")
	}
	n, _, h, w := xs[0].Dims4()
	totalC := 0
	for _, x := range xs {
		xn, xc, xh, xw := x.Dims4()
		if xn != n || xh != h || xw != w {
			return nil, fmt.Errorf("concat: incompatible shape %v vs %v", x.Shape(), xs[0].Shape())
		}
		totalC += xc
	}
	y := a.Get(n, totalC, h, w)
	hw := h * w
	for in := 0; in < n; in++ {
		cOff := 0
		for _, x := range xs {
			xc := x.Dim(1)
			src := x.Data[in*xc*hw : (in+1)*xc*hw]
			dst := y.Data[(in*totalC+cOff)*hw : (in*totalC+cOff+xc)*hw]
			copy(dst, src)
			cOff += xc
		}
	}
	return y, nil
}

// ConcatBackwardAlloc slices the upstream gradient back into per-input
// gradients with the given channel counts, drawn from an arena (nil = heap,
// bit-identical). The returned slice header itself is freshly allocated; only
// the tensors are arena-managed.
func ConcatBackwardAlloc(a *tensor.Arena, dy *tensor.Tensor, channels []int) ([]*tensor.Tensor, error) {
	n, c, h, w := dy.Dims4()
	total := 0
	for _, ch := range channels {
		total += ch
	}
	if total != c {
		return nil, fmt.Errorf("concat: channel split %v sums to %d, dy has %d", channels, total, c)
	}
	hw := h * w
	out := make([]*tensor.Tensor, len(channels))
	for i, ch := range channels {
		out[i] = a.Get(n, ch, h, w)
	}
	for in := 0; in < n; in++ {
		cOff := 0
		for i, ch := range channels {
			src := dy.Data[(in*c+cOff)*hw : (in*c+cOff+ch)*hw]
			dst := out[i].Data[in*ch*hw : (in+1)*ch*hw]
			copy(dst, src)
			cOff += ch
		}
	}
	return out, nil
}
