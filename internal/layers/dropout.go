package layers

import (
	"fmt"

	"bnff/internal/tensor"
)

// Dropout implements inverted dropout: during training each element is
// zeroed with probability Rate and survivors are scaled by 1/(1−Rate), so
// inference needs no rescaling. AlexNet and VGG train their FC layers with
// it; for the restructuring passes it matters as a stochastic element-wise
// layer that breaks the ReLU→CONV fusion pattern.
type Dropout struct {
	Rate float64
}

// Validate rejects rates outside [0, 1).
func (d Dropout) Validate() error {
	if d.Rate < 0 || d.Rate >= 1 {
		return fmt.Errorf("dropout: rate %v out of [0, 1)", d.Rate)
	}
	return nil
}

// ForwardAlloc applies dropout to x using rng, returning the output and the
// mask (0 or 1/(1−rate) per element) the backward pass reuses, both drawn
// from an arena (nil = heap, bit-identical). Only surviving elements are
// written; the zeroed remainder comes from the arena's zero-on-reuse
// guarantee.
func (d Dropout) ForwardAlloc(a *tensor.Arena, x *tensor.Tensor, rng *tensor.RNG) (y, mask *tensor.Tensor, err error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	y = a.Get(x.Shape()...)
	mask = a.Get(x.Shape()...)
	scale := float32(1 / (1 - d.Rate))
	for i, v := range x.Data {
		if rng.Float64() >= d.Rate {
			mask.Data[i] = scale
			y.Data[i] = v * scale
		}
	}
	return y, mask, nil
}

// BackwardAlloc applies the saved mask to the upstream gradient, drawing dx
// from an arena (nil = heap, bit-identical).
func (d Dropout) BackwardAlloc(a *tensor.Arena, dy, mask *tensor.Tensor) (*tensor.Tensor, error) {
	if !dy.Shape().Equal(mask.Shape()) {
		return nil, fmt.Errorf("dropout: dy %v vs mask %v", dy.Shape(), mask.Shape())
	}
	dx := a.Get(dy.Shape()...)
	for i := range dy.Data {
		dx.Data[i] = dy.Data[i] * mask.Data[i]
	}
	return dx, nil
}
