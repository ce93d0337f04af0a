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

// ForwardAlloc applies dropout to x, drawing one uniform from rng per
// element, and returns the output, drawn from an arena (nil = heap,
// bit-identical), and from, a copy of rng as it was before the draws, which
// BackwardAlloc replays. Only surviving elements are written; the zeroed
// remainder comes from the arena's zero-on-reuse guarantee.
func (d Dropout) ForwardAlloc(a *tensor.Arena, x *tensor.Tensor, rng *tensor.RNG) (y *tensor.Tensor, from tensor.RNG, err error) {
	if err := d.Validate(); err != nil {
		return nil, tensor.RNG{}, err
	}
	from = *rng
	y = a.Get(x.Shape()...)
	scale := d.scale()
	for i, v := range x.Data {
		if d.keeps(rng) {
			y.Data[i] = v * scale
		}
	}
	return y, from, nil
}

// BackwardAlloc replays the forward's keep decisions from from, the copy
// ForwardAlloc returned, and scales the upstream gradient by 1/(1−rate)
// where an element was kept and by 0 where it was dropped, so a negative
// gradient drops to −0 and an infinite one to NaN. dx is drawn from an arena
// (nil = heap, bit-identical).
func (d Dropout) BackwardAlloc(a *tensor.Arena, dy *tensor.Tensor, from tensor.RNG) *tensor.Tensor {
	dx := a.Get(dy.Shape()...)
	scale := d.scale()
	for i, g := range dy.Data {
		m := float32(0)
		if d.keeps(&from) {
			m = scale
		}
		dx.Data[i] = g * m
	}
	return dx
}

// scale is a survivor's factor, 1/(1−rate).
func (d Dropout) scale() float32 { return float32(1 / (1 - d.Rate)) }

// keeps draws one element's keep decision from rng; the forward and the
// backward's replay both draw through it.
func (d Dropout) keeps(rng *tensor.RNG) bool { return rng.Float64() >= d.Rate }
