package layers

import (
	"fmt"

	"bnff/internal/tensor"
)

// Map is a mini-batch feature map (N, C, H, W) as the layers read it: a dense
// *tensor.Tensor, or a *Concat held as its inputs' storage.
type Map interface {
	Shape() tensor.Shape
	Dims4() (n, c, h, w int)
}

// Concat is a concatenation along the channel axis — the DenseNet
// dense-connectivity primitive — kept as the list of its parts, not copied:
// sample i's channels are each part's sample-i rows in turn. The paper's
// reference implementation passes pointers the same way, and Pleiss et al.'s
// memory-efficient DenseNets share feature storage for the same reason, so
// building one moves no data. Every layer that reads a Map walks its
// (sample, part) runs with the kernels a dense map runs on, and a run
// computes exactly the bits the same channels of a dense copy would.
type Concat struct {
	parts []*tensor.Tensor
	shape tensor.Shape
}

// Reset empties v for reuse, keeping its storage.
func (v *Concat) Reset() {
	v.parts = v.parts[:0]
	v.shape = v.shape[:0]
}

// Append adds m's channels after v's. A Concat contributes its parts, so a
// concatenation of concatenations is one flat list. Every part must be rank
// 4 and agree with the first on N, H and W.
func (v *Concat) Append(m Map) error {
	if inner, ok := m.(*Concat); ok {
		for _, p := range inner.parts {
			if err := v.Append(p); err != nil {
				return err
			}
		}
		return nil
	}
	t := m.(*tensor.Tensor)
	s := t.Shape()
	switch {
	case len(s) != 4:
		return fmt.Errorf("concat: input must be rank 4, got %v", s)
	case len(v.parts) == 0:
		v.shape = append(v.shape[:0], s...)
	case s[0] != v.shape[0] || s[2] != v.shape[2] || s[3] != v.shape[3]:
		return fmt.Errorf("concat: incompatible shape %v vs %v", s, v.shape)
	default:
		v.shape[1] += s[1]
	}
	v.parts = append(v.parts, t)
	return nil
}

// Shape returns the concatenated shape.
func (v *Concat) Shape() tensor.Shape { return v.shape }

// Dims4 unpacks the concatenated shape as (N, C, H, W).
func (v *Concat) Dims4() (n, c, h, w int) { return v.shape[0], v.shape[1], v.shape[2], v.shape[3] }

// runs is a Map as the kernels walk it, one sample at a time: run p of
// sample i is part p's rows of that sample, channels [c0, c0+cp) of the map
// where c0 counts the channels of the runs before it. A dense map is one run
// per sample. The first part is kept apart from the rest so that a dense map
// needs no slice of its own.
type runs struct {
	head *tensor.Tensor
	tail []*tensor.Tensor
	hw   int // elements per channel row
}

// runsOf returns m's runs.
func runsOf(m Map) runs {
	if v, ok := m.(*Concat); ok {
		return runs{head: v.parts[0], tail: v.parts[1:], hw: v.shape[2] * v.shape[3]}
	}
	_, _, h, w := m.Dims4()
	return runs{head: m.(*tensor.Tensor), hw: h * w}
}

// count returns the runs of one sample.
func (r runs) count() int { return 1 + len(r.tail) }

// run returns run p of sample i and its channel count.
func (r runs) run(p, i int) ([]float32, int) {
	t := r.head
	if p > 0 {
		t = r.tail[p-1]
	}
	cp := t.Dim(1)
	per := cp * r.hw
	return t.Data[i*per : (i+1)*per], cp
}

// ScatterChannels writes channels [c0, c0+C) of a concat's gradient dy into
// dst, the gradient slot of the part those channels came from (C its channel
// count): stored when add is false — the part's first contribution, so a −0
// survives — and added in place after that. That is a gradient accumulation's
// arithmetic on a copied part, without the copy.
func ScatterChannels(dst, dy *tensor.Tensor, c0 int, add bool) error {
	n, c, h, w := dy.Dims4()
	dn, dc, dh, dw := dst.Dims4()
	if dn != n || dh != h || dw != w || c0 < 0 || c0+dc > c {
		return fmt.Errorf("concat: gradient part %v at channel %d of %v", dst.Shape(), c0, dy.Shape())
	}
	per := dc * h * w
	for i := 0; i < n; i++ {
		src := dy.Data[(i*c+c0)*h*w:][:per]
		out := dst.Data[i*per : (i+1)*per]
		if add {
			addRun(out, src)
		} else {
			copy(out, src)
		}
	}
	return nil
}
