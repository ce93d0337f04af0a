package layers

import (
	"fmt"
	"math"
	"testing"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// The references below store what the backward reads — max pooling's argmax
// indices, dropout's mask — the way the layers once did. The layers' own
// backward passes must land on the same bits (NaN payloads aside where
// gradients add), for any input the forward can see: ties, NaN, ±Inf and −0 among the pooled values, padded border
// windows, a Concat input, one worker or four, and non-finite gradients.

// specials are the values the fills draw from: a small palette, so windows
// hold ties, plus −0, NaN and both infinities.
var specials = []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2, 0.5,
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}

// fillSpecials fills t from specials with a seeded generator.
func fillSpecials(t *tensor.Tensor, seed uint64) {
	rng := tensor.NewRNG(seed)
	for i := range t.Data {
		t.Data[i] = specials[rng.Intn(len(specials))]
	}
}

// storedArgmaxPool is the stored-index max pool: the forward keeps, per
// output, the flat index into x of its window's first strictly-greater tap
// in row-major order (padding skipped), and the backward scatters dy onto a
// zeroed dx at those indices, in output order.
func storedArgmaxPool(p Pool2D, x, dy *tensor.Tensor) (y, dx *tensor.Tensor) {
	n, c, h, w := x.Dims4()
	oh, ow := p.OutSize(h), p.OutSize(w)
	y = tensor.New(n, c, oh, ow)
	argmax := make([]int32, y.NumElems())
	oi := 0
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			base := (in*c + ic) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					ty, tx := oy*p.Stride-p.Pad, ox*p.Stride-p.Pad
					y0, y1 := max(ty, 0), min(ty+p.Kernel, h)
					x0, x1 := max(tx, 0), min(tx+p.Kernel, w)
					best, bestIdx := x.Data[base+y0*w+x0], base+y0*w+x0
					for iy := y0; iy < y1; iy++ {
						for ix := x0; ix < x1; ix++ {
							if v := x.Data[base+iy*w+ix]; v > best {
								best, bestIdx = v, base+iy*w+ix
							}
						}
					}
					y.Data[oi], argmax[oi] = best, int32(bestIdx)
					oi++
				}
			}
		}
	}
	dx = tensor.New(x.Shape()...)
	for i, g := range dy.Data {
		dx.Data[argmax[i]] += g
	}
	return y, dx
}

// storedMaskDropout is the stored-mask dropout: the forward draws one
// uniform per element and keeps a mask of 0 or 1/(1−rate), and the backward
// multiplies dy by it.
func storedMaskDropout(rate float64, x, dy *tensor.Tensor, seed uint64) (y, dx *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	scale := float32(1 / (1 - rate))
	mask := tensor.New(x.Shape()...)
	y = tensor.New(x.Shape()...)
	for i, v := range x.Data {
		if rng.Float64() >= rate {
			mask.Data[i] = scale
			y.Data[i] = v * scale
		}
	}
	dx = tensor.New(x.Shape()...)
	for i := range dy.Data {
		dx.Data[i] = dy.Data[i] * mask.Data[i]
	}
	return y, dx
}

// sameBits reports whether a and b hold the same float32 bit patterns, NaN
// payloads and zero signs included.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestMaxPoolBackwardMatchesStoredArgmax(t *testing.T) {
	x := tensor.New(3, 5, 7, 6)
	fillSpecials(x, 41)
	for _, p := range []Pool2D{
		{Kernel: 2, Stride: 2, Max: true},
		{Kernel: 3, Stride: 2, Pad: 1, Max: true},
		{Kernel: 3, Stride: 1, Pad: 1, Max: true},
		{Kernel: 3, Stride: 2, Max: true},
	} {
		dy := tensor.New(p.OutShape(x.Shape())...)
		fillSpecials(dy, 43)
		wantY, wantDX := storedArgmaxPool(p, x, dy)
		for _, workers := range []int{1, 4} {
			for _, in := range []struct {
				name string
				x    Map
			}{{"dense", x}, {"concat", channelSplit(x, 2, 1)}} {
				t.Run(fmt.Sprintf("k%ds%dp%d/workers=%d/%s", p.Kernel, p.Stride, p.Pad, workers, in.name), func(t *testing.T) {
					y, dx, err := maxPoolPass(p.WithPool(parallel.New(workers)), in.x, dy)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(y.Data, wantY.Data) {
						t.Error("forward differs from the stored-index reference")
					}
					// A sum of two NaNs, or of +Inf and −Inf, carries
					// whichever payload the add instruction's operand
					// order picks, so NaNs match as a class here.
					if !sameFloats(dx.Data, wantDX.Data) {
						t.Error("backward differs from the stored-index scatter")
					}
				})
			}
		}
	}
}

func TestDropoutBackwardMatchesStoredMask(t *testing.T) {
	x := tensor.New(4, 67)
	fillSpecials(x, 47)
	dy := tensor.New(4, 67)
	fillSpecials(dy, 53)
	for _, rate := range []float64{0, 0.25, 0.5} {
		wantY, wantDX := storedMaskDropout(rate, x, dy, 59)
		y, dx, err := dropoutPass(Dropout{Rate: rate}, x, dy, 59)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(y.Data, wantY.Data) {
			t.Errorf("rate %v: forward differs from the stored-mask reference", rate)
		}
		if !sameBits(dx.Data, wantDX.Data) {
			t.Errorf("rate %v: backward differs from the stored-mask multiply", rate)
		}
	}
}
