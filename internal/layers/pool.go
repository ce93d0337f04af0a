package layers

import (
	"fmt"
	"math"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// Pool2D describes a max or average pooling layer.
type Pool2D struct {
	Kernel int
	Stride int
	Pad    int
	Max    bool // true: max pooling; false: average pooling

	pool  *parallel.Pool
	alloc *tensor.Arena
}

// WithPool returns a copy of the descriptor that executes on the given
// worker pool (nil means serial). Samples are disjoint in both directions
// (argmax indices stay within their sample's region), so pooled execution is
// bit-identical to serial.
func (p Pool2D) WithPool(wp *parallel.Pool) Pool2D {
	p.pool = wp
	return p
}

// WithAlloc returns a copy of the descriptor that obtains its output, argmax
// scratch, and gradient buffers from the given arena (nil means plain heap
// allocation, bit-identical).
func (p Pool2D) WithAlloc(a *tensor.Arena) Pool2D {
	p.alloc = a
	return p
}

// OutSize returns the output spatial extent for an input extent.
func (p Pool2D) OutSize(in int) int { return (in+2*p.Pad-p.Kernel)/p.Stride + 1 }

// OutShape returns the pooled feature-map shape.
func (p Pool2D) OutShape(in tensor.Shape) tensor.Shape {
	return tensor.Shape{in[0], in[1], p.OutSize(in[2]), p.OutSize(in[3])}
}

// PoolContext saves what the backward pass needs: argmax indices for max
// pooling (flat indices into the input tensor), or nothing for average.
type PoolContext struct {
	ArgMax  []int32
	InShape tensor.Shape
}

func (p Pool2D) check(x *tensor.Tensor) error {
	if x.Rank() != 4 {
		return fmt.Errorf("pool: input must be rank 4, got %v", x.Shape())
	}
	if p.Stride < 1 || p.Kernel < 1 {
		return fmt.Errorf("pool: invalid kernel %d / stride %d", p.Kernel, p.Stride)
	}
	if x.Dim(2)+2*p.Pad < p.Kernel || x.Dim(3)+2*p.Pad < p.Kernel {
		return fmt.Errorf("pool: input %v smaller than window %d with pad %d", x.Shape(), p.Kernel, p.Pad)
	}
	return nil
}

// Forward pools x. For max pooling, padding cells are treated as -inf;
// for average pooling the divisor counts only in-bounds cells (the usual
// "count_include_pad=false" convention).
func (p Pool2D) Forward(x *tensor.Tensor) (*tensor.Tensor, *PoolContext, error) {
	if err := p.check(x); err != nil {
		return nil, nil, err
	}
	n, c, h, w := x.Dims4()
	oh, ow := p.OutSize(h), p.OutSize(w)
	y := p.alloc.Get(n, c, oh, ow)
	ctx := &PoolContext{InShape: x.Shape().Clone()}
	if p.Max {
		ctx.ArgMax = p.alloc.Ints(y.NumElems())
	}
	// Per-sample disjoint writes; the serial path runs the chunk body as a
	// plain call so the steady state allocates no closure.
	if p.pool.Serial() {
		p.forwardChunk(x.Data, y.Data, ctx.ArgMax, c, h, w, oh, ow, 0, n)
	} else {
		p.pool.Run(n, func(nLo, nHi int) {
			p.forwardChunk(x.Data, y.Data, ctx.ArgMax, c, h, w, oh, ow, nLo, nHi)
		})
	}
	return y, ctx, nil
}

// forwardChunk pools the samples in [nLo, nHi): max with argmax capture, or
// in-bounds-count average.
//
// hot-path: per-sample pooling body; argmax and output are caller-provided.
func (p Pool2D) forwardChunk(xd, yd []float32, argmax []int32, c, h, w, oh, ow, nLo, nHi int) {
	for in := nLo; in < nHi; in++ {
		for ic := 0; ic < c; ic++ {
			base := (in*c + ic) * h * w
			oi := (in*c + ic) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y0, x0 := oy*p.Stride-p.Pad, ox*p.Stride-p.Pad
					if p.Max {
						best := float32(math.Inf(-1))
						bestIdx := -1
						for ky := 0; ky < p.Kernel; ky++ {
							iy := y0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < p.Kernel; kx++ {
								ix := x0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								v := xd[base+iy*w+ix]
								if bestIdx < 0 || v > best {
									best, bestIdx = v, base+iy*w+ix
								}
							}
						}
						yd[oi] = best
						argmax[oi] = int32(bestIdx)
					} else {
						var sum float32
						cnt := 0
						for ky := 0; ky < p.Kernel; ky++ {
							iy := y0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < p.Kernel; kx++ {
								ix := x0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								sum += xd[base+iy*w+ix]
								cnt++
							}
						}
						yd[oi] = sum / float32(cnt)
					}
					oi++
				}
			}
		}
	}
}

// Backward scatters the upstream gradient: to the argmax cell for max
// pooling, or uniformly over in-bounds window cells for average pooling.
func (p Pool2D) Backward(dy *tensor.Tensor, ctx *PoolContext) (*tensor.Tensor, error) {
	n, c, h, w := ctx.InShape[0], ctx.InShape[1], ctx.InShape[2], ctx.InShape[3]
	oh, ow := p.OutSize(h), p.OutSize(w)
	if !dy.Shape().Equal(tensor.Shape{n, c, oh, ow}) {
		return nil, fmt.Errorf("pool: dy shape %v, want %v", dy.Shape(), tensor.Shape{n, c, oh, ow})
	}
	dx := p.alloc.Get(ctx.InShape...)
	// Per-sample scatter targets are disjoint (argmax indices point inside
	// their own sample's region), so the sample split is race-free and
	// bit-identical.
	p.pool.Run(n, func(nLo, nHi int) {
		for in := nLo; in < nHi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * w
				oi := (in*c + ic) * oh * ow
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						g := dy.Data[oi]
						if p.Max {
							dx.Data[ctx.ArgMax[oi]] += g
						} else {
							y0, x0 := oy*p.Stride-p.Pad, ox*p.Stride-p.Pad
							cnt := 0
							for ky := 0; ky < p.Kernel; ky++ {
								iy := y0 + ky
								if iy < 0 || iy >= h {
									continue
								}
								for kx := 0; kx < p.Kernel; kx++ {
									if ix := x0 + kx; ix >= 0 && ix < w {
										cnt++
									}
								}
							}
							share := g / float32(cnt)
							for ky := 0; ky < p.Kernel; ky++ {
								iy := y0 + ky
								if iy < 0 || iy >= h {
									continue
								}
								for kx := 0; kx < p.Kernel; kx++ {
									ix := x0 + kx
									if ix < 0 || ix >= w {
										continue
									}
									dx.Data[base+iy*w+ix] += share
								}
							}
						}
						oi++
					}
				}
			}
		}
	})
	return dx, nil
}

// GlobalAvgPoolForwardAlloc reduces each channel's H×W plane to its mean,
// returning (N, C) — the head of ResNet/DenseNet before the classifier — on a
// worker pool (the per-channel reductions stay within one sample, so pooled
// execution is bit-identical to serial), drawing the output from an arena
// (nil = heap, bit-identical).
func GlobalAvgPoolForwardAlloc(p *parallel.Pool, a *tensor.Arena, x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("gap: input must be rank 4, got %v", x.Shape())
	}
	n, c, h, w := x.Dims4()
	y := a.Get(n, c)
	hw := float32(h * w)
	p.Run(n, func(lo, hi int) {
		for in := lo; in < hi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * w
				var s float32
				for i := 0; i < h*w; i++ {
					s += x.Data[base+i]
				}
				y.Data[in*c+ic] = s / hw
			}
		}
	})
	return y, nil
}

// GlobalAvgPoolBackwardAlloc spreads each (n,c) gradient uniformly over the
// channel's spatial plane of the given input shape, on a worker pool
// (bit-identical to serial: per-sample disjoint writes), drawing dx from an
// arena (nil = heap, bit-identical).
func GlobalAvgPoolBackwardAlloc(p *parallel.Pool, a *tensor.Arena, dy *tensor.Tensor, inShape tensor.Shape) (*tensor.Tensor, error) {
	n, c, h, w := inShape[0], inShape[1], inShape[2], inShape[3]
	if !dy.Shape().Equal(tensor.Shape{n, c}) {
		return nil, fmt.Errorf("gap: dy shape %v, want [%d %d]", dy.Shape(), n, c)
	}
	dx := a.Get(inShape...)
	hw := float32(h * w)
	p.Run(n, func(lo, hi int) {
		for in := lo; in < hi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * w
				g := dy.Data[in*c+ic] / hw
				for i := 0; i < h*w; i++ {
					dx.Data[base+i] = g
				}
			}
		}
	})
	return dx, nil
}
