package layers

import (
	"fmt"

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
// worker pool (nil means serial). Samples are disjoint in both directions (a
// window and its argmax lie within one sample), so pooled execution is
// bit-identical to serial.
func (p Pool2D) WithPool(wp *parallel.Pool) Pool2D {
	p.pool = wp
	return p
}

// WithAlloc returns a copy of the descriptor that obtains its output and
// gradient buffers from the given arena (nil means plain heap allocation,
// bit-identical).
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

func (p Pool2D) check(x Map) error {
	s := x.Shape()
	if len(s) != 4 {
		return fmt.Errorf("pool: input must be rank 4, got %v", s)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if s[2]+2*p.Pad < p.Kernel || s[3]+2*p.Pad < p.Kernel {
		return fmt.Errorf("pool: input %v smaller than window %d with pad %d", s, p.Kernel, p.Pad)
	}
	return nil
}

// Validate checks the window: kernel and stride at least 1, and a pad of at
// most half the kernel, so that every window holds an input cell. A wider
// pad leaves border windows over padding alone — an average of 0/0 and a
// maximum of −Inf with no cell to route its gradient to.
func (p Pool2D) Validate() error {
	if p.Stride < 1 || p.Kernel < 1 {
		return fmt.Errorf("pool: invalid kernel %d / stride %d", p.Kernel, p.Stride)
	}
	if p.Pad < 0 || 2*p.Pad > p.Kernel {
		return fmt.Errorf("pool: pad %d outside [0, kernel/2] for kernel %d", p.Pad, p.Kernel)
	}
	return nil
}

// taps returns the input rows [y0, y1) and columns [x0, x1) that output
// (oy, ox)'s window covers on an h×w plane: the window clipped once, where a
// bounds test per tap would otherwise skip the padding. Validate guarantees
// both ranges are non-empty.
func (p Pool2D) taps(oy, ox, h, w int) (y0, y1, x0, x1 int) {
	ty, tx := oy*p.Stride-p.Pad, ox*p.Stride-p.Pad
	return max(ty, 0), min(ty+p.Kernel, h), max(tx, 0), min(tx+p.Kernel, w)
}

// Forward pools x. For max pooling, padding cells are treated as -inf;
// for average pooling the divisor counts only in-bounds cells (the usual
// "count_include_pad=false" convention). Nothing is kept for the backward
// pass: a max pool's backward scans x again for each window's argmax.
func (p Pool2D) Forward(x Map) (*tensor.Tensor, error) {
	if err := p.check(x); err != nil {
		return nil, err
	}
	n, c, h, w := x.Dims4()
	oh, ow := p.OutSize(h), p.OutSize(w)
	r := runsOf(x)
	y := p.alloc.Get(n, c, oh, ow)
	// Per-sample disjoint writes; the serial path runs the chunk body as a
	// plain call so the steady state allocates no closure.
	if p.pool.Serial() {
		p.forwardChunk(r, y.Data, c, h, w, oh, ow, 0, n)
	} else {
		p.pool.Run(n, func(nLo, nHi int) {
			p.forwardChunk(r, y.Data, c, h, w, oh, ow, nLo, nHi)
		})
	}
	return y, nil
}

// argmax returns the plane index of the maximum of output (oy, ox)'s window
// on an h×w plane: the first tap strictly greater than every tap before it,
// taps in row-major order. So a tie, a NaN after the first tap, and −0
// against +0 all keep the earlier tap. Forward and Backward both call it,
// so the cell a gradient lands on is the cell the forward read.
func (p Pool2D) argmax(plane []float32, oy, ox, h, w int) int {
	y0, y1, x0, x1 := p.taps(oy, ox, h, w)
	best, at := plane[y0*w+x0], y0*w+x0
	for iy := y0; iy < y1; iy++ {
		for ix, v := range plane[iy*w+x0 : iy*w+x1] {
			if v > best {
				best, at = v, iy*w+x0+ix
			}
		}
	}
	return at
}

// forwardChunk pools the samples in [nLo, nHi) of the c-channel map x: the
// argmax tap's value, or the in-bounds-count average, over each window's
// taps in row-major order.
//
// hot-path: per-sample pooling body; the output is caller-provided.
func (p Pool2D) forwardChunk(x runs, yd []float32, c, h, w, oh, ow, nLo, nHi int) {
	hw := h * w
	for in := nLo; in < nHi; in++ {
		for r, c0 := 0, 0; r < x.count(); r++ {
			run, cp := x.run(r, in)
			for ic := 0; ic < cp; ic++ {
				plane := run[ic*hw : (ic+1)*hw]
				oi := (in*c + c0 + ic) * oh * ow
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						if p.Max {
							yd[oi] = plane[p.argmax(plane, oy, ox, h, w)]
							oi++
							continue
						}
						y0, y1, x0, x1 := p.taps(oy, ox, h, w)
						var sum float32
						for iy := y0; iy < y1; iy++ {
							for _, v := range plane[iy*w+x0 : iy*w+x1] {
								sum += v
							}
						}
						yd[oi] = sum / float32((y1-y0)*(x1-x0))
						oi++
					}
				}
			}
			c0 += cp
		}
	}
}

// Backward scatters the upstream gradient of a pooling over an input of
// shape in: to each window's argmax cell for max pooling, found by scanning
// x, the forward's input, again; or uniformly over the window's in-bounds
// cells for average pooling, which does not read x (it may be nil). Every
// cell is accumulated onto dx's zeroed buffer, so a −0 share lands as +0 as
// it would on any gradient sum.
func (p Pool2D) Backward(dy *tensor.Tensor, in tensor.Shape, x Map) (*tensor.Tensor, error) {
	if len(in) != 4 {
		return nil, fmt.Errorf("pool: input shape must be rank 4, got %v", in)
	}
	n, c, h, w := in[0], in[1], in[2], in[3]
	oh, ow := p.OutSize(h), p.OutSize(w)
	if !dy.Shape().Equal(tensor.Shape{n, c, oh, ow}) {
		return nil, fmt.Errorf("pool: dy shape %v, want %v", dy.Shape(), tensor.Shape{n, c, oh, ow})
	}
	var r runs
	if p.Max {
		if x == nil || !x.Shape().Equal(in) {
			return nil, fmt.Errorf("pool: max pool backward needs its input of shape %v", in)
		}
		r = runsOf(x)
	}
	dx := p.alloc.Get(in...)
	// Per-sample scatter targets are disjoint (a window lies inside its own
	// sample), so the sample split is race-free and bit-identical; the
	// serial path is a plain call, with no closure.
	if p.pool.Serial() {
		p.backwardChunk(r, dy.Data, dx.Data, c, h, w, oh, ow, 0, n)
	} else {
		p.pool.Run(n, func(nLo, nHi int) {
			p.backwardChunk(r, dy.Data, dx.Data, c, h, w, oh, ow, nLo, nHi)
		})
	}
	return dx, nil
}

// backwardChunk scatters dy onto dx for the samples in [nLo, nHi), channel
// by channel and output by output in row-major order: each output's
// gradient onto its window's argmax cell in x (max), or its share onto every
// in-bounds cell (average, which leaves x unread).
//
// hot-path: per-sample pooling backward body; dx is caller-provided.
func (p Pool2D) backwardChunk(x runs, dyd, dxd []float32, c, h, w, oh, ow, nLo, nHi int) {
	hw := h * w
	for in := nLo; in < nHi; in++ {
		if p.Max {
			for r, c0 := 0, 0; r < x.count(); r++ {
				run, cp := x.run(r, in)
				for ic := 0; ic < cp; ic++ {
					xp := run[ic*hw : (ic+1)*hw]
					k := in*c + c0 + ic
					plane, oi := dxd[k*hw:(k+1)*hw], k*oh*ow
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							plane[p.argmax(xp, oy, ox, h, w)] += dyd[oi]
							oi++
						}
					}
				}
				c0 += cp
			}
			continue
		}
		for ic := 0; ic < c; ic++ {
			plane, oi := dxd[(in*c+ic)*hw:(in*c+ic+1)*hw], (in*c+ic)*oh*ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y0, y1, x0, x1 := p.taps(oy, ox, h, w)
					share := dyd[oi] / float32((y1-y0)*(x1-x0))
					for iy := y0; iy < y1; iy++ {
						row := plane[iy*w+x0 : iy*w+x1]
						for i := range row {
							row[i] += share
						}
					}
					oi++
				}
			}
		}
	}
}

// GlobalAvgPoolForwardAlloc reduces each channel's H×W plane to its mean,
// returning (N, C) — the head of ResNet/DenseNet before the classifier — on a
// worker pool (the per-channel reductions stay within one sample, so pooled
// execution is bit-identical to serial), drawing the output from an arena
// (nil = heap, bit-identical). The serial path calls the chunk body directly,
// so the steady state allocates no closure.
func GlobalAvgPoolForwardAlloc(p *parallel.Pool, a *tensor.Arena, x Map) (*tensor.Tensor, error) {
	if len(x.Shape()) != 4 {
		return nil, fmt.Errorf("gap: input must be rank 4, got %v", x.Shape())
	}
	n, c, _, _ := x.Dims4()
	r := runsOf(x)
	y := a.Get(n, c)
	if p.Serial() {
		gapChunk(r, y.Data, c, 0, n)
	} else {
		yd := y.Data
		p.Run(n, func(lo, hi int) { gapChunk(r, yd, c, lo, hi) })
	}
	return y, nil
}

// gapChunk is GlobalAvgPoolForwardAlloc's chunk body: each (sample, channel)
// row of x summed in order and divided by its length, for samples [lo, hi).
//
// hot-path: runs once per sample per global pooling.
func gapChunk(x runs, yd []float32, c, lo, hi int) {
	for i := lo; i < hi; i++ {
		for p, c0 := 0, 0; p < x.count(); p++ {
			run, cp := x.run(p, i)
			for ic := 0; ic < cp; ic++ {
				var s float32
				for _, v := range run[ic*x.hw : (ic+1)*x.hw] {
					s += v
				}
				yd[i*c+c0+ic] = s / float32(x.hw)
			}
			c0 += cp
		}
	}
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
