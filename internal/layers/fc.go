package layers

import (
	"fmt"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// FC is a fully-connected (dense) layer y = x·Wᵀ + b with weight shape
// (Out, In) and bias (Out). It is the classifier head of every studied model.
type FC struct {
	In  int
	Out int

	pool  *parallel.Pool
	alloc *tensor.Arena
}

// WithPool returns a copy of the descriptor that executes on the given
// worker pool (nil means serial). The batch splits across samples exactly as
// a convolution's does (see window.go), so pooled execution is bit-identical
// to serial in both directions.
func (f FC) WithPool(p *parallel.Pool) FC {
	f.pool = p
	return f
}

// WithAlloc returns a copy of the descriptor that obtains its output, dX,
// and per-sample reduction scratch from the given arena (nil means plain
// heap allocation, bit-identical). dW and dB escape into the caller's
// gradient map and stay plain allocations.
func (f FC) WithAlloc(a *tensor.Arena) FC {
	f.alloc = a
	return f
}

// WeightShape returns the (Out, In) weight shape.
func (f FC) WeightShape() tensor.Shape { return tensor.Shape{f.Out, f.In} }

// FLOPs returns the multiply-add FLOP count for a batch.
func (f FC) FLOPs(batch int) int64 { return 2 * int64(batch) * int64(f.In) * int64(f.Out) }

func (f FC) check(x, w *tensor.Tensor) error {
	if x.Rank() != 2 || x.Dim(1) != f.In {
		return fmt.Errorf("fc: input shape %v, want [N %d]", x.Shape(), f.In)
	}
	if !w.Shape().Equal(f.WeightShape()) {
		return fmt.Errorf("fc: weight shape %v, want %v", w.Shape(), f.WeightShape())
	}
	return nil
}

// window returns FC as the convolution it is in memory: (N,In) is
// (N,In,1,1), the (Out,In) weight is (Out,In,1,1), and a 1×1 window over a
// 1×1 map keeps the reference term orders — bias-seeded and k ascending
// forward, dX over o ascending, dW in sample order. The window bodies run on
// FC's own slices, so y and dX stay arena-owned tensors of FC's shape.
func (f FC) window() (Conv2D, ConvGeom) {
	c := NewConv2D(f.In, f.Out, 1, 1, 0)
	c.pool, c.alloc = f.pool, f.alloc
	return c, c.SampleGeom(1, 1)
}

// Forward computes y (N, Out) through the forward window body: each output
// element is seeded with its bias and accumulates x·Wᵀ in ascending k order.
func (f FC) Forward(x, w, b *tensor.Tensor) (*tensor.Tensor, error) {
	if err := f.check(x, w); err != nil {
		return nil, err
	}
	if b.Rank() != 1 || b.Dim(0) != f.Out {
		return nil, fmt.Errorf("fc: bias shape %v, want [%d]", b.Shape(), f.Out)
	}
	n := x.Dim(0)
	y := f.alloc.Get(n, f.Out)
	c, g := f.window()
	sp := convFwd{geom: g, x: x.Data, w: w.Data, y: y.Data, bias: b.Data}
	if useLanes && g.fcShape() && f.Out >= 32 && n >= 4 {
		// The forward's lanes run across outputs, so they read w by columns:
		// a per-call transposed copy makes those rows. The copy streams the
		// weights once, as a scalar pass over one sample does, so it pays from
		// a few samples on.
		sp.wt = f.alloc.Floats(f.In * f.Out)
		transpose(sp.wt, f.Out, w.Data, f.Out, f.In)
	}
	c.forwardWindow(sp, n, ConvWindow{})
	f.alloc.PutFloats(sp.wt)
	return y, nil
}

// Backward computes dX, dW, dB from the upstream gradient and saved input:
// dX and dW through the backward window body, dB as each output's gradient
// summed in sample order.
func (f FC) Backward(dy, x, w *tensor.Tensor) (dx, dw, db *tensor.Tensor, err error) {
	if err := f.check(x, w); err != nil {
		return nil, nil, nil, err
	}
	n := x.Dim(0)
	if !dy.Shape().Equal(tensor.Shape{n, f.Out}) {
		return nil, nil, nil, fmt.Errorf("fc: dy shape %v, want [%d %d]", dy.Shape(), n, f.Out)
	}
	// dx follows the gradient schedule (arena-eligible); dW/dB escape into
	// the caller's gradient map and stay plain allocations.
	dx = f.alloc.Get(n, f.In)
	dw = tensor.New(f.Out, f.In)
	db = tensor.New(f.Out)
	c, g := f.window()
	c.backwardWindow(convBwd{geom: g, dy: dy.Data, src: x.Data, w: w.Data, dx: dx.Data, dw: dw.Data}, n, ConvWindow{})
	for in := 0; in < n; in++ {
		for o, v := range dy.Data[in*f.Out : (in+1)*f.Out] {
			db.Data[o] += v
		}
	}
	return dx, dw, db, nil
}
