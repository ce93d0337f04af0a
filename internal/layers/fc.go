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
// worker pool (nil means serial). The batch splits across samples; forward
// rows and dX rows are disjoint, and dW/dB receive exactly one contribution
// per sample per element, reduced in sample order — so pooled execution is
// bit-identical to serial in both directions.
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

func (f FC) check(x, w, b *tensor.Tensor) error {
	if x.Rank() != 2 || x.Dim(1) != f.In {
		return fmt.Errorf("fc: input shape %v, want [N %d]", x.Shape(), f.In)
	}
	if !w.Shape().Equal(f.WeightShape()) {
		return fmt.Errorf("fc: weight shape %v, want %v", w.Shape(), f.WeightShape())
	}
	if b.Rank() != 1 || b.Dim(0) != f.Out {
		return fmt.Errorf("fc: bias shape %v, want [%d]", b.Shape(), f.Out)
	}
	return nil
}

// Forward computes y (N, Out) through the blocked GEMM core: each output row
// is seeded with the bias, then y += x·Wᵀ accumulates in ascending k order —
// the same single chain per element as the reference dot-product loop, so
// the result is bit-identical to it (and to serial execution: chunks own
// disjoint rows). Panel scratch is carved per chunk from one arena slab the
// dispatching goroutine allocates.
func (f FC) Forward(x, w, b *tensor.Tensor) (*tensor.Tensor, error) {
	if err := f.check(x, w, b); err != nil {
		return nil, err
	}
	n := x.Dim(0)
	y := f.alloc.Get(n, f.Out)
	blk := gemmBlocking()
	aLen, bLen := panelLens(n, f.Out, f.In, blk)
	chunks := f.pool.NumChunks(n)
	panels := f.alloc.Panel(chunks * (aLen + bLen))
	f.pool.RunChunked(n, func(chunk, lo, hi int) {
		packA := panels[chunk*(aLen+bLen) : chunk*(aLen+bLen)+aLen]
		packB := panels[chunk*(aLen+bLen)+aLen : (chunk+1)*(aLen+bLen)]
		for in := lo; in < hi; in++ {
			copy(y.Data[in*f.Out:(in+1)*f.Out], b.Data)
		}
		gemmBlocked(y.Data[lo*f.Out:hi*f.Out], f.Out, x.Data[lo*f.In:hi*f.In], f.In,
			w.Data, f.In, true, hi-lo, f.Out, f.In, blk, packA, packB)
	})
	f.alloc.PutFloats(panels)
	return y, nil
}

// Backward computes dX, dW, dB from the upstream gradient and saved input.
// On a pool, each sample accumulates into a private dW/dB partial that is
// reduced in sample order afterwards; the serial loop adds exactly one
// per-sample term per element in the same order, so the pooled result is
// bit-identical.
func (f FC) Backward(dy, x, w *tensor.Tensor) (dx, dw, db *tensor.Tensor, err error) {
	if x.Rank() != 2 || x.Dim(1) != f.In {
		return nil, nil, nil, fmt.Errorf("fc: input shape %v, want [N %d]", x.Shape(), f.In)
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
	if f.pool.Serial() || n == 1 {
		for in := 0; in < n; in++ {
			f.backwardSample(dy, x, w, dx, dw.Data, db.Data, in)
		}
		return dx, dw, db, nil
	}
	// Per-sample dW/dB partials live in slabs the dispatching goroutine
	// allocates (workers must not touch the arena); samples index disjoint
	// regions, so the pooled writes are race-free.
	ws := f.alloc.Floats(n * f.Out * f.In)
	bs := f.alloc.Floats(n * f.Out)
	f.pool.Run(n, func(lo, hi int) {
		for in := lo; in < hi; in++ {
			f.backwardSample(dy, x, w, dx, ws[in*f.Out*f.In:(in+1)*f.Out*f.In], bs[in*f.Out:(in+1)*f.Out], in)
		}
	})
	// det-reduce: per-sample dW/dB partials combined in sample order — one
	// contribution per sample per element, matching serial bit for bit.
	for in := 0; in < n; in++ {
		for j, v := range ws[in*f.Out*f.In : (in+1)*f.Out*f.In] {
			dw.Data[j] += v
		}
		for j, v := range bs[in*f.Out : (in+1)*f.Out] {
			db.Data[j] += v
		}
	}
	f.alloc.PutFloats(bs)
	f.alloc.PutFloats(ws)
	return dx, dw, db, nil
}

// backwardSample accumulates sample in's contribution into dx (disjoint row)
// and the given dW/dB accumulators.
//
// hot-path: per-sample body of the pooled FC backward; writes only into
// caller accumulators.
func (f FC) backwardSample(dy, x, w, dx *tensor.Tensor, dwd, dbd []float32, in int) {
	xRow := x.Data[in*f.In : (in+1)*f.In]
	dxRow := dx.Data[in*f.In : (in+1)*f.In]
	for o := 0; o < f.Out; o++ {
		g := dy.Data[in*f.Out+o]
		wRow := w.Data[o*f.In : (o+1)*f.In]
		dwRow := dwd[o*f.In : (o+1)*f.In]
		dbd[o] += g
		for i := range xRow {
			dxRow[i] += g * wRow[i]
			dwRow[i] += g * xRow[i]
		}
	}
}
