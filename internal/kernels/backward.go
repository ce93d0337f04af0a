package kernels

import (
	"fmt"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// FusedConvBackwardReLUBNReduce is the backward half of the
// (sub-BN2)-ReLU-CONV2 fusion. Given the upstream gradient dy of CONV2 and
// the saved normalized map x̂ (O2'), it:
//
//  1. regenerates CONV2's saved ifmap z = ReLU(γ·x̂+β) from x̂ on the fly —
//     the rectified activations were never stored;
//  2. runs CONV2's backward, producing dz and dW2;
//  3. applies the ReLU mask inline to turn dz into BN's upstream gradient dv;
//  4. accumulates dγ = Σ dv·x̂ and dβ = Σ dv (sub-BN2') in the same sweep
//     that writes dv.
//
// Returned dv, dγ and dβ feed BatchNorm.BackwardInput (sub-BN1') on the other
// side of the BN, whose result is CONV1's upstream gradient.
func FusedConvBackwardReLUBNReduce(conv layers.Conv2D, bn layers.BatchNorm,
	dy, xhat, gamma, beta, w *tensor.Tensor) (dv, dw, dgamma, dbeta *tensor.Tensor, err error) {
	if xhat.Rank() != 4 || xhat.Dim(1) != bn.Channels {
		return nil, nil, nil, nil, fmt.Errorf("kernels: xhat %v, want rank 4 with %d channels", xhat.Shape(), bn.Channels)
	}
	if err := convCheck(conv, xhat, w); err != nil {
		return nil, nil, nil, nil, err
	}
	if !dy.Shape().Equal(conv.OutShape(xhat.Shape())) {
		return nil, nil, nil, nil, fmt.Errorf("kernels: dy %v, want %v", dy.Shape(), conv.OutShape(xhat.Shape()))
	}
	n, c, h, wd := xhat.Dims4()
	a := conv.Alloc()

	// Regenerate z from x̂ (register-resident tile in the real kernel; a
	// scratch buffer here — the arithmetic matches the stored-z baseline
	// bit for bit because it is the same expression). Only positive values
	// are written; the zeroed remainder comes from the arena's zero-on-reuse
	// guarantee (or a fresh heap buffer when no arena is set).
	z := a.Get(xhat.Shape()...)
	conv.Pool().Run(n, func(nLo, nHi int) {
		for in := nLo; in < nHi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * wd
				g, b := gamma.Data[ic], beta.Data[ic]
				src := xhat.Data[base : base+h*wd]
				dst := z.Data[base : base+h*wd]
				for i, xv := range src {
					if v := g*xv + b; v > 0 {
						dst[i] = v
					}
				}
			}
		}
	})

	// dz accumulates (+=) inside BackwardInto, so it needs the zeroed buffer
	// the arena guarantees; dW escapes into the caller's gradient map and
	// stays a plain allocation.
	dz := a.Get(xhat.Shape()...)
	dw = tensor.New(w.Shape()...)
	if err := conv.BackwardInto(dy, z, w, dz, dw); err != nil {
		a.Put(z)
		a.Put(dz)
		return nil, nil, nil, nil, err
	}

	// Fused epilogue: ReLU mask + dγ/dβ reductions in the dv-writing sweep.
	dv = dz // reuse the buffer: dv is dz masked in place (arena-owned; the executor returns it)
	dgamma = tensor.New(c)
	dbeta = tensor.New(c)
	dg := make([]float64, c)
	db := make([]float64, c)
	// Per-sample dγ/dβ partials reduced in sample order after the pooled
	// sweep — the serial loop adds one per-sample partial per channel in the
	// same order, so the reductions are bit-identical (dv writes are
	// per-sample disjoint).
	psg := make([]float64, n*c)
	psb := make([]float64, n*c)
	conv.Pool().Run(n, func(nLo, nHi int) {
		for in := nLo; in < nHi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * wd
				zrow := z.Data[base : base+h*wd]
				dvrow := dv.Data[base : base+h*wd]
				xrow := xhat.Data[base : base+h*wd]
				var sg, sb float64
				for i, zv := range zrow {
					if zv <= 0 {
						dvrow[i] = 0
						continue
					}
					g := float64(dvrow[i])
					sg += g * float64(xrow[i])
					sb += g
				}
				psg[in*c+ic] = sg
				psb[in*c+ic] = sb
			}
		}
	})
	// det-reduce: per-sample dγ/dβ partials combined in sample order — the
	// serial loop adds one per-sample partial per channel in the same order.
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			dg[ic] += psg[in*c+ic]
			db[ic] += psb[in*c+ic]
		}
	}
	for ic := 0; ic < c; ic++ {
		dgamma.Data[ic] = float32(dg[ic])
		dbeta.Data[ic] = float32(db[ic])
	}
	a.Put(z)
	return dv, dw, dgamma, dbeta, nil
}

// ReLUConvBackward is RCF's backward: z = ReLU(x) is regenerated from the
// saved pre-activation into a full-batch scratch tensor for CONV's backward
// (the forward stored nothing), and the ReLU mask is applied in place to the
// input gradient. Returns the gradient w.r.t. the pre-activation x and dW.
func ReLUConvBackward(conv layers.Conv2D, dy, x, w *tensor.Tensor) (dx, dw *tensor.Tensor, err error) {
	if err := convCheck(conv, x, w); err != nil {
		return nil, nil, err
	}
	if !dy.Shape().Equal(conv.OutShape(x.Shape())) {
		return nil, nil, fmt.Errorf("kernels: dy %v, want %v", dy.Shape(), conv.OutShape(x.Shape()))
	}
	// Regenerate z = ReLU(x) for the weight gradient, as the forward never
	// stored it. Flat element-range splits with disjoint writes: bit-identical.
	// z writes only positives and dz accumulates, so both rely on the zeroed
	// buffers the arena guarantees.
	a := conv.Alloc()
	z := a.Get(x.Shape()...)
	conv.Pool().Run(len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := x.Data[i]; v > 0 {
				z.Data[i] = v
			}
		}
	})
	dz := a.Get(x.Shape()...)
	dw = tensor.New(w.Shape()...)
	if err := conv.BackwardInto(dy, z, w, dz, dw); err != nil {
		a.Put(z)
		a.Put(dz)
		return nil, nil, err
	}
	a.Put(z)
	dx = dz // mask in place
	conv.Pool().Run(len(dx.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x.Data[i] <= 0 {
				dx.Data[i] = 0
			}
		}
	})
	return dx, dw, nil
}
