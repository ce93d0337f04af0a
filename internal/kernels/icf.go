package kernels

import (
	"fmt"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// This file implements Inter-Composite-layer Fusion (ICF) numerically — the
// part of the paper left as future work ("We estimate additional performance
// enhancement enabled by ICF, leaving implementation for future work").
// ICF extends the fission result across composite-layer boundaries: a
// boundary BN's statistics sub-layer fuses with the Concat that produces its
// input, and its backward input-gradient sub-layer fuses with the Split
// gradient reduction on the same boundary.

// ConcatForwardStats concatenates the inputs along the channel axis and, in
// the same per-sample pass that writes the output, accumulates the
// per-channel Σx and Σx² of the result (MVF) — the ICF forward fusion. The
// boundary BN's statistics therefore cost no sweep beyond the Concat's own
// copy.
func ConcatForwardStats(bn layers.BatchNorm, xs ...*tensor.Tensor) (*tensor.Tensor, *layers.BNStats, error) {
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("kernels: concat-stats with no inputs")
	}
	n, _, h, w := xs[0].Dims4()
	totalC := 0
	for _, x := range xs {
		xn, xc, xh, xw := x.Dims4()
		if xn != n || xh != h || xw != w {
			return nil, nil, fmt.Errorf("kernels: concat-stats incompatible input %v vs %v", x.Shape(), xs[0].Shape())
		}
		totalC += xc
	}
	if totalC != bn.Channels {
		return nil, nil, fmt.Errorf("kernels: concat produces %d channels, BN expects %d", totalC, bn.Channels)
	}
	a := bn.Alloc()
	y := a.Get(n, totalC, h, w)
	hw := h * w
	// Samples split on the BN's pool; copies are per-sample disjoint and each
	// sample's Σx/Σx² partials are taken right behind its copy, then reduced
	// in sample order — ComputeStatsMVF's association bit for bit. Scratch
	// comes from the BN's arena on the dispatching goroutine (workers never
	// touch the arena).
	psum := a.Floats(n * totalC)
	psumsq := a.Floats(n * totalC)
	bn.Pool().Run(n, func(nLo, nHi int) {
		for in := nLo; in < nHi; in++ {
			cOff := 0
			for _, x := range xs {
				xc := x.Dim(1)
				copy(y.Data[(in*totalC+cOff)*hw:(in*totalC+cOff+xc)*hw], x.Data[in*xc*hw:(in+1)*xc*hw])
				cOff += xc
			}
			layers.MomentPartials(y.Data, psum, psumsq, totalC, hw, in, in+1)
		}
	})
	stats := bn.StatsFromPartials(psum, psumsq, n, hw)
	a.PutFloats(psumsq)
	a.PutFloats(psum)
	return y, stats, nil
}

// FusedSplitBNInputBackward is the ICF backward fusion: the boundary BN's
// element-wise input gradient
//
//	du = γ·invstd/M · (M·dv − dβ − x̂·dγ)
//
// is produced in the same sweep that performs the Split gradient reduction
// (summing the other consumers' gradient maps), so du never makes a
// standalone round trip. others may be empty (fan-out of one).
func FusedSplitBNInputBackward(bn layers.BatchNorm, dv, xhat, gamma *tensor.Tensor,
	stats *layers.BNStats, dgamma, dbeta *tensor.Tensor, others []*tensor.Tensor) (*tensor.Tensor, error) {
	if dv.Rank() != 4 || dv.Dim(1) != bn.Channels {
		return nil, fmt.Errorf("kernels: dv %v, want rank 4 with %d channels", dv.Shape(), bn.Channels)
	}
	if !dv.Shape().Equal(xhat.Shape()) {
		return nil, fmt.Errorf("kernels: dv %v vs xhat %v", dv.Shape(), xhat.Shape())
	}
	for i, o := range others {
		if !o.Shape().Equal(dv.Shape()) {
			return nil, fmt.Errorf("kernels: split contribution %d shape %v vs %v", i, o.Shape(), dv.Shape())
		}
	}
	n, c, h, w := dv.Dims4()
	m := float32(n * h * w)
	a := bn.Alloc()
	inv := bn.InvStdScratch(stats)
	out := a.Get(dv.Shape()...)
	bn.Pool().Run(n, func(nLo, nHi int) {
		for in := nLo; in < nHi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * w
				coef := gamma.Data[ic] * inv[ic] / m
				dg, db := dgamma.Data[ic], dbeta.Data[ic]
				for i := 0; i < h*w; i++ {
					du := coef * (m*dv.Data[base+i] - db - xhat.Data[base+i]*dg)
					acc := du
					for _, o := range others {
						acc += o.Data[base+i]
					}
					out.Data[base+i] = acc
				}
			}
		}
	})
	a.PutFloats(inv)
	return out, nil
}
