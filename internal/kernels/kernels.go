// Package kernels implements the fused numeric kernels that BN
// Fission-n-Fusion substitutes for baseline layer sequences:
//
//   - ConvForwardStats — CONV1-(sub-BN1): the convolution accumulates Σx and
//     Σx² of its own outputs per channel while writing them, then closes the
//     statistics with the MVF identity V(X) = E(X²) − E(X)². One sweep
//     instead of three (paper Figure 5a: O1, I2, I3 → O1').
//
//   - FusedBNReLUConvForward — (sub-BN2)-ReLU-CONV2: each sample is
//     normalized and rectified into a cache-resident tile the following
//     convolution reads as its ifmap. The normalized map x̂ is written once
//     (Figure 5a's O2') because the backward pass re-reads it; the rectified
//     batch tensor never exists.
//
//   - ReLUConvForward — RCF alone: the same tile-fed kernel with a
//     rectify-only fill, for the RCF-only evaluation scenario.
//
//   - FusedConvBackwardReLUBNReduce — CONV2-ReLU-(sub-BN2') backward: the
//     convolution's backward-data pass regenerates its saved ifmap from x̂
//     (so z=ReLU(γx̂+β) is never stored), applies the ReLU mask inline, and
//     accumulates dγ/dβ in the same sweep that writes BN's upstream gradient.
//
//   - ReLUConvBackward — RCF's backward, regenerating ReLU(x) from the saved
//     pre-activation.
//
// The (sub-BN1')-CONV1 backward is not a kernel here: the executor composes
// BatchNorm.BackwardInput with Conv2D.Backward itself. icf.go holds the
// Concat/Split fusions the ICF cost model prices; the executor does not call
// them yet.
//
// Every kernel is bit-compatible (to float32 round-off) with the baseline
// composition in internal/layers; internal/core's equivalence tests enforce
// this, which is the paper's correctness claim for the restructuring.
package kernels

import (
	"fmt"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// ConvForwardStats computes y = conv(x, w) and, in the same output sweep,
// the per-channel mini-batch statistics of y via the MVF identity. The
// accumulators are float32, mirroring the paper's observation that single
// precision suffices for E(X²) on activation-scale data.
func ConvForwardStats(conv layers.Conv2D, x, w *tensor.Tensor) (*tensor.Tensor, *layers.BNStats, error) {
	y, err := conv.Forward(x, w)
	if err != nil {
		return nil, nil, err
	}
	n, c, h, wd := y.Dims4()
	m := float32(n * h * wd)
	a := conv.Alloc()
	sum := a.Floats(c)
	sumsq := a.Floats(c)
	// Epilogue over the freshly written ofmap tile. In the MKL-DNN
	// implementation this happens before the tile leaves registers; here it
	// is a separate loop over data that is still cache-resident, which keeps
	// the arithmetic identical. On a pool each sample writes a private
	// per-channel partial that is reduced in sample order below — the serial
	// loop adds one per-sample partial per channel in the same order, so the
	// pooled statistics are bit-identical. All scratch comes from the conv's
	// arena on the dispatching goroutine (workers never touch the arena).
	psum := a.Floats(n * c)
	psumsq := a.Floats(n * c)
	conv.Pool().Run(n, func(nLo, nHi int) {
		for in := nLo; in < nHi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * wd
				row := y.Data[base : base+h*wd]
				// 4-wide unroll: s and sq each stay a single accumulator
				// chain adding elements in ascending order, so the sums are
				// bit-identical to the rolled loop; the unroll only breaks
				// the loop-carried add/mul dependency interleaving.
				var s, sq float32
				i := 0
				for ; i+4 <= len(row); i += 4 {
					v0, v1, v2, v3 := row[i], row[i+1], row[i+2], row[i+3]
					s += v0
					s += v1
					s += v2
					s += v3
					sq += v0 * v0
					sq += v1 * v1
					sq += v2 * v2
					sq += v3 * v3
				}
				for ; i < len(row); i++ {
					v := row[i]
					s += v
					sq += v * v
				}
				psum[in*c+ic] = s
				psumsq[in*c+ic] = sq
			}
		}
	})
	// det-reduce: per-sample Σx/Σx² partials combined in sample order — the
	// serial epilogue's association, so the fused stats are bit-identical.
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			sum[ic] += psum[in*c+ic]
			sumsq[ic] += psumsq[in*c+ic]
		}
	}
	mean := a.Get(c)
	variance := a.Get(c)
	for ic := 0; ic < c; ic++ {
		mu := sum[ic] / m
		mean.Data[ic] = mu
		v := sumsq[ic]/m - mu*mu
		if v < 0 {
			v = 0
		}
		variance.Data[ic] = v
	}
	a.PutFloats(psumsq)
	a.PutFloats(psum)
	a.PutFloats(sumsq)
	a.PutFloats(sum)
	return y, &layers.BNStats{Mean: mean, Var: variance, M: n * h * wd}, nil
}

// ReLUConvForward computes y = conv(ReLU(x), w) without materializing the
// full-batch rectified tensor (the paper's RCF): each sample is rectified
// into a cache-resident tile the convolution then reads — the same chunk body
// as FusedBNReLUConvForward with a rectify-only fill. Returns only y; the
// backward pass recovers the ReLU mask from the saved pre-activation x.
func ReLUConvForward(conv layers.Conv2D, x, w *tensor.Tensor) (*tensor.Tensor, error) {
	if err := convCheck(conv, x, w); err != nil {
		return nil, err
	}
	return fusedForward(conv, x, w, bnFill{}), nil
}

// FusedBNReLUConvForward computes y = conv(ReLU(BN(x)), w) for the
// restructured graph. It performs exactly two feature-map-sized sweeps:
// read x / write x̂ (the surviving O2' of Figure 5a), with the convolution
// consuming the normalized, rectified values from an on-chip-sized
// per-sample tile — the full-batch rectified tensor never exists. Each
// element is normalized exactly once as it enters the tile, matching how the
// MKL-DNN fused kernel normalizes per register block, so the arithmetic is
// identical to the baseline composition. Returns y and x̂.
func FusedBNReLUConvForward(conv layers.Conv2D, bn layers.BatchNorm, x *tensor.Tensor,
	stats *layers.BNStats, gamma, beta, w *tensor.Tensor) (y, xhat *tensor.Tensor, err error) {
	if x.Rank() != 4 || x.Dim(1) != bn.Channels {
		return nil, nil, fmt.Errorf("kernels: bn input %v, want rank 4 with %d channels", x.Shape(), bn.Channels)
	}
	if err := convCheck(conv, x, w); err != nil {
		return nil, nil, err
	}
	inv := bn.InvStdScratch(stats)
	xhat = conv.Alloc().Get(x.Shape()...)
	y = fusedForward(conv, x, w, bnFill{xh: xhat.Data, mean: stats.Mean.Data, inv: inv, g: gamma.Data, b: beta.Data})
	bn.Alloc().PutFloats(inv)
	return y, xhat, nil
}

// bnFill is the normalize half of the fused forward's tile fill: x̂ is
// written to xh and γx̂+β rectified into the tile. The zero value selects the
// rectify-only fill of RCF.
type bnFill struct {
	xh, mean, inv, g, b []float32
}

// fusedForward allocates y, dispatches the shared chunk body over the batch,
// and returns y. Samples split on the conv's pool; each chunk owns a private
// per-sample tile of rectified activations (1/N of a batch tensor, the
// cache-resident working set), and all writes (x̂, y) are per-sample disjoint
// — pooled execution is bit-identical to serial. The tiles live in one
// dispatcher-allocated slab indexed by chunk, so workers never touch the
// arena and the scratch recycles across steps.
func fusedForward(conv layers.Conv2D, x, w *tensor.Tensor, fill bnFill) *tensor.Tensor {
	n, c, h, wd := x.Dims4()
	a := conv.Alloc()
	y := a.Get(conv.OutShape(x.Shape())...)
	tileLen := c * h * wd
	slab := a.Floats(conv.Pool().NumChunks(n) * tileLen)
	sp := fusedFwdSpec{
		bnFill: fill, xd: x.Data, yd: y.Data, wdat: w.Data, slab: slab,
		chanLen: h * wd, tileLen: tileLen, outLen: len(y.Data) / n,
		geom: conv.SampleGeom(h, wd),
	}
	if conv.Pool().Serial() {
		// A plain method call on the stack spec: no closure, no heap traffic
		// on the one-worker steady state.
		sp.run(0, 0, n)
	} else {
		// Only this copy escapes into the dispatched closure.
		pooled := sp
		conv.Pool().RunChunked(n, func(chunk, nLo, nHi int) {
			pooled.run(chunk, nLo, nHi)
		})
	}
	a.PutFloats(slab)
	return y
}

// fusedFwdSpec carries fusedForward's loop state into its chunk body, so the
// serial path can invoke it without allocating a closure.
type fusedFwdSpec struct {
	bnFill
	xd, yd, wdat, slab       []float32
	chanLen, tileLen, outLen int
	geom                     layers.ConvGeom
}

// run is the per-chunk body: fill the chunk's private tile with one sample's
// rectified (and, under BNFF, normalized) activations, then convolve the
// sample from the tile with the blocked sample kernel. Rectified-away
// elements enter the convolution as +0 terms, exactly as in the unfused
// ReLU→CONV composition, so non-finite weights propagate (0·Inf = NaN).
//
// hot-path: the fused (sub-BN2')-ReLU-CONV2 sweep; the tile is carved from
// the dispatcher's slab, so the body allocates nothing.
func (sp *fusedFwdSpec) run(chunk, nLo, nHi int) {
	tile := sp.slab[chunk*sp.tileLen : (chunk+1)*sp.tileLen]
	for in := nLo; in < nHi; in++ {
		src := sp.xd[in*sp.tileLen : (in+1)*sp.tileLen]
		if sp.xh == nil {
			for i, v := range src {
				tile[i] = rectify(v)
			}
		} else {
			// One pass: read x, write x̂ (O2'), fill the tile with ReLU(γx̂+β).
			dst := sp.xh[in*sp.tileLen : (in+1)*sp.tileLen]
			for ic := range sp.mean {
				mu, is, gc, bc := sp.mean[ic], sp.inv[ic], sp.g[ic], sp.b[ic]
				lo, hi := ic*sp.chanLen, (ic+1)*sp.chanLen
				xrow, trow := dst[lo:hi], tile[lo:hi]
				for i, xv := range src[lo:hi] {
					xh := (xv - mu) * is
					xrow[i] = xh
					trow[i] = rectify(gc*xh + bc)
				}
			}
		}
		sp.geom.ForwardSample(tile, sp.wdat, sp.yd[in*sp.outLen:(in+1)*sp.outLen], nil)
	}
}

// rectify is ReLU on one element with layers.ReLUForward's semantics: only
// v > 0 passes, so NaN and −0 both become +0 (builtin max would keep NaN).
func rectify(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}

func convCheck(conv layers.Conv2D, x, w *tensor.Tensor) error {
	if x.Rank() != 4 {
		return fmt.Errorf("kernels: conv input must be rank 4, got %v", x.Shape())
	}
	if x.Dim(1) != conv.InChannels {
		return fmt.Errorf("kernels: conv input has %d channels, want %d", x.Dim(1), conv.InChannels)
	}
	if !w.Shape().Equal(conv.WeightShape()) {
		return fmt.Errorf("kernels: conv weight %v, want %v", w.Shape(), conv.WeightShape())
	}
	return nil
}
