package layers

import (
	"fmt"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// This file holds the GEMM oracle: references the tests compare the direct
// kernels against. Nothing in the product calls them.

// ForwardGEMM computes the same convolution as Forward via im2col + matrix
// multiply — the algorithm Caffe (the paper's reference framework) uses — as
// an independent oracle for the direct kernels. The column matrix
// materializes each input element KH·KW times.
//
// Shapes: columns is (Cin/g·KH·KW, OH·OW) per sample and group; the weight
// matrix is (CoutG, Cin/g·KH·KW); their product is the (CoutG, OH·OW) output
// block, computed by naiveGEMM. Every k term is accumulated — there is no
// zero-skip fast path — so non-finite inputs propagate exactly as in the
// direct kernels (0·Inf = NaN included, for the padding zeros the column
// matrix materializes).
func (c Conv2D) ForwardGEMM(x, w *tensor.Tensor) (*tensor.Tensor, error) {
	if err := c.checkForward(x, w); err != nil {
		return nil, err
	}
	n, cin, h, wd := x.Dims4()
	out := c.alloc.Get(c.OutShape(x.Shape())...)
	_, cout, _, _ := out.Dims4()
	geom := c.SampleGeom(h, wd)
	colRows := geom.CinG * geom.KH * geom.KW
	ohow := geom.OH * geom.OW
	g := c.groups()
	coutG := geom.CoutG

	// Samples split across the pool; each chunk owns a private column matrix
	// carved from a slab the dispatcher allocates (workers must not touch the
	// arena), and output rows are per-sample disjoint, so pooled execution is
	// bit-identical to serial.
	colsLen := colRows * ohow
	slab := c.alloc.Floats(c.pool.NumChunks(n) * colsLen)
	inLen := cin * h * wd
	c.pool.RunChunked(n, func(chunk, nLo, nHi int) {
		cols := slab[chunk*colsLen : (chunk+1)*colsLen]
		for in := nLo; in < nHi; in++ {
			xs := x.Data[in*inLen : (in+1)*inLen]
			for grp := 0; grp < g; grp++ {
				im2colGroup(cols, xs, geom, grp)
				// GEMM: out[oc, :] += Σ_r w[oc, r] · cols[r, :].
				base := (in*cout + grp*coutG) * ohow
				naiveGEMM(out.Data[base:base+coutG*ohow],
					w.Data[grp*coutG*colRows:(grp+1)*coutG*colRows], cols, false, coutG, ohow, colRows)
			}
		}
	})
	c.alloc.PutFloats(slab)
	return out, nil
}

// matMul multiplies (N,K)×(K,M) with naiveGEMM.
func matMul(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	return matMulOn(nil, nil, a, b)
}

// matMulOn is matMul with the output rows split across a worker pool and the
// output drawn from the caller's arena (nil degrades to plain allocation).
// Each output row is owned by exactly one chunk and accumulated in the serial
// k order, so the result is bit-identical to serial; no zero-skip, so NaN/Inf
// propagate.
func matMulOn(p *parallel.Pool, alloc *tensor.Arena, a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(0) {
		return nil, fmt.Errorf("layers: matmul shapes %v × %v", a.Shape(), b.Shape())
	}
	n, k := a.Dims2()
	_, m := b.Dims2()
	out := alloc.Get(n, m)
	p.Run(n, func(lo, hi int) {
		naiveGEMM(out.Data[lo*m:hi*m], a.Data[lo*k:hi*k], b.Data, false, hi-lo, m, k)
	})
	return out, nil
}

// naiveGEMM is the reference C += A·B (or A·Bᵀ) over row-major m×k and k×n
// (n×k) operands: ascending k, one accumulator chain per element, no
// zero-skip.
func naiveGEMM(c, a, b []float32, bTrans bool, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for kk := 0; kk < k; kk++ {
				if bTrans {
					acc += a[i*k+kk] * b[j*k+kk]
				} else {
					acc += a[i*k+kk] * b[kk*n+j]
				}
			}
			c[i*n+j] = acc
		}
	}
}

// im2colGroup lowers one (sample, group) block of x (sample-flat Cin·H·W)
// into the (CinG·KH·KW, OH·OW) column matrix the GEMM oracle multiplies.
// Padding materializes as literal zeros.
func im2colGroup(cols, x []float32, g ConvGeom, grp int) {
	ohow := g.OH * g.OW
	for ig := 0; ig < g.CinG; ig++ {
		inBase := (grp*g.CinG + ig) * g.H * g.W
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				row := (ig*g.KH+ky)*g.KW + kx
				dst := cols[row*ohow : (row+1)*ohow]
				di := 0
				for oy := 0; oy < g.OH; oy++ {
					iy := oy*g.S - g.P + ky
					for ox := 0; ox < g.OW; ox++ {
						ix := ox*g.S - g.P + kx
						if iy < 0 || iy >= g.H || ix < 0 || ix >= g.W {
							dst[di] = 0
						} else {
							dst[di] = x[inBase+iy*g.W+ix]
						}
						di++
					}
				}
			}
		}
	}
}
