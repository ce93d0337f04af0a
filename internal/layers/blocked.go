package layers

// This file is the blocked compute core: the direct-convolution sample
// kernels (ConvGeom.ForwardSample, ConvGeom.BackwardSample) that both
// convolution windows in window.go — and through them Conv2D, FC, the fused
// RCF/BNFF nodes, ddp and serve — run once per sample on the tile the window
// has just filled. It is the module's only multiply-accumulate core.
//
// Bit-identity contract: float32 addition is not associative, so every kernel
// here accumulates each output element with a SINGLE accumulator chain over
// the same term order as the straight-line reference loops:
//
//	conv forward y[oc,oy,ox]      (ig, ky, kx) ascending
//	conv dx      dx[ic,iy,ix]     (oc, oy, ox) ascending — taps descending
//	conv dW      dw[oc,ig,ky,kx]  (oy, ox) ascending, samples in batch order
//
// FC, a 1×1 convolution over a 1×1 map, inherits the orders as y[n,o] over k
// ascending, dx[n,k] over o ascending and dw[o,k] over samples.
//
// Register tiling only fans out across DIFFERENT output elements — each keeps
// its own accumulator — and an accumulator seeded from its buffer (dw across
// the samples of a chunk) extends the same chain: ((0+t0)+t1 stored, then
// +t2+t3) ≡ (((0+t0)+t1)+t2)+t3. No term is ever skipped, so NaN/Inf
// propagate exactly as in the reference.
//
// Every term rounds twice, once for the product and once for the sum, and is
// written acc += float32(a*b): the explicit conversion is the Go spec's way
// to forbid fusing the two into one FMA rounding, which the compiler does on
// arm64 (and amd64 at GOAMD64=v3) otherwise. `make nofma` holds the numeric
// packages to it.
//
// The AVX2 lanes (lanes.go) keep the same contract: one lane is one output
// element's chain, fed the same terms in the same order by VMULPS then
// VADDPS — never FMA — so a lane stores the bits the scalar body stores.
// These scalar bodies are the fallback wherever the lanes do not reach and
// the reference they are tested against.

// ConvGeom is the precomputed single-sample geometry of a Conv2D, shared by
// the two convolution windows (window.go) and the test-only GEMM oracle's
// im2col.
type ConvGeom struct {
	Cin, H, W    int
	Cout, OH, OW int
	KH, KW, S, P int
	CinG, CoutG  int // channels per group on each side
}

// SampleGeom returns the per-sample geometry for inputs of spatial extent
// h×w. The caller is responsible for having validated shapes (checkForward).
func (c Conv2D) SampleGeom(h, w int) ConvGeom {
	g := c.groups()
	return ConvGeom{
		Cin: c.InChannels, H: h, W: w,
		Cout: c.OutChannels,
		OH:   (h+2*c.Pad-c.KernelH)/c.Stride + 1,
		OW:   (w+2*c.Pad-c.KernelW)/c.Stride + 1,
		KH:   c.KernelH, KW: c.KernelW, S: c.Stride, P: c.Pad,
		CinG: c.InChannels / g, CoutG: c.OutChannels / g,
	}
}

// clampRange returns the [lo, hi) kernel-tap range whose input coordinate
// i0+t lands inside [0, lim). Taps outside the range contributed nothing in
// the reference loop (its bounds branch skipped them), so clamping the loop
// is bit-identical. hi never drops below lo.
func clampRange(i0, kdim, lim int) (lo, hi int) {
	lo = 0
	if i0 < 0 {
		lo = -i0
	}
	hi = kdim
	if lim-i0 < hi {
		hi = lim - i0
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// tapSpan is clampRange seen from the tap: the [lo, hi) span of output
// coordinates o in [0, olim) whose kernel tap k reads an input coordinate
// o·S − P + k inside [0, lim).
func (g ConvGeom) tapSpan(k, lim, olim int) (lo, hi int) {
	if k < g.P {
		lo = (g.P - k + g.S - 1) / g.S
	}
	if last := lim - 1 + g.P - k; last >= 0 {
		hi = last/g.S + 1
	}
	hi = min(hi, olim)
	return min(lo, hi), hi
}

// flat returns the geometry of a 1×1, stride-1, unpadded convolution as one
// row of H·W columns: the same memory and the same chains (an output element
// sums over channels alone; dW's (oy, ox) order is the flat order), with one
// long run for the tiles.
func (g ConvGeom) flat() ConvGeom {
	if g.KH == 1 && g.KW == 1 && g.S == 1 && g.P == 0 {
		g.W, g.OW = g.H*g.W, g.H*g.W
		g.H, g.OH = 1, 1
	}
	return g
}

// interiorOX returns the [lo, hi) span of output columns whose full KW tap
// row lies inside the input width — the span the register tiles cover without
// bounds checks.
func (g ConvGeom) interiorOX() (lo, hi int) {
	lo, _ = g.tapSpan(0, g.W, g.OW)
	_, hi = g.tapSpan(g.KW-1, g.W, g.OW)
	return min(lo, hi), hi
}

// ForwardSample convolves one sample: x is (Cin,H,W) flat, w the full weight
// tensor, y the (Cout,OH,OW) output, bias optional per-OC seeds. Interior
// output columns run through a register tile with clamped (hence branch-free)
// tap ranges — 2 output channels × 4 columns wherever two channels of one
// group remain, 1 × 4 for a group's odd tail and for depthwise groups; border
// columns fall back to the single-column body. Term order per output element
// is (ig, ky, kx) ascending on a single accumulator chain — bit-identical to
// the straight-line reference loop.
//
// The three bodies share one calling convention: xo and wo are the offsets of
// the element's first in-bounds tap row (channel icLo, row iy0+kyLo, column
// ix0; filter oc, row kyLo) and rows = kyHi − kyLo, so the nest inside only
// ever adds strides. On the lanes, forwardLanes takes the interior columns of
// a stride-1 convolution with four output channels a group, and these
// bodies the borders.
//
// hot-path: the module's dominant FLOP loop; everything lives in caller
// buffers and loop-local scalars.
func (g ConvGeom) ForwardSample(x, w, y []float32, bias []float32) {
	g = g.flat()
	oxLo, oxHi := g.interiorOX()
	lanes := useLanes && g.S == 1 && g.CoutG >= 4 && oxHi-oxLo >= 8
	if lanes {
		g.forwardLanes(x, w, y, bias, oxLo, oxHi)
	}
	hw, plane, filt := g.H*g.W, g.OH*g.OW, g.CinG*g.KH*g.KW
	for oc := 0; oc < g.Cout; {
		pair := oc%g.CoutG+2 <= g.CoutG
		var b0, b1 float32
		if bias != nil {
			b0 = bias[oc]
			if pair {
				b1 = bias[oc+1]
			}
		}
		xBase := (oc / g.CoutG) * g.CinG * hw
		for oy := 0; oy < g.OH; oy++ {
			iy0 := oy*g.S - g.P
			kyLo, kyHi := clampRange(iy0, g.KH, g.H)
			rows := kyHi - kyLo
			xo, wo, yo := xBase+(iy0+kyLo)*g.W, oc*filt+kyLo*g.KW, oc*plane+oy*g.OW
			for ox := 0; ox < g.OW; {
				if lanes && ox == oxLo {
					ox = oxHi
					continue
				}
				ix0 := ox*g.S - g.P
				if ox < oxLo || ox+4 > oxHi {
					y[yo+ox] = g.convPoint(x, w, xo+ix0, wo, rows, ix0, b0)
					if pair {
						y[yo+plane+ox] = g.convPoint(x, w, xo+ix0, wo+filt, rows, ix0, b1)
					}
					ox++
					continue
				}
				if pair {
					g.convTile(x, w, y[yo+ox:], xo+ix0, wo, rows, b0, b1)
				} else {
					g.convQuad(x, w, y[yo+ox:], xo+ix0, wo, rows, b0)
				}
				ox += 4
			}
		}
		oc++
		if pair {
			oc++
		}
	}
}

// convPoint computes one output column with clamped tap ranges.
//
// hot-path: border-column body of ForwardSample.
func (g *ConvGeom) convPoint(x, w []float32, xo, wo, rows, ix0 int, acc float32) float32 {
	kxLo, kxHi := clampRange(ix0, g.KW, g.W)
	xStep, wStep := (g.H-rows)*g.W, (g.KH-rows)*g.KW
	for ig := g.CinG; ig > 0; ig-- {
		for r := rows; r > 0; r-- {
			for kx := kxLo; kx < kxHi; kx++ {
				acc += float32(x[xo+kx] * w[wo+kx])
			}
			xo, wo = xo+g.W, wo+g.KW
		}
		xo, wo = xo+xStep, wo+wStep
	}
	return acc
}

// convQuad computes four adjacent interior output columns of one channel in
// one pass: each weight is loaded once and multiplied into four register
// accumulators (one chain per output element, taps in the same (ig, ky, kx)
// order as convPoint, so the results are bit-identical to four convPoint
// calls).
//
// hot-path: interior register tile of ForwardSample for an unpaired channel.
func (g *ConvGeom) convQuad(x, w, out []float32, xo, wo, rows int, b0 float32) {
	s, kw := g.S, g.KW
	xRow, xStep, wStep := g.W-kw, (g.H-rows)*g.W, (g.KH-rows)*kw
	a0, a1, a2, a3 := b0, b0, b0, b0
	for ig := g.CinG; ig > 0; ig-- {
		for r := rows; r > 0; r-- {
			for end := wo + kw; wo < end; xo, wo = xo+1, wo+1 {
				wv := w[wo]
				a0 += float32(x[xo] * wv)
				a1 += float32(x[xo+s] * wv)
				a2 += float32(x[xo+2*s] * wv)
				a3 += float32(x[xo+3*s] * wv)
			}
			xo += xRow
		}
		xo, wo = xo+xStep, wo+wStep
	}
	out = out[:4]
	out[0], out[1], out[2], out[3] = a0, a1, a2, a3
}

// convTile is convQuad over two consecutive output channels of one group:
// eight register accumulators — as many as amd64's fifteen free XMM registers
// hold beside the six operands; sixteen spill — fed by four ifmap loads and
// two weight loads per tap, so a 1×1 convolution runs as the register-tiled
// GEMM W·x it is. Every accumulator is one output element's single chain,
// seeded from its channel's bias and fed taps in convPoint's order. out starts
// at the first channel's first column; the second channel's row lies one
// ofmap plane further.
//
// hot-path: interior register tile of ForwardSample.
func (g *ConvGeom) convTile(x, w, out []float32, xo, wo, rows int, b0, b1 float32) {
	s, kw := g.S, g.KW
	xRow, xStep, wStep := g.W-kw, (g.H-rows)*g.W, (g.KH-rows)*kw
	filt := g.CinG * g.KH * kw
	a00, a01, a02, a03 := b0, b0, b0, b0
	a10, a11, a12, a13 := b1, b1, b1, b1
	for ig := g.CinG; ig > 0; ig-- {
		for r := rows; r > 0; r-- {
			for end := wo + kw; wo < end; xo, wo = xo+1, wo+1 {
				v0, v1 := w[wo], w[wo+filt]
				xv := x[xo]
				a00 += float32(xv * v0)
				a10 += float32(xv * v1)
				xv = x[xo+s]
				a01 += float32(xv * v0)
				a11 += float32(xv * v1)
				xv = x[xo+2*s]
				a02 += float32(xv * v0)
				a12 += float32(xv * v1)
				xv = x[xo+3*s]
				a03 += float32(xv * v0)
				a13 += float32(xv * v1)
			}
			xo += xRow
		}
		xo, wo = xo+xStep, wo+wStep
	}
	plane := g.OH * g.OW
	o0, o1 := out[:4], out[plane:plane+4]
	o0[0], o0[1], o0[2], o0[3] = a00, a01, a02, a03
	o1[0], o1[1], o1[2], o1[3] = a10, a11, a12, a13
}

// BackwardSample accumulates one sample's input gradient into dx (Cin,H,W)
// and its weight-gradient contribution into dw, given the sample's upstream
// gradient dy (Cout,OH,OW), the ifmap x the forward convolved, and the
// weights. It is two gathers, each of which seeds an accumulator from the
// buffer, keeps it in a register for the element's whole chain and stores it
// once, in the term order of the reference scatter loop (oc, oy, ox, ig, ky,
// kx nested in that order, every in-bounds tap adding w·dy into dx and x·dy
// into dw):
//
//	dx[ic,iy,ix]    += Σ w[oc,ig,ky,kx]·dy[oc,oy,ox]   over (oc, oy, ox) ascending
//	dw[oc,ig,ky,kx] += Σ x[ic,iy,ix]·dy[oc,oy,ox]      over (oy, ox) ascending
//
// No term is skipped, a zero dy included, so 0·Inf and 0·NaN reach both
// gradients as they reach y in the forward.
//
// scratch is the dW lanes' channels-last copy of x, SampleScratch floats; a
// shorter one (nil) keeps dW on the scalar gather.
//
// hot-path: the backward twin of ForwardSample; no per-call allocation.
func (g ConvGeom) BackwardSample(dy, x, w, dx, dw, scratch []float32) {
	g = g.flat()
	if useLanes && g.fcShape() {
		g.fcBackward(dy, x, w, dx, dw)
		return
	}
	g.backwardInput(dy, w, dx)
	if n := g.SampleScratch(); n > 0 && len(scratch) >= n {
		g.dwLanes(dy, x, dw, scratch)
		return
	}
	g.backwardWeights(dy, x, dw)
}

// SampleScratch returns how many floats of scratch BackwardSample's dW lanes
// take: the sample channels-last, channels padded to a multiple of eight. It
// is 0 where dW keeps the scalar gather: without AVX2, for grouped
// convolutions, under four output channels, and for maps under 16 output
// positions, whose chains are too short to pay for the copy.
func (g ConvGeom) SampleScratch() int {
	if !useLanes || g.CinG != g.Cin || g.Cout < 4 || g.OH*g.OW < 16 {
		return 0
	}
	return g.H * g.W * ((g.Cin + 7) &^ 7)
}

// backwardInput is the dx gather. An input coordinate i meets output o
// through tap k where o·S + k = i + P, so with q, r = (i+P) divmod S its taps
// are k = r + m·S at o = q − m for m = 0, 1, …: ascending o is descending m.
// Columns are walked one residue class r at a time, because the columns
// i, i+S, i+2S, i+3S of one class share their tap set and read four adjacent
// dy columns — the 4-wide tile (adjacent columns at stride 1). Columns whose
// taps are clipped by the ofmap's edge take the single-column body. Channels
// pair up like the forward's; on the lanes, four channels of a group take an
// interior run of at least eight columns together.
//
// The three bodies share one calling convention, the forward's mirrored: wo
// and do are the offsets of the element's first term (channel ocLo, largest
// in-bounds my and mx, hence the smallest oy and ox), rows × cols the tap
// grid, and the nest inside only ever adds strides.
//
// hot-path: the input-gradient half of BackwardSample.
func (g *ConvGeom) backwardInput(dy, w, dx []float32) {
	s := g.S
	hw, plane, khw := g.H*g.W, g.OH*g.OW, g.KH*g.KW
	wRow := s * g.KW
	for ic := 0; ic < g.Cin; {
		icg := ic % g.CinG
		nc := min(2, g.CinG-icg) // channels walked together
		lanes := useLanes && icg+4 <= g.CinG
		if lanes {
			nc = 4
		}
		ocLo := (ic / g.CinG) * g.CoutG
		wBase := (ocLo*g.CinG + icg) * khw
		t := laneTile{a: w, b: dy, out: dx, aj: khw, oj: hw, ol: s}
		for iy := 0; iy < g.H; iy++ {
			qy, ry := (iy+g.P)/s, (iy+g.P)%s
			if ry >= g.KH {
				continue
			}
			myLo, myHi := max(0, qy-g.OH+1), min((g.KH-1-ry)/s, qy)
			rows := myHi - myLo + 1
			xo, wo, do := ic*hw+iy*g.W, wBase+(ry+myHi*s)*g.KW, ocLo*plane+(qy-myHi)*g.OW
			for rx := 0; rx < min(s, g.KW); rx++ {
				mxTop := (g.KW - 1 - rx) / s
				q := 0
				if g.P > rx {
					q = (g.P - rx + s - 1) / s
				}
				qEnd := (g.W + g.P - rx + s - 1) / s
				qHi := min(qEnd, g.OW) // interior columns: q in [mxTop, qHi)
				for q < qEnd {
					ix := q*s + rx - g.P
					wf, df := wo+rx+mxTop*s, do+q-mxTop
					switch {
					case q < mxTop || q+4 > qHi:
						mxLo, mxHi := max(0, q-g.OW+1), min(mxTop, q)
						wf, df, cols := wo+rx+mxHi*s, do+q-mxHi, mxHi-mxLo+1
						for c := 0; c < nc; c++ {
							i := xo + c*hw + ix
							dx[i] = g.dxPoint(dy, w, wf+c*khw, df, rows, cols, dx[i])
						}
						q++
					case lanes && qHi-q >= 8:
						cols := mxTop + 1
						t.laneNest = laneNest{
							n:  [3]int{g.CoutG, rows, cols},
							da: [3]int{g.CinG*khw + rows*wRow, cols*s - wRow, -s},
							db: [3]int{plane - rows*g.OW, g.OW - cols, 1},
						}
						t.ao, t.bo, t.oo = wf, df, xo+ix
						t.sweep(qHi - q)
						q = qHi
					case nc == 1:
						g.dxQuad(dy, w, dx[xo+ix:], wf, df, rows, mxTop+1)
						q += 4
					default:
						for c := 0; c < nc; c += 2 {
							g.dxTile(dy, w, dx[xo+c*hw+ix:], wf+c*khw, df, rows, mxTop+1)
						}
						q += 4
					}
				}
			}
		}
		ic += nc
	}
}

// dxPoint continues one dx element's chain from acc over its rows × cols tap
// grid in every output channel of its group.
//
// hot-path: clipped-column body of backwardInput.
func (g *ConvGeom) dxPoint(dy, w []float32, wo, do, rows, cols int, acc float32) float32 {
	s := g.S
	wRow := s * g.KW
	wStep, dStep := g.CinG*g.KH*g.KW+rows*wRow, g.OH*g.OW-rows*g.OW
	for oc := g.CoutG; oc > 0; oc-- {
		for r := rows; r > 0; r-- {
			wi := wo
			for di := do; di < do+cols; di++ {
				acc += float32(w[wi] * dy[di])
				wi -= s
			}
			wo, do = wo-wRow, do+g.OW
		}
		wo, do = wo+wStep, do+dStep
	}
	return acc
}

// dxQuad continues four dx chains — out[0], out[S], out[2S], out[3S], four
// consecutive columns of one residue class — over their common tap grid: each
// weight is loaded once and multiplied into four register accumulators
// against four adjacent dy columns, taps in dxPoint's order.
//
// hot-path: interior register tile of backwardInput for an unpaired channel.
func (g *ConvGeom) dxQuad(dy, w, out []float32, wo, do, rows, cols int) {
	s := g.S
	wRow := s * g.KW
	wStep, dStep := g.CinG*g.KH*g.KW+rows*wRow, g.OH*g.OW-rows*g.OW
	a0, a1, a2, a3 := out[0], out[s], out[2*s], out[3*s]
	for oc := g.CoutG; oc > 0; oc-- {
		for r := rows; r > 0; r-- {
			wi := wo
			for di := do; di < do+cols; di++ {
				wv := w[wi]
				a0 += float32(wv * dy[di])
				a1 += float32(wv * dy[di+1])
				a2 += float32(wv * dy[di+2])
				a3 += float32(wv * dy[di+3])
				wi -= s
			}
			wo, do = wo-wRow, do+g.OW
		}
		wo, do = wo+wStep, do+dStep
	}
	out[0], out[s], out[2*s], out[3*s] = a0, a1, a2, a3
}

// dxTile is dxQuad over two consecutive input channels of one group (the
// second one's row lies one ifmap plane further in out, its filter plane one
// KH×KW further in w): eight register accumulators fed by four dy loads and
// two weight loads per tap — the dx side of a 1×1 convolution as the
// register-tiled GEMM Wᵀ·dy.
//
// hot-path: interior register tile of backwardInput.
func (g *ConvGeom) dxTile(dy, w, out []float32, wo, do, rows, cols int) {
	s := g.S
	wRow, khw := s*g.KW, g.KH*g.KW
	wStep, dStep := g.CinG*khw+rows*wRow, g.OH*g.OW-rows*g.OW
	out1 := out[g.H*g.W:]
	a00, a01, a02, a03 := out[0], out[s], out[2*s], out[3*s]
	a10, a11, a12, a13 := out1[0], out1[s], out1[2*s], out1[3*s]
	for oc := g.CoutG; oc > 0; oc-- {
		for r := rows; r > 0; r-- {
			wi := wo
			for di := do; di < do+cols; di++ {
				v0, v1 := w[wi], w[wi+khw]
				dv := dy[di]
				a00 += float32(v0 * dv)
				a10 += float32(v1 * dv)
				dv = dy[di+1]
				a01 += float32(v0 * dv)
				a11 += float32(v1 * dv)
				dv = dy[di+2]
				a02 += float32(v0 * dv)
				a12 += float32(v1 * dv)
				dv = dy[di+3]
				a03 += float32(v0 * dv)
				a13 += float32(v1 * dv)
				wi -= s
			}
			wo, do = wo-wRow, do+g.OW
		}
		wo, do = wo+wStep, do+dStep
	}
	out[0], out[s], out[2*s], out[3*s] = a00, a01, a02, a03
	out1[0], out1[s], out1[2*s], out1[3*s] = a10, a11, a12, a13
}

// backwardWeights is the dW gather: every (oc, ig) filter plane exactly once,
// through the 2 oc × 4 ig tile where a group has the channels for it and
// through four-plane quads for what the tile leaves (a group's odd channel,
// the input channels past a multiple of four) or cannot take at all (CinG < 4:
// depthwise, an RGB stem), where any four consecutive planes make a quad.
//
// hot-path: the weight-gradient half of BackwardSample.
func (g *ConvGeom) backwardWeights(dy, x, dw []float32) {
	if g.CinG < 4 {
		planes := g.Cout * g.CinG
		for p := 0; p < planes; p += 4 {
			g.dwQuad(dy, x, dw, p, min(4, planes-p))
		}
		return
	}
	for oc := 0; oc < g.Cout; oc++ {
		ig := 0
		if og := oc % g.CoutG; og < g.CoutG&^1 {
			// A paired channel: the tile takes its first CinG&^3 planes, on
			// the pair's even member's turn.
			for ; og%2 == 0 && ig+4 <= g.CinG; ig += 4 {
				g.dwTile(dy, x, dw, oc, ig)
			}
			ig = g.CinG &^ 3
		}
		for ; ig < g.CinG; ig += 4 {
			g.dwQuad(dy, x, dw, oc*g.CinG+ig, min(4, g.CinG-ig))
		}
	}
}

// dwTile is the dW gather for the 2 × 4 block of filter planes (oc, oc+1) ×
// (ig..ig+3) of one group: for each tap, eight register accumulators seeded
// from dw sweep the tap's in-bounds (oy, ox) range fed by two dy loads and
// four ifmap loads per position — the dW side of a 1×1 convolution as the
// register-tiled GEMM dy·xᵀ.
//
// hot-path: register tile of backwardWeights.
func (g *ConvGeom) dwTile(dy, x, dw []float32, oc, ig int) {
	s := g.S
	hw, plane, khw := g.H*g.W, g.OH*g.OW, g.KH*g.KW
	filt := g.CinG * khw
	xb, db, wb := ((oc/g.CoutG)*g.CinG+ig)*hw, oc*plane, (oc*g.CinG+ig)*khw
	for ky := 0; ky < g.KH; ky++ {
		oyLo, oyHi := g.tapSpan(ky, g.H, g.OH)
		for kx := 0; kx < g.KW; kx++ {
			oxLo, oxHi := g.tapSpan(kx, g.W, g.OW)
			w0 := dw[wb+ky*g.KW+kx:]
			w1 := w0[filt:]
			a00, a01, a02, a03 := w0[0], w0[khw], w0[2*khw], w0[3*khw]
			a10, a11, a12, a13 := w1[0], w1[khw], w1[2*khw], w1[3*khw]
			xo, do := xb+(oyLo*s-g.P+ky)*g.W+oxLo*s-g.P+kx, db+oyLo*g.OW+oxLo
			for oy := oyLo; oy < oyHi; oy++ {
				xi := xo
				for di := do; di < do+oxHi-oxLo; di++ {
					g0, g1 := dy[di], dy[di+plane]
					xv := x[xi]
					a00 += float32(xv * g0)
					a10 += float32(xv * g1)
					xv = x[xi+hw]
					a01 += float32(xv * g0)
					a11 += float32(xv * g1)
					xv = x[xi+2*hw]
					a02 += float32(xv * g0)
					a12 += float32(xv * g1)
					xv = x[xi+3*hw]
					a03 += float32(xv * g0)
					a13 += float32(xv * g1)
					xi += s
				}
				xo, do = xo+s*g.W, do+g.OW
			}
			w0[0], w0[khw], w0[2*khw], w0[3*khw] = a00, a01, a02, a03
			w1[0], w1[khw], w1[2*khw], w1[3*khw] = a10, a11, a12, a13
		}
	}
}

// dwQuad is the dW gather for the n ≤ 4 consecutive (oc, ig) filter planes
// starting at plane p: for each tap, four register accumulators — one per
// plane, seeded from dw — sweep the tap's whole in-bounds (oy, ox) range row
// by row and are stored once. Consecutive planes share their tap ranges
// whatever the grouping (four input channels under one dy plane when CinG is
// a multiple of four, four channels of a depthwise convolution otherwise).
// Lanes past n repeat plane p: they compute, and store again, lane 0's value.
//
// hot-path: the weight-gradient half of BackwardSample.
func (g *ConvGeom) dwQuad(dy, x, dw []float32, p, n int) {
	s := g.S
	hw, plane, khw := g.H*g.W, g.OH*g.OW, g.KH*g.KW
	var xb, db, wb [4]int
	for j := range wb {
		pj := p
		if j < n {
			pj += j
		}
		oc, ig := pj/g.CinG, pj%g.CinG
		xb[j], db[j], wb[j] = ((oc/g.CoutG)*g.CinG+ig)*hw, oc*plane, pj*khw
	}
	for ky := 0; ky < g.KH; ky++ {
		oyLo, oyHi := g.tapSpan(ky, g.H, g.OH)
		for kx := 0; kx < g.KW; kx++ {
			oxLo, oxHi := g.tapSpan(kx, g.W, g.OW)
			if oxLo == oxHi {
				continue
			}
			tap := ky*g.KW + kx
			a0, a1, a2, a3 := dw[wb[0]+tap], dw[wb[1]+tap], dw[wb[2]+tap], dw[wb[3]+tap]
			for oy := oyLo; oy < oyHi; oy++ {
				xo := (oy*s-g.P+ky)*g.W + oxLo*s - g.P + kx
				do := oy*g.OW + oxLo
				d0 := dy[db[0]+do : db[0]+do+oxHi-oxLo]
				d1 := dy[db[1]+do:][:len(d0)]
				d2 := dy[db[2]+do:][:len(d0)]
				d3 := dy[db[3]+do:][:len(d0)]
				x0, x1, x2, x3 := x[xb[0]+xo:], x[xb[1]+xo:], x[xb[2]+xo:], x[xb[3]+xo:]
				xi := 0
				for i, g0 := range d0 {
					a0 += float32(x0[xi] * g0)
					a1 += float32(x1[xi] * d1[i])
					a2 += float32(x2[xi] * d2[i])
					a3 += float32(x3[xi] * d3[i])
					xi += s
				}
			}
			dw[wb[0]+tap], dw[wb[1]+tap], dw[wb[2]+tap], dw[wb[3]+tap] = a0, a1, a2, a3
		}
	}
}
