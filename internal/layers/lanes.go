package layers

// This file puts the blocked core's hot bodies and the BN and ReLU sweeps on
// AVX2 lanes (lanes_amd64.s). A lane is one output element's accumulator
// chain, fed the scalar body's terms in the scalar body's order by VMULPS then
// VADDPS — the two roundings of `acc += float32(a*b)` — so every lane stores
// the bits the scalar body stores. Where each body gets its lanes:
//
//	forward    column lanes, stride-1 interior runs: 4 output channels × 8|16
//	           columns
//	           channel lanes, every pixel, borders and strides included: 4
//	           pixels that share a tap set (or one pixel 4 times) × 8|16
//	           output channels of the weights packed (ig, ky, kx) × Cout
//	dx         column lanes, interior runs of a residue class: 4 input
//	           channels × 8|16 columns
//	           channel lanes, every pixel: 4 columns of a residue class that
//	           share a tap set (or one 4 times) × 8|16 input channels of the
//	           weights packed (oc, ky, kx) × CinG, taps walked descending
//	dW         a channels-last copy of the sample (itself transposed 8 rows ×
//	           4 columns at a time, from 4 input channels): 4 output × 8|16
//	           input channels
//	FC         one column, so channels: 32 inputs (dx, dW) or outputs (forward)
//	normalize  Normalize, the BNFF window tile both ways, x̂ regenerated for a
//	           backward: 8 elements of a channel row
//	grad       BackwardInputFrom: 8 elements of a channel row
//	rectify    ReLU forward and backward, the rectify tile, the window's mask:
//	           8 elements, VCMPPS GT_OQ against +0, VANDPS
//	reduce     ComputeStats' two passes, MVF moments, dγ/dβ partials: 8
//	           channels (4 to 7 with lanes sharing rows), one chain each, rows
//	           transposed 8 × 4 in registers
//
// A direction takes the channel lanes (chanLanes) with sixteen channels a
// group, or eight where the column lanes do not reach — a stride above 1 or an
// interior run under eight columns, as on 8×8 maps — unless it is a flat 1×1
// convolution; the window packs the weights once per call (PackForward,
// PackBackward). Everything else — groups under eight channels with their
// border columns and runs under 8 lanes, groups under four channels, depthwise
// convolutions, grouped dW, channel tails of the column lanes, reductions over
// fewer than 4 channels, CPUs without AVX2 — keeps the scalar bodies
// (blocked.go, and the scalar loops beside each sweep's lanes), which remain
// the reference. Every kernel call is preceded by a check that each element
// it reads or writes lies inside its slice.

// useLanes selects the lane kernels: AVX2 with the OS saving the YMM state,
// read once from CPUID and XGETBV.
//
//lint:ignore noglobals a CPU feature bit read once at start-up: it chooses between two bit-identical bodies, so no executor can observe another through it
var useLanes = hasAVX2()

// Body names the bodies the convolution core and the BN and ReLU sweeps run
// on this CPU: "avx2" (the lane kernels, scalar at the edges) or "scalar".
func Body() string {
	if useLanes {
		return "avx2"
	}
	return "scalar"
}

// laneNest is the loop nest of the four-row lane kernels: n[0] outer ×
// n[1] middle × n[2] inner terms. The broadcast operand's offset advances by
// da[2] after each inner term, by da[1] after each middle loop and by da[0]
// after each outer loop; the vector operand's by db likewise.
type laneNest struct {
	n, da, db [3]int
}

// reach returns the lowest and highest offset, relative to the first term,
// that an operand advancing by step visits over the nest.
func (t *laneNest) reach(step [3]int) (lo, hi int) {
	d2 := step[2]
	d1 := t.n[2]*d2 + step[1]
	d0 := t.n[1]*d1 + step[0]
	for _, d := range [3]int{(t.n[0] - 1) * d0, (t.n[1] - 1) * d1, (t.n[2] - 1) * d2} {
		if d < 0 {
			lo += d
		} else {
			hi += d
		}
	}
	return lo, hi
}

// laneTile is a run of four-row lane kernel calls: row j, lane i accumulates
// a[ao+j·aj+p]·b[bo+i+q] over the nest's (p, q) into out[oo+j·oj+i·ol],
// starting from seed[j] when seed is non-nil and from out otherwise. Only rows
// [j0, 4) are stored: the rows below repeat a row or overlap a block already
// stored.
type laneTile struct {
	laneNest
	a, b, out, seed []float32
	ao, bo, oo      int
	aj, oj, ol      int
	j0              int
}

// sweep runs the lanes [0, n), n ≥ 8: 16-lane blocks, an 8-lane block, and
// the last n mod 8 lanes as an 8-lane block shifted back to end at n. The
// shifted block runs first, so the lanes it shares with the blocks before it
// start from their seeds as well, and stores only the lanes they leave.
//
// hot-path: the block loop of the forward and dx bodies; no allocation.
func (t *laneTile) sweep(n int) {
	t.check(n, n)
	covered := n &^ 7
	if covered < n {
		t.block(n-8, 8, 8-(n-covered), 8)
	}
	i := 0
	for ; i+16 <= covered; i += 16 {
		t.block(i, 16, 0, 16)
	}
	if i < covered {
		t.block(i, 8, 0, 8)
	}
}

// block runs lanes [i, i+width), width 8 or 16, and stores lanes [i+k0,
// i+k1) of rows [j0, 4). Contiguous lanes that are all stored run on out in
// place; the rest run through a register-sized buffer, gathered from out and
// scattered back. The caller has checked the block's lanes.
//
// hot-path: one kernel call of sweep and of the dW body.
func (t *laneTile) block(i, width, k0, k1 int) {
	oo := t.oo + i*t.ol
	if t.ol == 1 && t.j0 == 0 && k0 == 0 && k1 == width {
		t.call(width, t.out, oo, t.oj, t.bo+i)
		return
	}
	var buf [64]float32
	if t.seed == nil {
		for j := t.j0; j < 4; j++ {
			for l := k0; l < k1; l++ {
				buf[j*16+l] = t.out[oo+j*t.oj+l*t.ol]
			}
		}
	}
	t.call(width, buf[:], 0, 16, t.bo+i)
	for j := t.j0; j < 4; j++ {
		for l := k0; l < k1; l++ {
			t.out[oo+j*t.oj+l*t.ol] = buf[j*16+l]
		}
	}
}

// check panics unless every element a kernel call can touch lies inside its
// slice, for blocks within the vector operand's lanes [0, nb) and, where
// they run in place, out's lanes [0, no): a, seed, b from bo, and out from
// oo. A nest without terms touches neither a nor b.
//
// hot-path: the extent check in front of a run of kernel calls.
func (t *laneTile) check(nb, no int) {
	if t.aj < 0 || t.oj < 0 || t.ol < 1 || t.oo < 0 || (t.seed != nil && len(t.seed) < 4) ||
		(t.ol == 1 && t.oo+3*t.oj+no > len(t.out)) {
		panic("layers: lane kernel operand out of range")
	}
	if t.n[0] < 1 || t.n[1] < 1 || t.n[2] < 1 {
		return
	}
	alo, ahi := t.reach(t.da)
	blo, bhi := t.reach(t.db)
	if t.ao+alo < 0 || t.ao+ahi+3*t.aj >= len(t.a) || t.bo+blo < 0 || t.bo+bhi+nb > len(t.b) {
		panic("layers: lane kernel operand out of range")
	}
}

// call runs the width-lane kernel with row j's lanes at out[oo+j·oj:] and
// the vector operand from b[bo:], within the extents check has passed. A
// nest without terms leaves each chain at its seed.
//
// hot-path: every four-row kernel call.
func (t *laneTile) call(width int, out []float32, oo, oj, bo int) {
	if t.n[0] < 1 || t.n[1] < 1 || t.n[2] < 1 {
		if t.seed != nil {
			for j := 0; j < 4; j++ {
				for l := 0; l < width; l++ {
					out[oo+j*oj+l] = t.seed[j]
				}
			}
		}
		return
	}
	var seed *float32
	if t.seed != nil {
		seed = &t.seed[0]
	}
	if width == 16 {
		lanes4x16(&t.a[t.ao], &t.b[bo], &out[oo], seed, t.aj, oj, t.n[0], t.n[1], t.n[2], t.da[0], t.da[1], t.da[2], t.db[0], t.db[1], t.db[2])
	} else {
		lanes4x8(&t.a[t.ao], &t.b[bo], &out[oo], seed, t.aj, oj, t.n[0], t.n[1], t.n[2], t.da[0], t.da[1], t.da[2], t.db[0], t.db[1], t.db[2])
	}
}

// rowsCall runs laneRows — rows runs of 32 lanes, run r's lane l adding
// a[ao+r·ra+t·ta]·b[bo+r·rb+t·tb+l] over t < n onto out[oo+r·ro+l] — once
// every element it touches is known to lie inside a, b and out. Strides are
// non-negative.
//
// hot-path: the extent check in front of every FC kernel call.
func rowsCall(a []float32, ao int, b []float32, bo int, out []float32, oo, rows, n, ra, rb, ro, ta, tb int) {
	if rows < 1 || n < 1 {
		return
	}
	if ao < 0 || bo < 0 || oo < 0 || ra < 0 || rb < 0 || ro < 0 || ta < 0 || tb < 0 ||
		ao+(rows-1)*ra+(n-1)*ta >= len(a) || bo+(rows-1)*rb+(n-1)*tb+32 > len(b) || oo+(rows-1)*ro+32 > len(out) {
		panic("layers: lane kernel operand out of range")
	}
	laneRows(&a[ao], &b[bo], &out[oo], rows, n, ra, rb, ro, ta, tb)
}

// forwardLanes computes the interior columns [oxLo, oxHi) of every output
// row of a stride-1 convolution with at least four output channels a group:
// four channels of one group per call (a group's last four where its count
// is not a multiple of four — a recomputed channel stores the same bits),
// lanes across columns, each seeded from its channel's bias or +0 and fed
// x·w over (ig, ky, kx) ascending as convPoint does.
//
// hot-path: the interior of ForwardSample on the lanes.
func (g *ConvGeom) forwardLanes(x, w, y, bias []float32, oxLo, oxHi int) {
	hw, plane, filt := g.H*g.W, g.OH*g.OW, g.CinG*g.KH*g.KW
	var zero [4]float32
	t := laneTile{a: w, b: x, out: y, seed: zero[:], aj: filt, oj: plane, ol: 1}
	for grp := 0; grp < g.Cout; grp += g.CoutG {
		xBase := (grp / g.CoutG) * g.CinG * hw
		for o := 0; o < g.CoutG; o += 4 {
			oc := grp + min(o, g.CoutG-4)
			if bias != nil {
				t.seed = bias[oc : oc+4]
			}
			for oy := 0; oy < g.OH; oy++ {
				iy0 := oy - g.P
				kyLo, kyHi := clampRange(iy0, g.KH, g.H)
				rows := kyHi - kyLo
				t.laneNest = laneNest{
					n:  [3]int{g.CinG, rows, g.KW},
					da: [3]int{(g.KH - rows) * g.KW, 0, 1},
					db: [3]int{(g.H - rows) * g.W, g.W - g.KW, 1},
				}
				t.ao, t.bo, t.oo = oc*filt+kyLo*g.KW, xBase+(iy0+kyLo)*g.W+oxLo-g.P, oc*plane+oy*g.OW+oxLo
				t.sweep(oxHi - oxLo)
			}
		}
	}
}

// chanLanes reports whether a direction runs on the channel lanes, given its
// lane channels a group — CoutG forward, CinG for dx. A flat 1×1 convolution
// keeps the column lanes (its one long row is their best case); otherwise it
// takes sixteen channels, or eight where the column lanes do not reach: at a
// stride above 1 or an interior run under eight columns. (Eight channels over
// a long run, as bn-heavy's 3→8 stem at 32², are a draw or a loss in
// BenchmarkConvShapes; sixteen win on every map there.)
func (g *ConvGeom) chanLanes(cg int) bool {
	if !useLanes || cg < 8 || (g.KH == 1 && g.KW == 1 && g.S == 1 && g.P == 0) {
		return false
	}
	lo, hi := g.interiorOX()
	return cg >= 16 || g.S > 1 || hi-lo < 8
}

// ForwardPack returns how many floats of packed weights (PackForward)
// ForwardSample's channel lanes take, 0 where the forward keeps its other
// bodies. Its scratch, the channels-last output, is ForwardScratch floats.
func (g ConvGeom) ForwardPack() int {
	if g = g.flat(); !g.chanLanes(g.CoutG) {
		return 0
	}
	return g.Cout * g.CinG * g.KH * g.KW
}

// ForwardScratch returns how many floats of scratch ForwardSample's channel
// lanes take: the output channels-last, (OH, OW) rows of Cout; 0 where the
// forward keeps its other bodies.
func (g ConvGeom) ForwardScratch() int {
	if g.ForwardPack() == 0 {
		return 0
	}
	return g.OH * g.OW * g.Cout
}

// PackForward writes the weights w (Cout, CinG, KH, KW) transposed into wt as
// (CinG, KH, KW) rows of Cout: the forward's vector operand, a row per tap and
// a lane per output channel. FC's forward lanes read the same layout.
func (g ConvGeom) PackForward(wt, w []float32) {
	transpose(wt, g.Cout, w, g.Cout, g.CinG*g.KH*g.KW)
}

// BackwardPack returns how many floats of packed weights (PackBackward)
// BackwardSample's channel lanes take, 0 where dx keeps its other bodies.
func (g ConvGeom) BackwardPack() int {
	if g = g.flat(); !g.chanLanes(g.CinG) {
		return 0
	}
	return g.Cout * g.CinG * g.KH * g.KW
}

// PackBackward writes the weights w (Cout, CinG, KH, KW) into wt as (Cout,
// KH, KW) rows of CinG: each output channel's filters transposed, dx's vector
// operand, a row per tap and a lane per input channel of the group.
func (g ConvGeom) PackBackward(wt, w []float32) {
	khw := g.KH * g.KW
	filt := g.CinG * khw
	for o := 0; o < g.Cout*filt; o += filt {
		transpose(wt[o:o+filt], g.CinG, w[o:o+filt], g.CinG, khw)
	}
}

// quad picks the four rows of a channel-lane call at position p of a row
// whose positions [lo, hi) share one tap set: the four positions from p,
// step 1 apart and shifted back to end at hi, storing from row j0 = p − start
// on (the rows before it belong to the call before); outside the run, or
// where it is shorter than four, p alone, step 0, its four rows one element
// stored four times. next is the position after the ones it stores.
func quad(p, lo, hi int) (start, step, j0, next int) {
	if p < lo || p >= hi || hi-lo < 4 {
		return p, 0, 0, p + 1
	}
	start = min(p, hi-4)
	return start, 1, p - start, start + 4
}

// forwardChans is ForwardSample on the channel lanes: wt is w packed by
// PackForward, so a call's lanes are 8 or 16 output channels of one group —
// laneTile.sweep's blocks — and its four rows four output columns of one row
// that share a tap set (quad), S input columns apart. The calls run in place
// on yt, the output channels-last, whose rows start at the bias or +0: every
// chain is seeded from yt and adds x·w over (ig, ky, kx) ascending, as
// convPoint does. A group shifted back goes through block's buffer and
// stores only the columns it adds, so no chain is seeded twice. yt is then
// transposed into y.
//
// hot-path: ForwardSample on the channel lanes.
func (g *ConvGeom) forwardChans(x, wt, y, bias, yt []float32) {
	hw, plane := g.H*g.W, g.OH*g.OW
	yt = yt[:plane*g.Cout]
	for o := 0; o < len(yt); o += g.Cout {
		if row := yt[o : o+g.Cout]; bias != nil {
			copy(row, bias)
		} else {
			clear(row)
		}
	}
	oxLo, oxHi := g.interiorOX()
	t := laneTile{a: x, b: wt, out: yt, ol: 1}
	for grp := 0; grp < g.Cout; grp += g.CoutG {
		xBase := (grp / g.CoutG) * g.CinG * hw
		for oy := 0; oy < g.OH; oy++ {
			iy0 := oy*g.S - g.P
			kyLo, kyHi := clampRange(iy0, g.KH, g.H)
			rows := kyHi - kyLo
			for ox := 0; ox < g.OW; {
				start, step, j0, next := quad(ox, oxLo, oxHi)
				ix0 := start*g.S - g.P
				kxLo, kxHi := clampRange(ix0, g.KW, g.W)
				cols := kxHi - kxLo
				t.laneNest = laneNest{
					n:  [3]int{g.CinG, rows, cols},
					da: [3]int{(g.H - rows) * g.W, g.W - cols, 1},
					db: [3]int{(g.KH - rows) * g.KW * g.Cout, (g.KW - cols) * g.Cout, g.Cout},
				}
				t.aj, t.oj, t.j0 = step*g.S, step*g.Cout, j0
				t.ao = xBase + (iy0+kyLo)*g.W + ix0 + kxLo
				t.bo = (kyLo*g.KW+kxLo)*g.Cout + grp
				t.oo = (oy*g.OW+start)*g.Cout + grp
				t.sweep(g.CoutG)
				ox = next
			}
		}
	}
	transpose(y, plane, yt, plane, g.Cout)
}

// backwardInputChans is backwardInput on the channel lanes: wt is w packed by
// PackBackward, so a call's lanes are 8 or 16 input channels of one group and
// its four rows four columns of one residue class that share a tap set
// (quad), reading four adjacent dy columns. dx is transposed channels-last
// into dxt, the calls run on it in place as the forward's do on its output —
// every chain seeded from dx and adding w·dy over (oc, oy, ox) ascending, the
// taps descending, as dxPoint does — and dxt is transposed back.
//
// hot-path: the input-gradient half of BackwardSample on the channel lanes.
func (g *ConvGeom) backwardInputChans(dy, wt, dx, dxt []float32) {
	s := g.S
	hw, plane, khw := g.H*g.W, g.OH*g.OW, g.KH*g.KW
	wRow := s * g.KW
	transpose(dxt, g.Cin, dx, g.Cin, hw)
	t := laneTile{a: dy, b: wt, out: dxt, ol: 1}
	for ic := 0; ic < g.Cin; ic += g.CinG {
		ocLo := (ic / g.CinG) * g.CoutG
		for iy := 0; iy < g.H; iy++ {
			qy, ry := (iy+g.P)/s, (iy+g.P)%s
			if ry >= g.KH {
				continue
			}
			myLo, myHi := max(0, qy-g.OH+1), min((g.KH-1-ry)/s, qy)
			rows := myHi - myLo + 1
			xo, wo, do := iy*g.W*g.Cin+ic, ocLo*khw+(ry+myHi*s)*g.KW, ocLo*plane+(qy-myHi)*g.OW
			for rx := 0; rx < min(s, g.KW); rx++ {
				mxTop := (g.KW - 1 - rx) / s
				q := 0
				if g.P > rx {
					q = (g.P - rx + s - 1) / s
				}
				qEnd := (g.W + g.P - rx + s - 1) / s
				qLo, qHi := max(q, mxTop), min(qEnd, g.OW) // columns with every tap
				for q < qEnd {
					start, step, j0, next := quad(q, qLo, qHi)
					mxLo, mxHi := max(0, start-g.OW+1), min(mxTop, start)
					cols := mxHi - mxLo + 1
					t.laneNest = laneNest{
						n:  [3]int{g.CoutG, rows, cols},
						da: [3]int{plane - rows*g.OW, g.OW - cols, 1},
						db: [3]int{(khw + rows*wRow) * g.CinG, (cols*s - wRow) * g.CinG, -s * g.CinG},
					}
					t.aj, t.oj, t.j0 = step, step*s*g.Cin, j0
					t.ao = do + start - mxHi
					t.bo = (wo + rx + mxHi*s) * g.CinG
					t.oo = xo + (start*s+rx-g.P)*g.Cin
					t.sweep(g.CinG)
					q = next
				}
			}
		}
	}
	transpose(dx, hw, dxt, hw, g.Cin)
}

// dwLanes is backwardWeights on the lanes for an ungrouped convolution: x
// goes channels-last into xt (channels padded to a multiple of eight, so a
// block's lanes past Cin read padding and are not stored), and each call
// accumulates four output × 8 or 16 input channels of one filter tap, every
// lane seeded from dw and fed x·dy over the tap's in-bounds (oy, ox) range
// ascending, as dwTile does. Output channels past a multiple of four take
// dwQuad.
//
// hot-path: the weight-gradient half of BackwardSample on the lanes.
func (g *ConvGeom) dwLanes(dy, x, dw, xt []float32) {
	s, hw, plane, khw := g.S, g.H*g.W, g.OH*g.OW, g.KH*g.KW
	cp := (g.Cin + 7) &^ 7
	transpose(xt, cp, x, g.Cin, hw)
	t := laneTile{a: dy, b: xt, out: dw, aj: plane, oj: g.Cin * khw, ol: khw}
	oc := 0
	for ; oc+4 <= g.Cout; oc += 4 {
		for ky := 0; ky < g.KH; ky++ {
			oyLo, oyHi := g.tapSpan(ky, g.H, g.OH)
			for kx := 0; kx < g.KW; kx++ {
				oxLo, oxHi := g.tapSpan(kx, g.W, g.OW)
				cols := oxHi - oxLo
				if cols == 0 || oyLo == oyHi {
					continue
				}
				t.laneNest = laneNest{
					n:  [3]int{1, oyHi - oyLo, cols},
					da: [3]int{0, g.OW - cols, 1},
					db: [3]int{0, s * cp * (g.W - cols), s * cp},
				}
				t.ao = oc*plane + oyLo*g.OW + oxLo
				t.bo = ((oyLo*s-g.P+ky)*g.W + oxLo*s - g.P + kx) * cp
				t.oo = oc*g.Cin*khw + ky*g.KW + kx
				t.check(cp, g.Cin)
				for ig := 0; ig < g.Cin; ig += 16 {
					width := 16
					if g.Cin-ig <= 8 {
						width = 8
					}
					t.block(ig, width, 0, min(width, g.Cin-ig))
				}
			}
		}
	}
	for p := oc * g.Cin; p < g.Cout*g.Cin; p += 4 {
		g.dwQuad(dy, x, dw, p, min(4, g.Cout*g.Cin-p))
	}
}

// transpose writes the rows × cols matrix src into dst as cols rows of
// stride ds: dst[c·ds+r] = src[r·cols+c]. On the lanes, strips of eight rows
// (of all the rows, from four to seven) go through transposeLanes four
// columns at a time — the last strip shifted back to end at rows, rewriting
// what the one before it wrote — and the columns past a multiple of four
// move in transposeBlock's tiles.
//
// hot-path: the channels-last copy of dW's lanes and FC's transposed weights.
func transpose(dst []float32, ds int, src []float32, rows, cols int) {
	if n, strip := cols&^3, min(rows, 8); useLanes && n > 0 && strip >= 4 {
		for r := 0; r < rows; r += 8 {
			r = min(r, rows-strip)
			s := src[r*cols : (r+strip)*cols]
			_ = dst[(n-1)*ds+r+strip-1] // the last row's store, the highest the kernel makes
			transposeLanes(&dst[r], ds, &s[0], cols, strip-4, n)
		}
		transposeBlock(dst, ds, src, cols, 0, rows, n, cols)
		return
	}
	transposeBlock(dst, ds, src, cols, 0, rows, 0, cols)
}

// transposeBlock is transpose over rows [r0, r1) and columns [c0, c1) of src,
// in 16 × 16 tiles, so each side touches whole cache lines and a few pages at
// a time; walking either matrix whole would read (or write) one element per
// line, and for rows a plane or a weight row apart, one per L1 set or TLB
// entry.
//
// hot-path: transpose's scalar body and the edges of its lanes.
func transposeBlock(dst []float32, ds int, src []float32, cols, r0, r1, c0, c1 int) {
	for rt := r0; rt < r1; rt += 16 {
		rEnd := min(rt+16, r1)
		for ct := c0; ct < c1; ct += 16 {
			cEnd := min(ct+16, c1)
			for r := rt; r < rEnd; r++ {
				for c, v := range src[r*cols+ct : r*cols+cEnd] {
					dst[(ct+c)*ds+r] = v
				}
			}
		}
	}
}

// fcShape reports a 1×1 convolution over a 1×1 map with one group and at
// least 32 input channels — FC as its window runs it. With one output column
// there are no column lanes, so its lanes run across channels instead.
func (g *ConvGeom) fcShape() bool {
	return g.H == 1 && g.W == 1 && g.KH == 1 && g.KW == 1 && g.P == 0 && g.CinG == g.Cin && g.Cin >= 32
}

// fcForward is ForwardSample for fcShape with at least 32 outputs, lanes
// across the outputs: wt is the weights transposed to (Cin, Cout), so the 32
// outputs of one run read one contiguous row per input k, and each y[o]
// starts at its bias (or +0) and adds x[k]·w[o,k] over k ascending as
// convPoint does. The last Cout mod 32 outputs run first as a 32-lane run
// shifted back to end at Cout, through buf.
//
// hot-path: FC's forward on the lanes.
func (g *ConvGeom) fcForward(x, wt, y, bias []float32) {
	in, out := g.Cin, g.Cout
	y = y[:out]
	if bias != nil {
		copy(y, bias[:out])
	} else {
		clear(y)
	}
	full := out &^ 31
	if full < out {
		var buf [32]float32
		o0 := out - 32
		copy(buf[:], y[o0:])
		rowsCall(x, 0, wt, o0, buf[:], 0, 1, in, 0, 0, 0, 1, out)
		copy(y[full:], buf[full-o0:])
	}
	rowsCall(x, 0, wt, 0, y, 0, full/32, in, 0, 32, 32, 1, out)
}

// fcBackward is BackwardSample for fcShape, lanes across the inputs k, which
// are contiguous in x, dx and every weight row: dx[k] continues its chain
// with w[o,k]·dy[o] over o ascending as dxPoint does, and dw[o,k] gets the
// sample's one term x[k]·dy[o], a run of row o per call. The last Cin mod 32
// dx lanes run first as a run shifted back to end at Cin, through buf; the
// dW tail is scalar.
//
// hot-path: FC's backward on the lanes.
func (g *ConvGeom) fcBackward(dy, x, w, dx, dw []float32) {
	in, out := g.Cin, g.Cout
	full := in &^ 31
	if full < in {
		var buf [32]float32
		k0 := in - 32
		copy(buf[:], dx[k0:in])
		rowsCall(dy, 0, w, k0, buf[:], 0, 1, out, 0, 0, 0, 1, in)
		copy(dx[full:in], buf[full-k0:])
	}
	rowsCall(dy, 0, w, 0, dx, 0, full/32, out, 0, 32, 32, 1, in)
	for o, d := range dy[:out] {
		row := dw[o*in : (o+1)*in]
		rowsCall(dy, o, x, 0, row, 0, full/32, 1, 0, 32, 32, 0, 0)
		for k := full; k < in; k++ {
			row[k] += float32(x[k] * d)
		}
	}
}

// normRows is Normalize's body on one sample of len(mean) channel rows of hw
// elements: x̂ = (x − μ)·is into xh and γ·x̂ + β into y, rectified when rect
// (the BNFF window tile, forward and backward). Each element's x̂ is stored
// before its y, so xh may be y when only y is wanted. With gamma nil only x̂
// is written, and y, beta and rect go unread: the forward's x̂, regenerated
// by a backward that stored none. A stored x̂ runs it as x with μ = +0 and
// is = 1: (x̂ − 0)·1 is x̂, a NaN quieted as γ·x̂ would quiet it.
//
// hot-path: runs once per sample per BN forward and backward reduce; all buffers are the caller's.
func normRows(x, xh, y, mean, inv, gamma, beta []float32, hw int, rect bool) {
	c := len(mean)
	n := c * hw
	// Capped at n, every row slice of one operand proves the others'.
	x, xh, inv = x[:n:n], xh[:n:n], inv[:c]
	if gamma == nil {
		if useLanes && n > 0 {
			hatLanes(&x[0], &xh[0], &mean[0], &inv[0], c, hw)
			return
		}
		for ic, mu := range mean {
			lo, hi := ic*hw, (ic+1)*hw
			is, xrow, hrow := inv[ic], x[lo:hi], xh[lo:hi]
			for i, xv := range xrow {
				hrow[i] = (xv - mu) * is
			}
		}
		return
	}
	y, gamma, beta = y[:n:n], gamma[:c], beta[:c]
	if useLanes && n > 0 {
		g0 := &gamma[0]
		if rect {
			normRectifyLanes(&x[0], &xh[0], &y[0], &mean[0], &inv[0], g0, &beta[0], c, hw)
		} else {
			normLanes(&x[0], &xh[0], &y[0], &mean[0], &inv[0], g0, &beta[0], c, hw)
		}
		return
	}
	for ic, g := range gamma {
		lo, hi := ic*hw, (ic+1)*hw
		mu, is, be := mean[ic], inv[ic], beta[ic]
		xrow, hrow, yrow := x[lo:hi], xh[lo:hi], y[lo:hi]
		if rect {
			for i, xv := range xrow {
				v := (xv - mu) * is
				hrow[i] = v
				yrow[i] = rectify(float32(g*v) + be)
			}
			continue
		}
		for i, xv := range xrow {
			v := (xv - mu) * is
			hrow[i] = v
			yrow[i] = float32(g*v) + be
		}
	}
}

// gradRows is BackwardInputFrom's body on one sample of len(gamma) channel
// rows of hw elements: dx = coef·(m·dy − dβ − v·dγ), coef = γ·is/m per
// channel, with v = (x − μ)·is regenerated from the BN input x as normRows
// computes it. A stored x̂ runs it as x under StoredXHat's μ = +0 and is = 1,
// with γ·is in gamma: (x̂ − 0)·1 is x̂, NaNs quieted as any product would
// quiet them.
//
// hot-path: runs once per sample per BN backward; all buffers are the caller's.
func gradRows(dy, x, dx, gamma, inv, mean, dgamma, dbeta []float32, m float32, hw int) {
	c := len(gamma)
	n := c * hw
	dy, x, dx, inv, mean, dgamma, dbeta = dy[:n:n], x[:n:n], dx[:n:n], inv[:c], mean[:c], dgamma[:c], dbeta[:c]
	if useLanes && n > 0 {
		gradRegenLanes(&dy[0], &x[0], &dx[0], &gamma[0], &inv[0], &mean[0], &dgamma[0], &dbeta[0], m, c, hw)
		return
	}
	for ic, g := range gamma {
		lo, hi := ic*hw, (ic+1)*hw
		mu, is := mean[ic], inv[ic]
		coef := g * is / m
		dg, db := dgamma[ic], dbeta[ic]
		xrow, dxrow := x[lo:hi], dx[lo:hi]
		for i, d := range dy[lo:hi] {
			v := (xrow[i] - mu) * is
			dxrow[i] = coef * (float32(m*d) - db - float32(v*dg))
		}
	}
}

// maskRun stores passIf(v[i], z[i]) into dst[i] for every i < len(dst): the
// ReLU backward mask, and with v = z the rectify. dst may be v.
//
// hot-path: every ReLU sweep and every rectified window tile.
func maskRun(dst, v, z []float32) {
	v, z = v[:len(dst)], z[:len(dst)]
	if useLanes && len(dst) > 0 {
		maskLanes(&dst[0], &v[0], &z[0], len(dst))
		return
	}
	for i, zv := range z {
		dst[i] = passIf(v[i], zv)
	}
}

// chainRows checks that x holds rows ∈ [4, 8] channel rows of hw elements
// for the reduction kernels and returns hi, the row their lanes 4-7 start at
// (rows − 4), and n, the elements of each row the kernels take: hw rounded
// down to four. The caller's loop continues every chain over the rest in
// order; lane k's row is chainRow(k, hi).
func chainRows(x []float32, rows, hw int) (hi, n int) {
	if rows < 4 || rows > 8 || hw < 1 || len(x) < rows*hw {
		panic("layers: lane kernel operand out of range")
	}
	return rows - 4, hw &^ 3
}

// chainRow is the row the reduction kernels' lane k reads.
func chainRow(k, hi int) int {
	if k < 4 {
		return k
	}
	return hi + k - 4
}

// meanRows is meanPartials for the rows ∈ [4, 8] channel rows of hw
// elements that x starts with, into pmean[0:rows].
//
// hot-path: the lanes of ComputeStats' mean pass.
func meanRows(x []float32, rows, hw int, m float64, pmean []float32) {
	hi, n := chainRows(x, rows, hw)
	var s [8]float64
	if n > 0 {
		meanLanes(&x[0], hw, hi, n, &s[0])
	}
	for k := range s {
		r := chainRow(k, hi)
		for _, v := range x[r*hw+n : (r+1)*hw] {
			s[k] += float64(v)
		}
		pmean[r] = float32(s[k] / m)
	}
}

// varRows is varPartials for the rows ∈ [4, 8] channel rows of hw elements
// that x starts with, around mean[0:rows], into pvar[0:rows].
//
// hot-path: the lanes of ComputeStats' variance pass.
func varRows(x []float32, rows, hw int, mean []float32, m float64, pvar []float32) {
	hi, n := chainRows(x, rows, hw)
	var mu, s [8]float64
	for k := range mu {
		mu[k] = float64(mean[chainRow(k, hi)])
	}
	if n > 0 {
		varLanes(&x[0], hw, hi, n, &mu[0], &s[0])
	}
	for k := range s {
		r := chainRow(k, hi)
		for _, v := range x[r*hw+n : (r+1)*hw] {
			d := float64(v) - mu[k]
			s[k] += float64(d * d)
		}
		pvar[r] = float32(s[k] / m)
	}
}

// momentRows is momentPartials for the rows ∈ [4, 8] channel rows of hw
// elements that x starts with, into psum[0:rows] and psumsq[0:rows].
//
// hot-path: the lanes of every MVF statistic.
func momentRows(x []float32, rows, hw int, psum, psumsq []float32) {
	hi, n := chainRows(x, rows, hw)
	var s, sq [8]float32
	if n > 0 {
		momentLanes(&x[0], hw, hi, n, &s[0], &sq[0])
	}
	for k := range s {
		r := chainRow(k, hi)
		for _, v := range x[r*hw+n : (r+1)*hw] {
			s[k] += v
			sq[k] += float32(v * v)
		}
		psum[r], psumsq[r] = s[k], sq[k]
	}
}

// gammaBetaRows is gammaBetaPartials for the rows ∈ [4, 8] channel rows of
// hw elements that dy and xh start with, into pg[0:rows] and pb[0:rows].
//
// hot-path: the lanes of every dγ/dβ reduction.
func gammaBetaRows(dy, xh []float32, rows, hw int, pg, pb []float64) {
	hi, n := chainRows(dy, rows, hw)
	chainRows(xh, rows, hw)
	var g, b [8]float64
	if n > 0 {
		gammaBetaLanes(&dy[0], &xh[0], hw, hi, n, &g[0], &b[0])
	}
	for k := range g {
		r := chainRow(k, hi)
		xrow := xh[r*hw+n : (r+1)*hw]
		for i, v := range dy[r*hw+n : (r+1)*hw] {
			e := float64(v)
			g[k] += float64(e * float64(xrow[i]))
			b[k] += e
		}
		pg[r], pb[r] = g[k], b[k]
	}
}
