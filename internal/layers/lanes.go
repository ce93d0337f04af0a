package layers

// This file puts the blocked core's hot bodies on AVX2 lanes
// (lanes_amd64.s). A lane is one output element's accumulator chain, fed the
// scalar body's terms in the scalar body's order by VMULPS then VADDPS — the
// two roundings of `acc += float32(a*b)` — so every lane stores the bits the
// scalar body stores. Where each body gets its lanes:
//
//	forward  stride-1 interior runs: 4 output channels × 8|16 columns
//	dx       interior runs of a residue class: 4 input channels × 8|16 columns
//	dW       a channels-last copy of the sample: 4 output × 8|16 input channels
//	FC       one column, so channels: 32 inputs (dx, dW) or outputs (forward)
//
// Everything else — border columns, runs under 8 lanes, strided forwards,
// grouped dW, channel tails, CPUs without AVX2 — keeps the scalar bodies of
// blocked.go, which remain the reference. Every kernel call is preceded by a
// check that each element it reads or writes lies inside its slice.

// useLanes selects the lane kernels: AVX2 with the OS saving the YMM state,
// read once from CPUID and XGETBV.
//
//lint:ignore noglobals a CPU feature bit read once at start-up: it chooses between two bit-identical bodies, so no executor can observe another through it
var useLanes = hasAVX2()

// ConvBody names the multiply-accumulate body the convolution core runs on
// this CPU: "avx2" (the lane kernels, scalar at the edges) or "scalar".
func ConvBody() string {
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
// starting from seed[j] when seed is non-nil and from out otherwise.
type laneTile struct {
	laneNest
	a, b, out, seed []float32
	ao, bo, oo      int
	aj, oj, ol      int
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
// i+k1). Contiguous lanes that are all stored run on out in place; the rest
// run through a register-sized buffer, gathered from out and scattered back.
// The caller has checked the block's lanes.
//
// hot-path: one kernel call of sweep and of the dW body.
func (t *laneTile) block(i, width, k0, k1 int) {
	oo := t.oo + i*t.ol
	if t.ol == 1 && k0 == 0 && k1 == width {
		t.call(width, t.out, oo, t.oj, t.bo+i)
		return
	}
	var buf [64]float32
	if t.seed == nil {
		for j := 0; j < 4; j++ {
			for l := k0; l < k1; l++ {
				buf[j*16+l] = t.out[oo+j*t.oj+l*t.ol]
			}
		}
	}
	t.call(width, buf[:], 0, 16, t.bo+i)
	for j := 0; j < 4; j++ {
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
// stride ds: dst[c·ds+r] = src[r·cols+c]. It moves 16 × 16 blocks, so each
// side touches whole cache lines and a few pages at a time; walking either
// matrix whole would read (or write) one element per line, and for rows a
// plane or a weight row apart, one per L1 set or TLB entry.
//
// hot-path: the channels-last copy of dW's lanes and FC's transposed weights.
func transpose(dst []float32, ds int, src []float32, rows, cols int) {
	for r0 := 0; r0 < rows; r0 += 16 {
		r1 := min(r0+16, rows)
		for c0 := 0; c0 < cols; c0 += 16 {
			c1 := min(c0+16, cols)
			for r := r0; r < r1; r++ {
				for c, v := range src[r*cols+c0 : r*cols+c1] {
					dst[(c0+c)*ds+r] = v
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
