package layers

import (
	"fmt"
	"math"

	"bnff/internal/tensor"
)

// This file holds the one convolution window per direction. A window is the
// per-sample chunk body a convolution's batch loop runs: whatever the
// restructured graph fuses around the CONV executes inside it, on the sample
// that is cache-resident anyway, instead of as a full-batch sweep of its own.
//
//	forward:  fill the conv's ifmap tile → ConvGeom.ForwardSample
//	          → the sample's Σy/Σy² partials (sub-BN1 of the following BN)
//	backward: regenerate the ifmap tile → ConvGeom.BackwardSample
//	          → ReLU mask + the sample's dγ/dβ partials (sub-BN2')
//
// Every conv-like entry point — Conv2D.Forward/ForwardBias/Backward here, the
// named fusions in internal/kernels, the executor — is a ConvWindow literal
// over these two bodies, and FC runs them as a 1×1 window over a 1×1 map.
// The source may be a Concat: the fill then writes the tile run by run, and a
// plain convolution copies its runs into the tile, so the window reads the
// bits a dense copy would hold.
// Partials are one per (sample, channel). The forward hands its Σy/Σy² back
// unclosed as Moments, for the same BatchNorm.Close the standalone
// ComputeStatsMVF ends in; the backward reduces dγ/dβ in sample order after
// the dispatch, as BackwardReduceFrom does. So a window's statistics and
// reductions are bit-identical to the unfused composition at any worker count.

// ConvWindow selects what runs inside a convolution's window. The zero value
// is the plain convolution.
type ConvWindow struct {
	// Rectify makes the convolution read ReLU(x) (the paper's RCF): forward
	// rectifies each sample into a tile, backward regenerates the tile from
	// the saved pre-activation and masks the input gradient with it.
	Rectify bool

	// Gamma and Beta (set together) make the convolution read ReLU(γ·x̂+β),
	// the (sub-BN2)-ReLU-CONV fusion. Forward normalizes x by the statistics
	// In on layer BN's ε; backward takes the same x and In, regenerates x̂
	// per sample exactly as the forward computed it, and reduces dγ/dβ while
	// it masks. Nothing feature-map-sized is kept between the two.
	BN          BatchNorm
	In          *BNStats
	Gamma, Beta *tensor.Tensor

	// StoreXHat (forward, under BN) also writes x̂, Figure 5a's O2', and
	// returns it. A backward over that x̂ is an ordinary BN window whose BN
	// and In are BatchNorm.StoredXHat's: x̂ is a BN input under them.
	StoreXHat bool

	// Bias (forward) seeds every output accumulator of channel oc with
	// Bias[oc] — the folded CONV+BN of inference (internal/graph FoldBN).
	Bias *tensor.Tensor

	// Stats (forward) takes the ofmap's per-(sample, channel) MVF partials as
	// each sample is written, CONV-(sub-BN1), and hands them back unclosed:
	// the caller's BatchNorm.Close, or a sync-BN exchange, closes them.
	Stats bool
}

// tiled reports whether the window reads its ifmap through a tile: a
// prologue runs on the way in, or the source is a Concat.
func (win ConvWindow) tiled(src runs) bool {
	return win.Rectify || win.Gamma != nil || src.count() > 1
}

func (win ConvWindow) check(c Conv2D) error {
	if win.Bias != nil && (win.Bias.Rank() != 1 || win.Bias.Dim(0) != c.OutChannels) {
		return fmt.Errorf("conv: bias shape %v, want [%d]", win.Bias.Shape(), c.OutChannels)
	}
	if win.Gamma == nil {
		return nil
	}
	bn := win.BN
	if bn.Channels != c.InChannels {
		return fmt.Errorf("conv: fused BN has %d channels, conv reads %d", bn.Channels, c.InChannels)
	}
	if win.Beta == nil {
		return fmt.Errorf("conv: fused BN needs gamma and beta")
	}
	if err := bn.checkParam("gamma", win.Gamma); err != nil {
		return err
	}
	if err := bn.checkParam("beta", win.Beta); err != nil {
		return err
	}
	return bn.checkStats(win.In)
}

// tileFill is the prologue both windows share: it writes one sample's conv
// ifmap into a chunk-private tile. The zero value copies (a plain convolution
// reading a Concat); rect rectifies; with mean, inv, g and b set the tile is
// ReLU(γ·x̂+β), x̂ being x normalized by mean and inv — a stored x̂ is x with
// mean +0 and inv 1.
type tileFill struct {
	rect            bool
	mean, inv, g, b []float32
}

// fill writes tile from one run src holding channels [c0, c0+len(src)/hw) of
// the ifmap, hw elements a channel. Normalizing, it also writes x̂ to xh: the
// forward's stored O2', the x̂ a backward reduces against, or the tile itself
// where nothing keeps x̂ — the same bits every time.
//
// hot-path: runs once per run per sample per direction; all buffers are the caller's.
func (f *tileFill) fill(tile, src, xh []float32, c0, hw int) {
	c := len(src) / hw
	switch {
	case f.mean != nil:
		normRows(src, xh, tile, f.mean[c0:c0+c], f.inv[c0:], f.g[c0:], f.b[c0:], hw, true)
	case f.rect:
		maskRun(tile[:len(src)], src, src)
	default:
		copy(tile, src)
	}
}

// fillSample fills tile with sample i of x, run by run, and when normalizing
// writes its x̂ to xh.
//
// hot-path: runs once per sample per direction; all buffers are the caller's.
func (f *tileFill) fillSample(tile []float32, x runs, xh []float32, i int) {
	for p, c0 := 0, 0; p < x.count(); p++ {
		run, cp := x.run(p, i)
		lo, hi := c0*x.hw, (c0+cp)*x.hw
		var h []float32
		if xh != nil {
			h = xh[lo:hi]
		}
		f.fill(tile[lo:hi], run, h, c0, x.hw)
		c0 += cp
	}
}

// rectify is ReLU on one element with ReLUForward's semantics: only v > 0
// passes, so NaN and −0 both become +0 (builtin max would keep NaN).
func rectify(v float32) float32 { return passIf(v, v) }

// passIf returns v where z > 0 and +0 elsewhere, without a branch.
func passIf(v, z float32) float32 {
	return math.Float32frombits(math.Float32bits(v) & positive(z))
}

// positive is the branch-free v > 0: all ones when it holds, else zero. The
// positive floats are exactly the bit patterns 1 through 0x7f800000 (+Inf);
// −0, the negatives and every NaN lie outside, so one unsigned compare of
// bits−1 decides — done in 64 bits, where its sign is the answer. A branch
// on v > 0 mispredicts on about half of a normal-distributed map.
func positive(v float32) uint32 {
	return uint32(int64(uint64(math.Float32bits(v)-1)-0x7f800000) >> 63)
}

// ForwardWindow computes y = conv(in, w) where in is x, ReLU(x) or
// ReLU(BN(x)) as win selects, with win's bias and statistics epilogue in the
// same per-sample sweep. xhat is non-nil under BN with win.StoreXHat; under
// win.Stats, m holds y's moments from the conv's arena, for the caller to
// close. Samples split on the conv's pool; each chunk owns a private tile
// (1/N of a batch tensor — the rectified batch tensor never exists) and every
// write (x̂, y, partials) is per-sample disjoint, so pooled execution is
// bit-identical to serial.
func (c Conv2D) ForwardWindow(x Map, w *tensor.Tensor, win ConvWindow) (y, xhat *tensor.Tensor, m Moments, err error) {
	if err := c.checkForward(x, w); err != nil {
		return nil, nil, Moments{}, err
	}
	if err := win.check(c); err != nil {
		return nil, nil, Moments{}, err
	}
	n, _, h, wd := x.Dims4()
	a := c.alloc
	y = a.Get(c.OutShape(x.Shape())...)
	sp := convFwd{geom: c.SampleGeom(h, wd), x: runsOf(x), w: w.Data, y: y.Data}
	sp.rect = win.Rectify
	if win.Bias != nil {
		sp.bias = win.Bias.Data
	}
	if win.Gamma != nil {
		if win.StoreXHat {
			xhat = a.Get(x.Shape()...)
			sp.xh = xhat.Data
		}
		sp.tileFill = tileFill{rect: true, mean: win.In.Mean.Data, inv: win.BN.InvStdScratch(win.In), g: win.Gamma.Data, b: win.Beta.Data}
	}
	m = c.forwardWindow(sp, n, win)
	win.BN.alloc.PutFloats(sp.inv)
	return y, xhat, m, nil
}

// forwardWindow dispatches the forward window body over the n samples sp's
// slices hold. Callers that are not a 4-D convolution — FC, a 1×1 window over
// a 1×1 map — enter here with their own arena-owned output.
func (c Conv2D) forwardWindow(sp convFwd, n int, win ConvWindow) (m Moments) {
	a := c.alloc
	g := &sp.geom
	// All scratch is carved here, on the dispatching goroutine: workers index
	// it by chunk or sample and never touch the arena.
	chunks := c.pool.NumChunks(n)
	if win.tiled(sp.x) {
		sp.tiles = a.Floats(chunks * g.Cin * g.H * g.W)
	}
	var packed []float32 // the channel lanes' weights, once per call
	if k := g.ForwardPack(); k > 0 {
		packed = a.Floats(k)
		g.PackForward(packed, sp.w)
		sp.wt = packed
		sp.scratchLen = g.ForwardScratch()
		sp.scratch = a.Floats(chunks * sp.scratchLen)
	}
	if win.Stats {
		m = Moments{Sum: a.Floats(n * g.Cout), SumSq: a.Floats(n * g.Cout), N: n, HW: g.OH * g.OW}
		sp.psum, sp.psumsq = m.Sum, m.SumSq
	}
	if chunks == 1 {
		// A plain method call on the stack spec: no closure, no heap traffic
		// on the one-worker steady state.
		sp.run(0, 0, n)
	} else {
		pooled := sp // only this copy escapes into the dispatched closure
		c.pool.RunChunked(n, func(chunk, lo, hi int) { pooled.run(chunk, lo, hi) })
	}
	a.PutFloats(sp.tiles)
	a.PutFloats(packed)
	a.PutFloats(sp.scratch)
	return m
}

// convFwd carries ForwardWindow's loop state into its chunk body, so the
// serial path can invoke it without allocating a closure.
type convFwd struct {
	tileFill
	geom         ConvGeom
	x            runs
	w, y, bias   []float32
	wt           []float32 // w packed by PackForward: the channel lanes and FC's forward lanes
	xh           []float32 // x̂ out, under BN with StoreXHat
	tiles        []float32 // per-chunk ifmap tiles; nil: convolve x in place
	scratch      []float32 // per-chunk channel-lane output, scratchLen floats each
	scratchLen   int
	psum, psumsq []float32 // per-(sample, out-channel) partials; nil: no epilogue
}

// run is the forward window. Rectified-away elements enter the convolution as
// +0 terms, exactly as in the unfused ReLU→CONV composition, so non-finite
// weights propagate (0·Inf = NaN).
//
// hot-path: the module's dominant sweep; tiles and partials are carved from
// the dispatcher's slabs, so the body allocates nothing.
func (sp *convFwd) run(chunk, lo, hi int) {
	g := &sp.geom
	inLen, outLen := g.Cin*g.H*g.W, g.Cout*g.OH*g.OW
	for in := lo; in < hi; in++ {
		var src []float32
		if sp.tiles == nil {
			src, _ = sp.x.run(0, in)
		} else {
			src = sp.tiles[chunk*inLen : (chunk+1)*inLen]
			// Under BN the fill writes x̂ before the tile value it scales:
			// with nowhere to store x̂, the tile itself takes it, and the
			// tile value then overwrites it.
			xh := src
			if sp.xh != nil {
				xh = sp.xh[in*inLen : (in+1)*inLen]
			}
			sp.fillSample(src, sp.x, xh, in)
		}
		out := sp.y[in*outLen : (in+1)*outLen]
		g.ForwardSample(src, sp.w, sp.wt, out, sp.bias, sp.scratch[chunk*sp.scratchLen:(chunk+1)*sp.scratchLen])
		if sp.psum != nil {
			momentSample(out, sp.psum[in*g.Cout:(in+1)*g.Cout], sp.psumsq[in*g.Cout:], g.OH*g.OW)
		}
	}
}

// BackwardWindow is the backward of ForwardWindow: given the upstream
// gradient dy and the forward's source x, it returns the gradient with
// respect to x's pre-activation and dW, plus dγ/dβ under BN. The ifmap the
// forward never stored is regenerated per sample into a chunk-private tile
// (under BN with x̂ beside it, from x and In), so no feature-map-sized
// scratch exists. A stored x̂ is a source x under BatchNorm.StoredXHat.
func (c Conv2D) BackwardWindow(dy *tensor.Tensor, src Map, w *tensor.Tensor, win ConvWindow) (dx, dw, dgamma, dbeta *tensor.Tensor, err error) {
	if err := c.checkBackward(dy, src, w, win); err != nil {
		return nil, nil, nil, nil, err
	}
	n, _, h, wd := src.Dims4()
	// dx follows the gradient schedule and comes from the arena (zeroed: the
	// kernel accumulates); dW, dγ and dβ escape into the caller's gradient
	// map, whose lifetime the schedule does not bound, so they are plain
	// allocations.
	dx = c.alloc.Get(src.Shape()...)
	dw = tensor.New(w.Shape()...)
	sp := convBwd{geom: c.SampleGeom(h, wd), dy: dy.Data, src: runsOf(src), w: w.Data, dx: dx.Data, dw: dw.Data}
	dgamma, dbeta = c.backwardWindow(sp, n, win)
	return dx, dw, dgamma, dbeta, nil
}

// BackwardWeights is BackwardWindow without the input gradient, for a
// convolution whose source nothing upstream reads a gradient of — a graph
// input: the same dW, bit for bit, and no dx buffer. A BN window needs dx for
// its dγ/dβ, so it is refused.
func (c Conv2D) BackwardWeights(dy *tensor.Tensor, src Map, w *tensor.Tensor, win ConvWindow) (dw *tensor.Tensor, err error) {
	if err := c.checkBackward(dy, src, w, win); err != nil {
		return nil, err
	}
	if win.Gamma != nil {
		return nil, fmt.Errorf("conv: a fused BN's dγ/dβ need the input gradient")
	}
	n, _, h, wd := src.Dims4()
	dw = tensor.New(w.Shape()...)
	c.backwardWindow(convBwd{geom: c.SampleGeom(h, wd), dy: dy.Data, src: runsOf(src), w: w.Data, dw: dw.Data}, n, win)
	return dw, nil
}

func (c Conv2D) checkBackward(dy *tensor.Tensor, src Map, w *tensor.Tensor, win ConvWindow) error {
	if err := c.checkForward(src, w); err != nil {
		return err
	}
	if !dy.Shape().Equal(c.OutShape(src.Shape())) {
		return fmt.Errorf("conv: dY shape %v, want %v", dy.Shape(), c.OutShape(src.Shape()))
	}
	return win.check(c)
}

// backwardWindow dispatches the backward window body over the n samples sp's
// slices hold, accumulating into sp.dx and sp.dw. With one chunk every sample
// accumulates straight into dw — the serial association. With more, each
// sample owns a zero-seeded dW partial that is reduced in sample order
// afterwards: deterministic at any worker count, within float32 round-off of
// serial (the same additions, associated differently). dx rows are per-sample
// disjoint either way.
func (c Conv2D) backwardWindow(sp convBwd, n int, win ConvWindow) (dgamma, dbeta *tensor.Tensor) {
	a := c.alloc
	g := &sp.geom
	dw := sp.dw
	chunks := c.pool.NumChunks(n)
	if chunks > 1 {
		sp.dwStride = len(dw)
		sp.dw = a.Floats(n * sp.dwStride)
	}
	if win.tiled(sp.src) {
		sp.tiles = a.Floats(chunks * g.Cin * g.H * g.W)
	}
	sp.rect = win.Rectify
	sp.scratchLen = g.SampleScratch()
	sp.scratch = a.Floats(chunks * sp.scratchLen)
	if sp.dx != nil {
		if k := g.BackwardPack(); k > 0 {
			sp.wt = a.Floats(k)
			g.PackBackward(sp.wt, sp.w)
		}
	}
	if win.Gamma != nil {
		sp.tileFill = tileFill{rect: true, mean: win.In.Mean.Data, inv: win.BN.InvStdScratch(win.In), g: win.Gamma.Data, b: win.Beta.Data}
		sp.xhs = a.Floats(chunks * g.Cin * g.H * g.W)
		// float64 partials stay plain heap slices: the arena recycles float32.
		sp.psg, sp.psb = make([]float64, n*g.Cin), make([]float64, n*g.Cin)
	}
	if chunks == 1 {
		sp.run(0, 0, n)
	} else {
		pooled := sp
		c.pool.RunChunked(n, func(chunk, lo, hi int) { pooled.run(chunk, lo, hi) })
		// det-reduce: per-sample dW partials combined in sample order.
		for i := 0; i < n; i++ {
			for j, v := range sp.dw[i*sp.dwStride : (i+1)*sp.dwStride] {
				dw[j] += v
			}
		}
		a.PutFloats(sp.dw)
	}
	a.PutFloats(sp.tiles)
	a.PutFloats(sp.xhs)
	a.PutFloats(sp.scratch)
	a.PutFloats(sp.wt)
	win.BN.alloc.PutFloats(sp.inv)
	if sp.psg != nil {
		dgamma, dbeta = reduceGammaBeta(sp.psg, sp.psb, n, g.Cin)
	}
	return dgamma, dbeta
}

// convBwd carries backwardWindow's loop state into its chunk body.
type convBwd struct {
	tileFill
	geom       ConvGeom
	src        runs
	dy, w      []float32
	wt         []float32 // w packed by PackBackward: dx's channel lanes
	dx, dw     []float32 // dx nil: the input gradient is not computed
	dwStride   int       // 0: all samples share dw; len(w): sample i owns dw[i*len(w):]
	tiles      []float32 // per-chunk regenerated ifmap; nil: src is the ifmap
	xhs        []float32 // per-chunk regenerated x̂, under BN
	scratch    []float32 // per-chunk lane scratch, scratchLen floats each
	scratchLen int
	psg, psb   []float64 // per-(sample, channel) dγ/dβ partials, under BN
}

// run is the backward window. The mask tests the regenerated tile, which is
// never NaN, so a NaN pre-activation loses its gradient exactly as in
// ReLUBackward; masked elements still enter the dγ/dβ chains as zero terms,
// exactly as in BackwardReduceFrom over the masked gradient, so a non-finite x̂
// propagates (0·Inf = NaN).
//
// hot-path: the backward twin of convFwd.run; no per-call allocation.
func (sp *convBwd) run(chunk, lo, hi int) {
	g := &sp.geom
	hw := g.H * g.W
	inLen, outLen, wLen := g.Cin*hw, g.Cout*g.OH*g.OW, len(sp.w)
	for in := lo; in < hi; in++ {
		// z is the ifmap the convolution read; xh, under BN, the x̂ the
		// fill regenerates for the dγ/dβ chains to reduce against.
		z, _ := sp.src.run(0, in)
		var xh []float32
		if sp.tiles != nil {
			z = sp.tiles[chunk*inLen : (chunk+1)*inLen]
			if sp.xhs != nil {
				xh = sp.xhs[chunk*inLen : (chunk+1)*inLen]
			}
			sp.fillSample(z, sp.src, xh, in)
		}
		var dx []float32
		if sp.dx != nil {
			dx = sp.dx[in*inLen : (in+1)*inLen]
		}
		scratch := sp.scratch[chunk*sp.scratchLen : (chunk+1)*sp.scratchLen]
		g.BackwardSample(sp.dy[in*outLen:(in+1)*outLen], z, sp.w, sp.wt, dx, sp.dw[in*sp.dwStride:in*sp.dwStride+wLen], scratch)
		if !sp.rect || dx == nil {
			continue
		}
		maskRun(dx, dx, z)
		if sp.psg != nil {
			gammaBetaPartials(dx, xh, sp.psg[in*g.Cin:], sp.psb[in*g.Cin:], g.Cin, hw)
		}
	}
}
