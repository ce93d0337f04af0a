package layers

import (
	"errors"
	"fmt"
	"math"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// BatchNorm describes a batch-normalization layer in training mode: it
// normalizes each channel by statistics computed over the whole mini-batch
// (N×H×W samples per channel), then applies the learned scale γ and shift β.
//
// The methods deliberately expose the paper's fission decomposition:
//
//	Forward  = ComputeStats (sub-BN1)  ∘  Normalize (sub-BN2)
//	Backward = BackwardReduceFrom (sub-BN2': dγ, dβ)  ∘  BackwardInputFrom (sub-BN1': dX)
//
// so that internal/core can fuse each sub-layer into its neighboring CONV.
// No sub-layer stores x̂: the backward ones regenerate it from the BN input
// x, bit for bit, so training keeps x instead of a second map. A stored x̂
// (BackwardInput, the forward window's StoreXHat) is a BN input under
// StoredXHat's statistics.
// ComputeStatsMVF implements the paper's Mean/Variance Fusion,
// V(X) = E(X²) − E(X)², producing both statistics from a single sweep.
type BatchNorm struct {
	Channels int
	Eps      float32
	Momentum float32 // running-statistics update rate, e.g. 0.1

	pool  *parallel.Pool
	alloc *tensor.Arena
}

// NewBatchNorm returns a BatchNorm with the conventional ε=1e-5, momentum 0.1.
func NewBatchNorm(channels int) BatchNorm {
	return BatchNorm{Channels: channels, Eps: 1e-5, Momentum: 0.1}
}

// WithPool returns a copy of the layer that executes on the given worker
// pool (nil means serial). Statistics and dγ/dβ reductions compute one
// partial per sample and reduce them in sample order — exactly the
// association the serial sweeps use — so pooled execution is bit-identical.
func (b BatchNorm) WithPool(p *parallel.Pool) BatchNorm {
	b.pool = p
	return b
}

// WithAlloc returns a copy of the layer that obtains its outputs, the
// statistics pairs Forward and ComputeStatsMVF return, and reduction scratch
// from the given arena (nil means plain heap allocation, bit-identical). The
// arena is only consulted from the dispatching goroutine, never inside pooled
// closures.
func (b BatchNorm) WithAlloc(a *tensor.Arena) BatchNorm {
	b.alloc = a
	return b
}

// BNStats holds per-channel mini-batch statistics (rank-1, length C).
// Var is the biased variance (divided by the sample count M), matching the
// normalization denominator of the original BN formulation. M records that
// sample count (N·H·W) so UpdateRunning can apply the unbiased M/(M−1)
// correction; statistics built without a count (M == 0, e.g. running
// statistics re-wrapped for inference) are folded as-is.
type BNStats struct {
	Mean *tensor.Tensor
	Var  *tensor.Tensor
	M    int
}

// BNContext is what the baseline backward pass needs: the BN input x, from
// which it regenerates x̂, and the batch statistics.
type BNContext struct {
	X     *tensor.Tensor
	Stats *BNStats
}

func (b BatchNorm) check(x Map) error {
	s := x.Shape()
	if len(s) != 4 {
		return fmt.Errorf("batchnorm: input must be rank 4, got %v", s)
	}
	if s[1] != b.Channels {
		return fmt.Errorf("batchnorm: input has %d channels, layer expects %d", s[1], b.Channels)
	}
	if s[0]*s[2]*s[3] == 0 {
		return fmt.Errorf("batchnorm: empty mini-batch %v", s)
	}
	return nil
}

func (b BatchNorm) checkParam(name string, p *tensor.Tensor) error {
	if p.Rank() != 1 || p.Dim(0) != b.Channels {
		return fmt.Errorf("batchnorm: %s shape %v, want [%d]", name, p.Shape(), b.Channels)
	}
	return nil
}

func (b BatchNorm) checkStats(st *BNStats) error {
	if st == nil {
		return fmt.Errorf("batchnorm: no statistics")
	}
	if err := b.checkParam("mean", st.Mean); err != nil {
		return err
	}
	return b.checkParam("var", st.Var)
}

// ComputeStats evaluates per-channel mean and variance into st with the
// baseline two-pass algorithm: one full sweep for the mean, a second for the
// variance. This is the strict-dependency form the paper's Figure 5 charges
// two memory sweeps (I2, I3) for. st is the caller's pair of length-C
// tensors; its values and M are overwritten.
func (b BatchNorm) ComputeStats(x Map, st *BNStats) error {
	if err := b.check(x); err != nil {
		return err
	}
	if err := b.checkStats(st); err != nil {
		return err
	}
	n, c, h, w := x.Dims4()
	m := float64(n * h * w)
	r := runsOf(x)
	mean, variance := st.Mean.Data, st.Var.Data
	clear(mean)
	clear(variance)

	// Pass 1: mean. One partial per (sample, channel), reduced in sample
	// order — the same association the serial sweep uses, so pooled
	// execution is bit-identical. The serial path calls the chunk bodies
	// directly, as Moments does.
	pmean := b.alloc.Floats(n * c)
	if b.pool.Serial() {
		meanPartials(r, pmean, c, m, 0, n)
	} else {
		b.pool.Run(n, func(lo, hi int) { meanPartials(r, pmean, c, m, lo, hi) })
	}
	// det-reduce: per-sample mean partials combined in sample order — the
	// association the serial sweep uses, so pooled execution is bit-identical.
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			mean[ic] += pmean[in*c+ic]
		}
	}
	b.alloc.PutFloats(pmean)
	// Pass 2: variance around the mean, same partial scheme.
	pvar := b.alloc.Floats(n * c)
	if b.pool.Serial() {
		varPartials(r, mean, pvar, c, m, 0, n)
	} else {
		b.pool.Run(n, func(lo, hi int) { varPartials(r, mean, pvar, c, m, lo, hi) })
	}
	// det-reduce: per-sample variance partials combined in sample order.
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			variance[ic] += pvar[in*c+ic]
		}
	}
	b.alloc.PutFloats(pvar)
	st.M = n * h * w
	return nil
}

// newStats returns a statistics pair of the layer's C channels from its
// arena (nil: the heap), for the callers that keep no pair of their own.
func (b BatchNorm) newStats() *BNStats {
	return &BNStats{Mean: b.alloc.Get(b.Channels), Var: b.alloc.Get(b.Channels)}
}

// meanPartials is ComputeStats' first pass over samples [lo, hi) of the
// c-channel map x: each (sample, channel) row summed in float64, ascending,
// divided by the count m. Each run of a sample is swept on its own; a row's
// sum never depends on the rows beside it, so the partials are a dense
// map's bits whatever its runs.
//
// hot-path: runs once per sample per baseline BN forward.
func meanPartials(x runs, pmean []float32, c int, m float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		for p, c0 := 0, 0; p < x.count(); p++ {
			run, cp := x.run(p, i)
			meanSample(run, pmean[i*c+c0:][:cp], x.hw, m)
			c0 += cp
		}
	}
}

// meanSample is meanPartials on len(pmean) channel rows of hw elements. On
// the lanes, eight channels' chains run at once (meanRows) — each still adds
// its own row in order, so the sums are the same bits.
//
// hot-path: runs once per sample per baseline BN forward.
func meanSample(x, pmean []float32, hw int, m float64) {
	c := len(pmean)
	ic := 0
	if rows := min(c, 8); useLanes && rows >= 4 {
		for ; ic < c; ic += 8 {
			ic = min(ic, c-rows)
			meanRows(x[ic*hw:(ic+rows)*hw], rows, hw, m, pmean[ic:])
		}
	}
	for ; ic < c; ic++ {
		var s float64
		for _, v := range x[ic*hw : (ic+1)*hw] {
			s += float64(v)
		}
		pmean[ic] = float32(s / m)
	}
}

// varPartials is ComputeStats' second pass: each row's Σ(x − μ)² in float64
// around its channel's mean, divided by m, run by run as meanPartials.
//
// hot-path: runs once per sample per baseline BN forward.
func varPartials(x runs, mean, pvar []float32, c int, m float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		for p, c0 := 0, 0; p < x.count(); p++ {
			run, cp := x.run(p, i)
			varSample(run, mean[c0:c0+cp], pvar[i*c+c0:], x.hw, m)
			c0 += cp
		}
	}
}

// varSample is varPartials on len(mean) channel rows of hw elements, with
// meanSample's lanes.
//
// hot-path: runs once per sample per baseline BN forward.
func varSample(x, mean, pvar []float32, hw int, m float64) {
	c := len(mean)
	ic := 0
	if rows := min(c, 8); useLanes && rows >= 4 {
		for ; ic < c; ic += 8 {
			ic = min(ic, c-rows)
			varRows(x[ic*hw:(ic+rows)*hw], rows, hw, mean[ic:], m, pvar[ic:])
		}
	}
	for ; ic < c; ic++ {
		mu := float64(mean[ic])
		var s float64
		for _, v := range x[ic*hw : (ic+1)*hw] {
			d := float64(v) - mu
			s += float64(d * d)
		}
		pvar[ic] = float32(s / m)
	}
}

// Moments is a map's MVF statistics before the close: the per-(sample,
// channel) Σx and Σx² partials momentPartials writes for N samples of C
// channels (sample-major, N·C each), over HW elements per channel. Every MVF
// statistic — standalone, conv-window epilogue, sync-BN — is one Moments value
// closed once by Close; only who closes it differs. The slices belong to the
// producing layer's arena (nil: the heap). It travels by value: a pointer
// would cost a heap allocation per statistics producer per step.
type Moments struct {
	Sum, SumSq []float32
	N, HW      int
}

// ComputeStatsMVF evaluates the statistics in a single sweep using
// V(X) = E(X²) − E(X)², with float32 accumulators to mirror what the fused
// CONV epilogue does in hardware; TestMVFNumerics tabulates where single
// precision holds and where it does not. It is Close(Moments(x)): the
// standalone form of the ForwardWindow statistics epilogue.
func (b BatchNorm) ComputeStatsMVF(x *tensor.Tensor) (*BNStats, error) {
	m, err := b.Moments(x)
	if err != nil {
		return nil, err
	}
	st := b.newStats()
	return st, b.Close(m, st)
}

// Moments sweeps x once for its per-(sample, channel) partials, drawn from
// the layer's arena and split over samples on the layer's pool.
func (b BatchNorm) Moments(x Map) (Moments, error) {
	if err := b.check(x); err != nil {
		return Moments{}, err
	}
	n, c, h, w := x.Dims4()
	r := runsOf(x)
	psum := b.alloc.Floats(n * c)
	psumsq := b.alloc.Floats(n * c)
	// The serial path calls the chunk body directly: a closure handed to
	// Run is heap-allocated (its parameter reaches a go statement), and on
	// the one-worker steady state that per-step garbage is the whole cost.
	if b.pool.Serial() {
		momentPartials(r, psum, psumsq, c, 0, n)
	} else {
		b.pool.Run(n, func(lo, hi int) {
			momentPartials(r, psum, psumsq, c, lo, hi)
		})
	}
	return Moments{Sum: psum, SumSq: psumsq, N: n, HW: h * w}, nil
}

// Close is the one MVF close: it folds m's partials in sample order into
// per-channel Σx and Σx², then takes μ = Σx/M and V(X) = E(X²) − E(X)² with
// the cancellation clamp, into st, the caller's pair of length-C tensors
// (its values and M are overwritten). The partials go back to the layer's
// arena, on error too; partials that are not N·C long for the layer's C
// channels are rejected.
func (b BatchNorm) Close(m Moments, st *BNStats) error {
	a := b.alloc
	defer a.PutFloats(m.Sum)
	defer a.PutFloats(m.SumSq)
	c := b.Channels
	if m.N < 1 || m.HW < 1 || len(m.Sum) != m.N*c || len(m.SumSq) != m.N*c {
		return fmt.Errorf("batchnorm: %d/%d moment partials of %d samples × %d elements, want %d",
			len(m.Sum), len(m.SumSq), m.N, m.HW, m.N*c)
	}
	if err := b.checkStats(st); err != nil {
		return err
	}
	mean, variance := st.Mean.Data, st.Var.Data
	clear(mean)
	clear(variance)
	// det-reduce: the serial sweep adds one per-sample partial per channel
	// in exactly this order, so the pooled result is bit-identical.
	for in := 0; in < m.N; in++ {
		for ic := 0; ic < c; ic++ {
			mean[ic] += m.Sum[in*c+ic]
			variance[ic] += m.SumSq[in*c+ic]
		}
	}
	mf := float32(m.N * m.HW)
	for ic, s := range mean {
		mu := s / mf
		v := variance[ic]/mf - float32(mu*mu)
		if v < 0 { // guard fp cancellation for near-constant channels
			v = 0
		}
		mean[ic], variance[ic] = mu, v
	}
	st.M = m.N * m.HW
	return nil
}

// momentPartials fills the per-(sample, channel) Σx and Σx² partials of the
// single-sweep MVF statistics for samples [lo, hi) of the c-channel map x,
// run by run as meanPartials.
//
// hot-path: runs once per sample per step; all buffers are caller-provided.
func momentPartials(x runs, psum, psumsq []float32, c, lo, hi int) {
	for i := lo; i < hi; i++ {
		for p, c0 := 0, 0; p < x.count(); p++ {
			run, cp := x.run(p, i)
			momentSample(run, psum[i*c+c0:][:cp], psumsq[i*c+c0:], x.hw)
			c0 += cp
		}
	}
}

// momentSample is the one float32 moment loop, shared by BatchNorm.Moments
// and the ForwardWindow epilogue: Σx and Σx² of len(psum) channel rows of hw
// elements. Every s and sq is a single accumulator chain adding its row's
// elements in ascending order: the scalar body unrolls one row by four, the
// lanes run eight channels' chains at once (momentRows).
//
// hot-path: runs once per sample per step; all buffers are caller-provided.
func momentSample(x, psum, psumsq []float32, hw int) {
	c := len(psum)
	ic := 0
	if rows := min(c, 8); useLanes && rows >= 4 {
		for ; ic < c; ic += 8 {
			ic = min(ic, c-rows)
			momentRows(x[ic*hw:(ic+rows)*hw], rows, hw, psum[ic:], psumsq[ic:])
		}
	}
	for ; ic < c; ic++ {
		row := x[ic*hw : (ic+1)*hw]
		var s, sq float32
		i := 0
		for ; i+4 <= len(row); i += 4 {
			v0, v1, v2, v3 := row[i], row[i+1], row[i+2], row[i+3]
			s += v0
			s += v1
			s += v2
			s += v3
			sq += float32(v0 * v0)
			sq += float32(v1 * v1)
			sq += float32(v2 * v2)
			sq += float32(v3 * v3)
		}
		for ; i < len(row); i++ {
			v := row[i]
			s += v
			sq += float32(v * v)
		}
		psum[ic] = s
		psumsq[ic] = sq
	}
}

// InvStdScratch returns per-channel 1/sqrt(var+ε) for the given statistics in
// a slice from the layer's arena (nil = heap, bit-identical); callers return
// it with the arena's PutFloats when their sweep completes, so the per-channel
// scale vector recycles instead of costing a heap allocation per step.
func (b BatchNorm) InvStdScratch(stats *BNStats) []float32 {
	inv := b.alloc.Floats(b.Channels)
	for i, v := range stats.Var.Data {
		inv[i] = float32(1 / math.Sqrt(float64(v)+float64(b.Eps)))
	}
	return inv
}

// StoredXHat returns the layer with ε = 0 and statistics μ = +0, σ² = 1
// over m elements, Mean and Var from the layer's arena (return both with its
// Put). A stored x̂ is a BN input under them: 1/√(1 + 0) is 1, and
// (x̂ − 0)·1 is x̂ in IEEE arithmetic, a NaN quieted as the product that
// reads it would quiet it. So a stored x̂ runs the regenerating bodies. The
// statistics travel by value: a pointer would cost a heap allocation per call.
func (b BatchNorm) StoredXHat(m int) (BatchNorm, BNStats) {
	b.Eps = 0
	st := BNStats{Mean: b.alloc.Get(b.Channels), Var: b.alloc.Get(b.Channels), M: m}
	st.Var.Fill(1)
	return b, st
}

// Normalize is sub-BN2: y = γ·(x−μ)/√(σ²+ε) + β. It keeps no x̂: its
// backward regenerates x̂ from x (BackwardReduceFrom, BackwardInputFrom).
func (b BatchNorm) Normalize(x Map, stats *BNStats, gamma, beta *tensor.Tensor) (*tensor.Tensor, error) {
	if err := b.check(x); err != nil {
		return nil, err
	}
	if err := b.checkParam("gamma", gamma); err != nil {
		return nil, err
	}
	if err := b.checkParam("beta", beta); err != nil {
		return nil, err
	}
	if err := b.checkStats(stats); err != nil {
		return nil, err
	}
	n := x.Shape()[0]
	r := runsOf(x)
	inv := b.InvStdScratch(stats)
	y := b.alloc.Get(x.Shape()...)
	// Element-wise with per-sample disjoint writes: pooled execution is
	// bit-identical to serial. The serial path calls the chunk body
	// directly so the steady state allocates no closure.
	if b.pool.Serial() {
		bnNormalizeChunk(r, y.Data, stats.Mean.Data, inv, gamma.Data, beta.Data, 0, n)
	} else {
		b.pool.Run(n, func(lo, hi int) {
			bnNormalizeChunk(r, y.Data, stats.Mean.Data, inv, gamma.Data, beta.Data, lo, hi)
		})
	}
	b.alloc.PutFloats(inv)
	return y, nil
}

// bnNormalizeChunk is Normalize's chunk body: y = γx̂+β for the samples in
// [lo, hi) of x, one run at a time — element-wise, so the same bits as over
// a dense map. Each x̂ goes to y and is overwritten there (normRows stores
// each x̂ before its y).
//
// hot-path: runs once per sample per step; all buffers are caller-provided.
func bnNormalizeChunk(x runs, yd, mean, inv, gamma, beta []float32, lo, hi int) {
	c := len(gamma)
	for i := lo; i < hi; i++ {
		for p, c0 := 0, 0; p < x.count(); p++ {
			run, cp := x.run(p, i)
			s := (i*c + c0) * x.hw
			y := yd[s : s+len(run)]
			normRows(run, y, y, mean[c0:c0+cp], inv[c0:], gamma[c0:], beta[c0:], x.hw, false)
			c0 += cp
		}
	}
}

// Forward is the baseline composition, the executor's OpBN forward:
// two-pass statistics, then normalize.
func (b BatchNorm) Forward(x, gamma, beta *tensor.Tensor) (*tensor.Tensor, *BNContext, error) {
	stats := b.newStats()
	if err := b.ComputeStats(x, stats); err != nil {
		return nil, nil, err
	}
	y, err := b.Normalize(x, stats, gamma, beta)
	if err != nil {
		return nil, nil, err
	}
	return y, &BNContext{X: x, Stats: stats}, nil
}

// BackwardReduceFrom is sub-BN2': the mini-batch reductions dγ = Σ dy·x̂ and
// dβ = Σ dy, reading the BN's input x and its statistics. Per sample, and run
// by run over a Concat, x̂ is regenerated into a chunk-private scratch by the
// forward's normalize body (normRows without γ), then reduced by
// gammaBetaPartials. In the restructured graph this runs as an epilogue of the
// following CONV's backward window, which already sweeps dy.
func (b BatchNorm) BackwardReduceFrom(dy *tensor.Tensor, x Map, stats *BNStats) (dgamma, dbeta *tensor.Tensor, err error) {
	if err := b.check(dy); err != nil {
		return nil, nil, err
	}
	if !dy.Shape().Equal(x.Shape()) {
		return nil, nil, fmt.Errorf("batchnorm: dy %v vs x %v", dy.Shape(), x.Shape())
	}
	if err := b.checkStats(stats); err != nil {
		return nil, nil, err
	}
	n, c, h, w := dy.Dims4()
	r, mean, inv := runsOf(x), stats.Mean.Data, b.InvStdScratch(stats)
	chunks := b.pool.NumChunks(n)
	xhs := b.alloc.Floats(chunks * c * h * w)
	pg, pb := make([]float64, n*c), make([]float64, n*c)
	if chunks == 1 {
		gammaBetaRegenChunk(r, dy.Data, xhs, mean, inv, pg, pb, 0, 0, n)
	} else {
		b.pool.RunChunked(n, func(chunk, lo, hi int) {
			gammaBetaRegenChunk(r, dy.Data, xhs, mean, inv, pg, pb, chunk, lo, hi)
		})
	}
	b.alloc.PutFloats(xhs)
	b.alloc.PutFloats(inv)
	dgamma, dbeta = reduceGammaBeta(pg, pb, n, c)
	return dgamma, dbeta, nil
}

// gammaBetaRegenChunk is BackwardReduceFrom's chunk body over the samples in
// [lo, hi): each sample's x̂ regenerated run by run into the chunk's slot of
// xhs, then its gammaBetaPartials.
//
// hot-path: runs once per sample per step; all buffers are caller-provided.
func gammaBetaRegenChunk(x runs, dy, xhs, mean, inv []float32, pg, pb []float64, chunk, lo, hi int) {
	c := len(mean)
	per := c * x.hw
	xh := xhs[chunk*per : (chunk+1)*per]
	for i := lo; i < hi; i++ {
		for p, c0 := 0, 0; p < x.count(); p++ {
			run, cp := x.run(p, i)
			normRows(run, xh[c0*x.hw:(c0+cp)*x.hw], nil, mean[c0:c0+cp], inv[c0:], nil, nil, x.hw, false)
			c0 += cp
		}
		gammaBetaPartials(dy[i*per:(i+1)*per], xh, pg[i*c:], pb[i*c:], c, x.hw)
	}
}

// gammaBetaPartials fills one sample's per-channel dγ = Σ dy·x̂ and dβ = Σ dy
// partials — the one sub-BN2' loop, shared by BackwardReduceFrom and the
// BackwardWindow epilogue. Each is one float64 chain over its row in
// ascending order; the lanes run eight channels' chains at once
// (gammaBetaRows).
//
// hot-path: runs once per sample per step; all buffers are caller-provided.
func gammaBetaPartials(dy, xhat []float32, pg, pb []float64, c, hw int) {
	ic := 0
	if rows := min(c, 8); useLanes && rows >= 4 {
		for ; ic < c; ic += 8 {
			ic = min(ic, c-rows)
			gammaBetaRows(dy[ic*hw:(ic+rows)*hw], xhat[ic*hw:(ic+rows)*hw], rows, hw, pg[ic:], pb[ic:])
		}
	}
	for ; ic < c; ic++ {
		xrow := xhat[ic*hw : (ic+1)*hw]
		var sg, sb float64
		for i, v := range dy[ic*hw : (ic+1)*hw] {
			g := float64(v)
			sg += float64(g * float64(xrow[i]))
			sb += g
		}
		pg[ic], pb[ic] = sg, sb
	}
}

// reduceGammaBeta combines the per-(sample, channel) partials into dγ and dβ.
// The gradients escape into the caller's gradient map and are plain
// allocations.
func reduceGammaBeta(pg, pb []float64, n, c int) (dgamma, dbeta *tensor.Tensor) {
	dgamma = tensor.New(c)
	dbeta = tensor.New(c)
	dg := make([]float64, c)
	db := make([]float64, c)
	// det-reduce: per-sample dγ/dβ partials combined in sample order — one
	// partial per channel per sample, the serial association exactly.
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			dg[ic] += pg[in*c+ic]
			db[ic] += pb[in*c+ic]
		}
	}
	for ic := 0; ic < c; ic++ {
		dgamma.Data[ic] = float32(dg[ic])
		dbeta.Data[ic] = float32(db[ic])
	}
	return dgamma, dbeta
}

// BackwardInput is BackwardInputFrom over a stored x̂: x̂ is the BN input
// under StoredXHat's statistics, with γ·invstd in γ's place, so
// coef = (γ·invstd)·1/M and v = (x̂ − 0)·1 keep the bits of γ·invstd/M and x̂.
func (b BatchNorm) BackwardInput(dy, xhat, gamma *tensor.Tensor, stats *BNStats, dgamma, dbeta *tensor.Tensor) (*tensor.Tensor, error) {
	if err := errors.Join(b.checkParam("gamma", gamma), b.checkStats(stats)); err != nil {
		return nil, err
	}
	inv := b.InvStdScratch(stats)
	gs := b.alloc.Get(b.Channels)
	for i, v := range gamma.Data {
		gs.Data[i] = v * inv[i]
	}
	b.alloc.PutFloats(inv)
	hat, st := b.StoredXHat(stats.M)
	dx, err := hat.BackwardInputFrom(dy, xhat, gs, &st, dgamma, dbeta)
	b.alloc.Put(gs)
	b.alloc.Put(st.Mean)
	b.alloc.Put(st.Var)
	return dx, err
}

// BackwardInputFrom is sub-BN1': given the reductions from
// BackwardReduceFrom it computes the element-wise input gradient
//
//	dx = γ·invstd/M · (M·dy − dβ − x̂·dγ)
//
// which carries no further cross-batch dependency and therefore fuses into
// the preceding CONV's backward sweep. It reads the BN's input x: per sample,
// and run by run over a Concat, each x̂ is regenerated as the forward's
// normalize computed it.
func (b BatchNorm) BackwardInputFrom(dy *tensor.Tensor, x Map, gamma *tensor.Tensor, stats *BNStats, dgamma, dbeta *tensor.Tensor) (*tensor.Tensor, error) {
	if err := b.checkInputGrad(dy, x, gamma, stats, dgamma, dbeta); err != nil {
		return nil, err
	}
	dx := b.alloc.Get(dy.Shape()...)
	b.inputGrad(dy, x, dx, gamma, stats, dgamma, dbeta)
	return dx, nil
}

// BackwardInputInPlace is BackwardInputFrom writing dx over dy: the sweep is
// element-wise and reads each dy before it stores the dx at its index, so the
// bits are BackwardInputFrom's.
func (b BatchNorm) BackwardInputInPlace(dy *tensor.Tensor, x Map, gamma *tensor.Tensor, stats *BNStats, dgamma, dbeta *tensor.Tensor) error {
	if err := b.checkInputGrad(dy, x, gamma, stats, dgamma, dbeta); err != nil {
		return err
	}
	b.inputGrad(dy, x, dy, gamma, stats, dgamma, dbeta)
	return nil
}

// checkInputGrad validates BackwardInputFrom's operands.
func (b BatchNorm) checkInputGrad(dy *tensor.Tensor, x Map, gamma *tensor.Tensor, stats *BNStats, dgamma, dbeta *tensor.Tensor) error {
	if err := b.check(dy); err != nil {
		return err
	}
	if !dy.Shape().Equal(x.Shape()) {
		return fmt.Errorf("batchnorm: dy %v vs x %v", dy.Shape(), x.Shape())
	}
	return errors.Join(b.checkParam("gamma", gamma), b.checkParam("dgamma", dgamma),
		b.checkParam("dbeta", dbeta), b.checkStats(stats))
}

// inputGrad is the sub-BN1' sweep into dx, which may be dy.
func (b BatchNorm) inputGrad(dy *tensor.Tensor, x Map, dx *tensor.Tensor, gamma *tensor.Tensor, stats *BNStats, dgamma, dbeta *tensor.Tensor) {
	n, _, h, w := dy.Dims4()
	// The normalization count: how many elements each channel's mean and
	// variance were computed over. For single-executor training that is this
	// very mini-batch (stats.M == n·h·w, the historical behavior); under
	// data-parallel sync-BN the statistics carry the global batch's count,
	// which the gradient of a globally normalized activation needs. Stats
	// without a count (M == 0, e.g. re-wrapped running statistics) fall back
	// to the local dimensions.
	m := float32(n * h * w)
	if stats.M > 0 {
		m = float32(stats.M)
	}
	r, mean, inv := runsOf(x), stats.Mean.Data, b.InvStdScratch(stats)
	if b.pool.Serial() {
		bnInputGradChunk(r, dy.Data, dx.Data, gamma.Data, inv, mean, dgamma.Data, dbeta.Data, m, 0, n)
	} else {
		b.pool.Run(n, func(lo, hi int) {
			bnInputGradChunk(r, dy.Data, dx.Data, gamma.Data, inv, mean, dgamma.Data, dbeta.Data, m, lo, hi)
		})
	}
	b.alloc.PutFloats(inv)
}

// bnInputGradChunk is BackwardInputFrom's chunk body: dx for the samples in
// [lo, hi), one run of xs at a time.
//
// hot-path: runs once per sample per step; all buffers are caller-provided.
func bnInputGradChunk(xs runs, dy, dx, gamma, inv, mean, dgamma, dbeta []float32, m float32, lo, hi int) {
	c := len(gamma)
	for i := lo; i < hi; i++ {
		for p, c0 := 0, 0; p < xs.count(); p++ {
			run, cp := xs.run(p, i)
			s := (i*c + c0) * xs.hw
			gradRows(dy[s:s+len(run)], run, dx[s:s+len(run)], gamma[c0:c0+cp], inv[c0:], mean[c0:], dgamma[c0:], dbeta[c0:], m, xs.hw)
			c0 += cp
		}
	}
}

// Backward is the baseline composition of the two backward sub-layers, the
// executor's OpBN backward: both regenerate x̂ from the saved input.
func (b BatchNorm) Backward(dy *tensor.Tensor, ctx *BNContext, gamma *tensor.Tensor) (dx, dgamma, dbeta *tensor.Tensor, err error) {
	dgamma, dbeta, err = b.BackwardReduceFrom(dy, ctx.X, ctx.Stats)
	if err != nil {
		return nil, nil, nil, err
	}
	dx, err = b.BackwardInputFrom(dy, ctx.X, gamma, ctx.Stats, dgamma, dbeta)
	if err != nil {
		return nil, nil, nil, err
	}
	return dx, dgamma, dbeta, nil
}

// UpdateRunning folds the batch statistics into the running (inference)
// statistics in place: r ← (1−momentum)·r + momentum·batch.
//
// The variance folded in is the unbiased estimate: the normalizer divides by
// the mini-batch sample count M, but the inference-time running variance
// follows the cuDNN/PyTorch convention of scaling each batch's contribution
// by M/(M−1) (Bessel's correction) so it estimates the population variance.
// Statistics constructed without a sample count (M < 2) are folded biased,
// as this layer did before the convention was fixed — that keeps hand-built
// BNStats values meaningful and degenerate single-sample batches finite.
func (b BatchNorm) UpdateRunning(runningMean, runningVar *tensor.Tensor, stats *BNStats) error {
	if err := b.checkParam("runningMean", runningMean); err != nil {
		return err
	}
	if err := b.checkParam("runningVar", runningVar); err != nil {
		return err
	}
	if err := b.checkStats(stats); err != nil {
		return err
	}
	mom := b.Momentum
	corr := float32(1)
	if stats.M > 1 {
		corr = float32(stats.M) / float32(stats.M-1)
	}
	for i := 0; i < b.Channels; i++ {
		runningMean.Data[i] = float32((1-mom)*runningMean.Data[i]) + float32(mom*stats.Mean.Data[i])
		runningVar.Data[i] = float32((1-mom)*runningVar.Data[i]) + float32(mom*corr*stats.Var.Data[i])
	}
	return nil
}
