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
//	Backward = BackwardReduce (sub-BN2': dγ, dβ)  ∘  BackwardInput (sub-BN1': dX)
//
// so that internal/core can fuse each sub-layer into its neighboring CONV.
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

// WithAlloc returns a copy of the layer that obtains its outputs, statistics
// tensors, and reduction scratch from the given arena (nil means plain heap
// allocation, bit-identical). The arena is only consulted from the
// dispatching goroutine, never inside pooled closures.
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

// BNContext is what the baseline backward pass needs: the normalized
// activations x̂ and the batch statistics.
type BNContext struct {
	XHat  *tensor.Tensor
	Stats *BNStats
}

func (b BatchNorm) check(x *tensor.Tensor) error {
	if x.Rank() != 4 {
		return fmt.Errorf("batchnorm: input must be rank 4, got %v", x.Shape())
	}
	if x.Dim(1) != b.Channels {
		return fmt.Errorf("batchnorm: input has %d channels, layer expects %d", x.Dim(1), b.Channels)
	}
	if x.Dim(0)*x.Dim(2)*x.Dim(3) == 0 {
		return fmt.Errorf("batchnorm: empty mini-batch %v", x.Shape())
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

// ComputeStats evaluates per-channel mean and variance with the baseline
// two-pass algorithm: one full sweep for the mean, a second for the variance.
// This is the strict-dependency form the paper's Figure 5 charges two memory
// sweeps (I2, I3) for.
func (b BatchNorm) ComputeStats(x *tensor.Tensor) (*BNStats, error) {
	if err := b.check(x); err != nil {
		return nil, err
	}
	n, c, h, w := x.Dims4()
	m := float64(n * h * w)
	mean := b.alloc.Get(c)
	variance := b.alloc.Get(c)

	// Pass 1: mean. One partial per (sample, channel), reduced in sample
	// order — the same association the serial sweep uses, so pooled
	// execution is bit-identical.
	pmean := b.alloc.Floats(n * c)
	b.pool.Run(n, func(lo, hi int) {
		for in := lo; in < hi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * w
				var s float64
				for i := 0; i < h*w; i++ {
					s += float64(x.Data[base+i])
				}
				pmean[in*c+ic] = float32(s / m)
			}
		}
	})
	// det-reduce: per-sample mean partials combined in sample order — the
	// association the serial sweep uses, so pooled execution is bit-identical.
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			mean.Data[ic] += pmean[in*c+ic]
		}
	}
	b.alloc.PutFloats(pmean)
	// Pass 2: variance around the mean, same partial scheme.
	pvar := b.alloc.Floats(n * c)
	b.pool.Run(n, func(lo, hi int) {
		for in := lo; in < hi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * w
				mu := float64(mean.Data[ic])
				var s float64
				for i := 0; i < h*w; i++ {
					d := float64(x.Data[base+i]) - mu
					s += float64(d * d)
				}
				pvar[in*c+ic] = float32(s / m)
			}
		}
	})
	// det-reduce: per-sample variance partials combined in sample order.
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			variance.Data[ic] += pvar[in*c+ic]
		}
	}
	b.alloc.PutFloats(pvar)
	return &BNStats{Mean: mean, Var: variance, M: n * h * w}, nil
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
	return b.Close(m)
}

// Moments sweeps x once for its per-(sample, channel) partials, drawn from
// the layer's arena and split over samples on the layer's pool.
func (b BatchNorm) Moments(x *tensor.Tensor) (Moments, error) {
	if err := b.check(x); err != nil {
		return Moments{}, err
	}
	n, c, h, w := x.Dims4()
	psum := b.alloc.Floats(n * c)
	psumsq := b.alloc.Floats(n * c)
	// The serial path calls the chunk body directly: a closure handed to
	// Run is heap-allocated (its parameter reaches a go statement), and on
	// the one-worker steady state that per-step garbage is the whole cost.
	if b.pool.Serial() {
		momentPartials(x.Data, psum, psumsq, c, h*w, 0, n)
	} else {
		b.pool.Run(n, func(lo, hi int) {
			momentPartials(x.Data, psum, psumsq, c, h*w, lo, hi)
		})
	}
	return Moments{Sum: psum, SumSq: psumsq, N: n, HW: h * w}, nil
}

// Close is the one MVF close: it folds m's partials in sample order into
// per-channel Σx and Σx², then takes μ = Σx/M and V(X) = E(X²) − E(X)² with
// the cancellation clamp, into statistics from the layer's arena (nil: the
// heap). The partials go back to that arena, on error too; partials that are
// not N·C long for the layer's C channels are rejected.
func (b BatchNorm) Close(m Moments) (*BNStats, error) {
	a := b.alloc
	defer a.PutFloats(m.Sum)
	defer a.PutFloats(m.SumSq)
	c := b.Channels
	if m.N < 1 || m.HW < 1 || len(m.Sum) != m.N*c || len(m.SumSq) != m.N*c {
		return nil, fmt.Errorf("batchnorm: %d/%d moment partials of %d samples × %d elements, want %d",
			len(m.Sum), len(m.SumSq), m.N, m.HW, m.N*c)
	}
	mean, variance := a.Get(c), a.Get(c)
	// det-reduce: the serial sweep adds one per-sample partial per channel
	// in exactly this order, so the pooled result is bit-identical.
	for in := 0; in < m.N; in++ {
		for ic := 0; ic < c; ic++ {
			mean.Data[ic] += m.Sum[in*c+ic]
			variance.Data[ic] += m.SumSq[in*c+ic]
		}
	}
	mf := float32(m.N * m.HW)
	for ic, s := range mean.Data {
		mu := s / mf
		v := variance.Data[ic]/mf - float32(mu*mu)
		if v < 0 { // guard fp cancellation for near-constant channels
			v = 0
		}
		mean.Data[ic], variance.Data[ic] = mu, v
	}
	return &BNStats{Mean: mean, Var: variance, M: m.N * m.HW}, nil
}

// momentPartials fills the per-(sample, channel) Σx and Σx² partials of the
// single-sweep MVF statistics for samples [lo, hi) of the (N,c,hw) map xd:
// the one float32 moment loop, shared by BatchNorm.Moments and the
// ForwardWindow epilogue. The 4-wide unroll
// keeps s and sq each a single accumulator chain adding elements in
// ascending order, so the sums are bit-identical to the rolled loop; it only
// breaks up the loop-carried add/mul dependency interleaving.
//
// hot-path: runs once per sample per step; all buffers are caller-provided.
func momentPartials(xd, psum, psumsq []float32, c, hw, lo, hi int) {
	for in := lo; in < hi; in++ {
		for ic := 0; ic < c; ic++ {
			base := (in*c + ic) * hw
			row := xd[base : base+hw]
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
			psum[in*c+ic] = s
			psumsq[in*c+ic] = sq
		}
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

// Normalize is sub-BN2: y = γ·(x−μ)/√(σ²+ε) + β. It also returns x̂, which
// the backward pass consumes (this is the O2' sweep of Figure 5 that survives
// fusion because backward needs it).
func (b BatchNorm) Normalize(x *tensor.Tensor, stats *BNStats, gamma, beta *tensor.Tensor) (y, xhat *tensor.Tensor, err error) {
	if err := b.check(x); err != nil {
		return nil, nil, err
	}
	if err := b.checkParam("gamma", gamma); err != nil {
		return nil, nil, err
	}
	if err := b.checkParam("beta", beta); err != nil {
		return nil, nil, err
	}
	if err := b.checkStats(stats); err != nil {
		return nil, nil, err
	}
	n, c, h, w := x.Dims4()
	inv := b.InvStdScratch(stats)
	y = b.alloc.Get(x.Shape()...)
	xhat = b.alloc.Get(x.Shape()...)
	// Element-wise with per-sample disjoint writes: pooled execution is
	// bit-identical to serial. The serial path calls the chunk body
	// directly so the steady state allocates no closure.
	if b.pool.Serial() {
		bnNormalizeChunk(x.Data, xhat.Data, y.Data, stats.Mean.Data, inv, gamma.Data, beta.Data, c, h*w, 0, n)
	} else {
		b.pool.Run(n, func(lo, hi int) {
			bnNormalizeChunk(x.Data, xhat.Data, y.Data, stats.Mean.Data, inv, gamma.Data, beta.Data, c, h*w, lo, hi)
		})
	}
	b.alloc.PutFloats(inv)
	return y, xhat, nil
}

// bnNormalizeChunk is Normalize's chunk body: write x̂ and y = γx̂+β for the
// samples in [lo, hi).
//
// hot-path: runs once per sample per step; all buffers are caller-provided.
func bnNormalizeChunk(xd, xh, yd, mean, inv, gamma, beta []float32, c, hw, lo, hi int) {
	for in := lo; in < hi; in++ {
		for ic := 0; ic < c; ic++ {
			base := (in*c + ic) * hw
			mu, is, g, be := mean[ic], inv[ic], gamma[ic], beta[ic]
			for i := 0; i < hw; i++ {
				v := (xd[base+i] - mu) * is
				xh[base+i] = v
				yd[base+i] = float32(g*v) + be
			}
		}
	}
}

// Forward is the baseline composition: two-pass statistics, then normalize.
func (b BatchNorm) Forward(x, gamma, beta *tensor.Tensor) (*tensor.Tensor, *BNContext, error) {
	stats, err := b.ComputeStats(x)
	if err != nil {
		return nil, nil, err
	}
	y, xhat, err := b.Normalize(x, stats, gamma, beta)
	if err != nil {
		return nil, nil, err
	}
	return y, &BNContext{XHat: xhat, Stats: stats}, nil
}

// BackwardReduce is sub-BN2': the mini-batch reductions dγ = Σ dy·x̂ and
// dβ = Σ dy. In the restructured graph this runs as an epilogue of the
// following CONV's backward, which already sweeps dy.
func (b BatchNorm) BackwardReduce(dy, xhat *tensor.Tensor) (dgamma, dbeta *tensor.Tensor, err error) {
	if err := b.check(dy); err != nil {
		return nil, nil, err
	}
	if !dy.Shape().Equal(xhat.Shape()) {
		return nil, nil, fmt.Errorf("batchnorm: dy %v vs xhat %v", dy.Shape(), xhat.Shape())
	}
	n, c, h, w := dy.Dims4()
	per := c * h * w
	pg := make([]float64, n*c)
	pb := make([]float64, n*c)
	b.pool.Run(n, func(lo, hi int) {
		for in := lo; in < hi; in++ {
			gammaBetaPartials(dy.Data[in*per:(in+1)*per], xhat.Data[in*per:(in+1)*per], pg[in*c:], pb[in*c:], c, h*w)
		}
	})
	dgamma, dbeta = reduceGammaBeta(pg, pb, n, c)
	return dgamma, dbeta, nil
}

// gammaBetaPartials fills one sample's per-channel dγ = Σ dy·x̂ and dβ = Σ dy
// partials — the one sub-BN2' loop, shared by BackwardReduce and the
// BackwardWindow epilogue.
//
// hot-path: runs once per sample per step; all buffers are caller-provided.
func gammaBetaPartials(dy, xhat []float32, pg, pb []float64, c, hw int) {
	for ic := 0; ic < c; ic++ {
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

// BackwardInput is sub-BN1': given the reductions from BackwardReduce it
// computes the element-wise input gradient
//
//	dx = γ·invstd/M · (M·dy − dβ − x̂·dγ)
//
// which carries no further cross-batch dependency and therefore fuses into
// the preceding CONV's backward sweep.
func (b BatchNorm) BackwardInput(dy, xhat, gamma *tensor.Tensor, stats *BNStats, dgamma, dbeta *tensor.Tensor) (*tensor.Tensor, error) {
	if err := b.check(dy); err != nil {
		return nil, err
	}
	if !dy.Shape().Equal(xhat.Shape()) {
		return nil, fmt.Errorf("batchnorm: dy %v vs xhat %v", dy.Shape(), xhat.Shape())
	}
	if err := errors.Join(b.checkParam("gamma", gamma), b.checkParam("dgamma", dgamma),
		b.checkParam("dbeta", dbeta), b.checkStats(stats)); err != nil {
		return nil, err
	}
	n, c, h, w := dy.Dims4()
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
	inv := b.InvStdScratch(stats)
	dx := b.alloc.Get(dy.Shape()...)
	b.pool.Run(n, func(lo, hi int) {
		for in := lo; in < hi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * w
				coef := gamma.Data[ic] * inv[ic] / m
				dg, db := dgamma.Data[ic], dbeta.Data[ic]
				for i := 0; i < h*w; i++ {
					dx.Data[base+i] = coef * (float32(m*dy.Data[base+i]) - db - float32(xhat.Data[base+i]*dg))
				}
			}
		}
	})
	b.alloc.PutFloats(inv)
	return dx, nil
}

// Backward is the baseline composition of the two backward sub-layers.
func (b BatchNorm) Backward(dy *tensor.Tensor, ctx *BNContext, gamma *tensor.Tensor) (dx, dgamma, dbeta *tensor.Tensor, err error) {
	dgamma, dbeta, err = b.BackwardReduce(dy, ctx.XHat)
	if err != nil {
		return nil, nil, nil, err
	}
	dx, err = b.BackwardInput(dy, ctx.XHat, gamma, ctx.Stats, dgamma, dbeta)
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
