package core

import (
	"fmt"

	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/obs"
	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// Executor runs a graph numerically — baseline or restructured — against
// real tensors. It owns the parameters (keyed by stable names that survive
// restructuring, so baseline and restructured executors can share weights
// for equivalence checks) and retains whatever each node's backward pass
// needs from the last forward pass.
//
// Execution behavior is configured with functional options at construction:
//
//	exec, err := core.NewExecutor(g,
//	        core.WithSeed(42),
//	        core.WithWorkers(runtime.GOMAXPROCS(0)))
//
// Each executor owns one worker pool (see internal/parallel) threaded
// through every layer dispatch, so two executors with different worker
// settings can run the same graph concurrently without interfering.
//
// The executor is batch-polymorphic: every layer reads N from the tensor it
// is handed, so Forward accepts any batch size whose per-sample dimensions
// match the graph's input, and the same executor may answer batches of
// different sizes on consecutive passes. Dimension 0 of the graph's shapes is
// what the cost models price, not something the executor requires.
type Executor struct {
	G      *graph.Graph
	Params map[string]*tensor.Tensor

	// Running holds every BN's running statistics ("<bn>.rmean",
	// "<bn>.rvar"). A training-mode Forward updates them from its mini-batch
	// statistics; an inference-mode one reads them and leaves them be.
	Running map[string]*tensor.Tensor

	// inference switches every BN (monolithic or restructured) to the
	// running statistics instead of mini-batch statistics — the deployment
	// mode in which BN is element-wise and the classic inference-time
	// CONV+BN folding (the related work the paper contrasts with) applies.
	// Backward is unavailable in inference mode. Fixed at construction by
	// WithInference or WithFoldedBN.
	inference bool

	seed   uint64
	pool   *parallel.Pool
	tracer *obs.Tracer // nil: tracing disabled, span paths are free
	foldBN bool        // WithFoldedBN: compile the fold after the next checkpoint load
	folded bool        // FoldBN already ran; the graph and parameters are rewritten

	alloc   *tensor.Arena // private activation arena (see arena.go)
	aplan   *arenaPlan    // compiled release and placement plan; invalidated by FoldBN
	metrics *obs.Registry // nil: no metrics publication (see WithMetrics)
	agauges *arenaGauges  // lazily resolved arena gauges
	live    []*graph.Node // cached G.Live() schedule; invalidated by FoldBN

	vals  map[int]*tensor.Tensor
	views map[int]*layers.Concat  // each concat's view of its inputs, rebuilt in place every pass
	stats map[int]*layers.BNStats // keyed by statistics-producer node ID

	// dropRNG is the dropout stream, one across passes; dropFrom holds, per
	// dropout node, a copy of it from before the node's forward draws, which
	// its backward replays.
	dropRNG  *tensor.RNG
	dropFrom map[int]tensor.RNG

	// Data-parallel BN hooks (see SetBNHooks). Both nil outside ddp sync-BN
	// replicas, and every hook-bearing branch below keeps the nil path's
	// arithmetic untouched — the hooks cost nothing when unset.
	statsHook    StatsHook
	bnReduceHook BNReduceHook
}

// StatsHook closes the MVF moments of one BN identity in training, in place
// of the executor's BatchNorm.Close. n is the producing node, attr the BN
// identity (n.BN for BN/SubBN1 nodes, n.StatsOut for conv-fused epilogues),
// and m the partials of the node's one statistics sweep, which return to the
// executor's arena when the hook returns. The returned statistics may be
// shared across executors; the executor treats them as read-only and its
// arena ignores them on release (foreign tensors fall through Arena.Put).
// ddp's sync-BN installs one that folds every replica's partials.
type StatsHook func(n *graph.Node, attr *graph.BNAttr, m layers.Moments) (*layers.BNStats, error)

// BNReduceHook intercepts the sub-BN2' reductions dγ = Σ dy·x̂ and dβ = Σ dy
// on their way into the statistics-side backward (sub-BN1'). It receives the
// locally reduced tensors and returns the tensors BackwardInputFrom should use —
// under ddp sync-BN, fresh globally summed copies. The hook must not mutate
// its inputs: they remain the executor's parameter gradients, which the
// data-parallel gradient all-reduce combines separately.
type BNReduceHook func(n *graph.Node, dgamma, dbeta *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error)

// SetBNHooks installs (or, with nils, removes) the data-parallel BN hooks.
// Safe between passes; must not be called while Forward or Backward runs.
func (e *Executor) SetBNHooks(sh StatsHook, rh BNReduceHook) {
	e.statsHook = sh
	e.bnReduceHook = rh
}

// Option configures an Executor at construction time.
type Option func(*Executor)

// WithSeed sets the parameter-initialization seed (He-normal weight draws).
// Two executors built with the same seed over graphs of the same model start
// from identical parameters. The default seed is 0.
func WithSeed(seed uint64) Option { return func(e *Executor) { e.seed = seed } }

// WithWorkers sets the executor's worker-pool size, clamped to
// [1, parallel.MaxWorkers]. One worker (the default) executes every layer
// serially; more workers split batches, reductions, and element ranges
// across goroutines with deterministic results (forward bit-identical,
// backward within float32 round-off — see internal/parallel).
func WithWorkers(n int) Option { return func(e *Executor) { e.pool = parallel.New(n) } }

// WithInference builds the executor in inference mode: every BN uses running
// statistics and Backward is unavailable.
func WithInference() Option { return func(e *Executor) { e.inference = true } }

// WithFoldedBN arms the inference-time BN-fold compile pass: after the next
// checkpoint Load the executor rewrites every foldable CONV→BN pair into a
// single CONV with folded weights and bias (see FoldBN), so the served model
// pays no separate normalization sweep for those BNs. Unfoldable BNs — one
// not fed by a single-consumer CONV — keep the element-wise normalize path
// on running statistics. WithFoldedBN implies WithInference: a folded graph
// has no training semantics and Backward is unavailable.
func WithFoldedBN() Option {
	return func(e *Executor) {
		e.foldBN = true
		e.inference = true
	}
}

// Workers returns the executor's worker-pool size.
func (e *Executor) Workers() int { return e.pool.Workers() }

// SetWorkers replaces the executor's worker pool, clamped like WithWorkers.
// Safe between passes; must not be called while Forward or Backward runs.
func (e *Executor) SetWorkers(n int) { e.pool = parallel.New(n).WithTracer(e.tracer) }

// bnStash carries the sub-BN2' results (dv, dγ, dβ, and the normalize's
// input x) from the normalize-side backward to the statistics-side backward,
// keyed by the statistics producer's node ID. Nothing stores x̂: sub-BN1'
// regenerates it from x as the forward computed it.
type bnStash struct {
	dv            *tensor.Tensor
	x             layers.Map
	dgamma, dbeta *tensor.Tensor
}

// NewExecutor validates the graph, applies the options, and allocates
// initialized parameters: He-normal convolution and FC weights, γ=1, β=0,
// zeroed running statistics. Without WithWorkers the executor runs with one
// worker (serial execution).
func NewExecutor(g *graph.Graph, opts ...Option) (*Executor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.Output == nil {
		return nil, fmt.Errorf("core: graph %q has no designated output node", g.Name)
	}
	if err := checkConcatReaders(g); err != nil {
		return nil, err
	}
	e := &Executor{
		G:       g,
		Params:  make(map[string]*tensor.Tensor),
		Running: make(map[string]*tensor.Tensor),
		pool:    parallel.New(1),
		alloc:   tensor.NewArena(),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.tracer != nil {
		e.pool = e.pool.WithTracer(e.tracer) // regardless of option order
	}
	rng := tensor.NewRNG(e.seed)
	for _, n := range g.Live() {
		if n.Conv != nil {
			w := tensor.New(n.Conv.WeightShape()...)
			rng.FillHe(w, n.Conv.InChannels*n.Conv.KernelH*n.Conv.KernelW)
			e.Params[n.Name+".w"] = w
			if n.FoldedBias {
				e.Params[n.Name+".b"] = tensor.New(n.Conv.OutChannels)
			}
		}
		if n.FC != nil {
			w := tensor.New(n.FC.WeightShape()...)
			rng.FillHe(w, n.FC.In)
			e.Params[n.Name+".w"] = w
			e.Params[n.Name+".b"] = tensor.New(n.FC.Out)
		}
		if n.BN != nil {
			gname := n.BN.ParamName + ".gamma"
			if _, ok := e.Params[gname]; !ok {
				gamma := tensor.New(n.BN.Channels)
				gamma.Fill(1)
				e.Params[gname] = gamma
				e.Params[n.BN.ParamName+".beta"] = tensor.New(n.BN.Channels)
				e.Running[n.BN.ParamName+".rmean"] = tensor.New(n.BN.Channels)
				rv := tensor.New(n.BN.Channels)
				rv.Fill(1)
				e.Running[n.BN.ParamName+".rvar"] = rv
			}
		}
	}
	return e, nil
}

// checkConcatReaders refuses the graphs whose concats would need dense
// storage: a concat is a view of its inputs (layers.Concat), which every
// layer reading feature maps walks run by run, but a flatten is a reshape of
// one tensor, dropout aliases its input at inference, and the graph output
// is handed to the caller as one tensor.
func checkConcatReaders(g *graph.Graph) error {
	if g.Output.Kind == graph.OpConcat {
		return fmt.Errorf("core: graph output %q is a concat, which is kept as its inputs' storage", g.Output.Name)
	}
	for _, n := range g.Live() {
		if n.Kind != graph.OpFlatten && n.Kind != graph.OpDropout {
			continue
		}
		if in := n.Inputs[0]; in.Kind == graph.OpConcat {
			return fmt.Errorf("core: %v %q reads concat %q, which is kept as its inputs' storage", n.Kind, n.Name, in.Name)
		}
	}
	return nil
}

// CopyParamsFrom overwrites this executor's parameters with o's values.
// Both graphs must have been built from the same model so the names align;
// restructuring never renames parameters, so baseline ↔ restructured copies
// always work.
func (e *Executor) CopyParamsFrom(o *Executor) error {
	for name, p := range e.Params {
		src, ok := o.Params[name]
		if !ok {
			return fmt.Errorf("core: source executor missing parameter %q", name)
		}
		if !p.Shape().Equal(src.Shape()) {
			return fmt.Errorf("core: parameter %q shape %v vs %v", name, p.Shape(), src.Shape())
		}
		copy(p.Data, src.Data)
	}
	return nil
}

// CopyRunningFrom overwrites this executor's running statistics with o's
// values — the running-state counterpart of CopyParamsFrom. Data-parallel
// training broadcasts the primary's running means/variances to every replica
// at the start of a step so their momentum updates start from the same state.
func (e *Executor) CopyRunningFrom(o *Executor) error {
	for name, r := range e.Running {
		src, ok := o.Running[name]
		if !ok {
			return fmt.Errorf("core: source executor missing running tensor %q", name)
		}
		if !r.Shape().Equal(src.Shape()) {
			return fmt.Errorf("core: running tensor %q shape %v vs %v", name, r.Shape(), src.Shape())
		}
		copy(r.Data, src.Data)
	}
	return nil
}

// Sibling builds a new training executor over e's own graph, configured like
// e: same seed and same worker-pool width.
// Data-parallel training uses it to stamp out replica executors: the graph is
// shared read-only (same node IDs, same schedule) and each replica simply
// feeds its shard, since an executor takes its batch size from its input. The
// shared seed means replicas start from the same parameter draws as the
// primary without an explicit broadcast. The sibling does not share the
// primary's tracer or metrics registry — per-replica spans from pool
// goroutines would violate the tracer's single-goroutine contract, so the ddp
// group records reduce spans itself from the dispatching side.
func (e *Executor) Sibling() (*Executor, error) {
	return NewExecutor(e.G, WithSeed(e.seed), WithWorkers(e.pool.Workers()))
}

// The *Of helpers attach the executor's pool to a copy of the node's layer
// descriptor; the graph's shared descriptors stay execution-state-free.
func (e *Executor) bnOf(a *graph.BNAttr) layers.BatchNorm {
	return layers.NewBatchNorm(a.Channels).WithPool(e.pool).WithAlloc(e.alloc)
}

func (e *Executor) convOf(n *graph.Node) layers.Conv2D {
	return n.Conv.WithPool(e.pool).WithAlloc(e.alloc)
}

func (e *Executor) gamma(n *graph.Node) *tensor.Tensor { return e.Params[n.BN.ParamName+".gamma"] }
func (e *Executor) beta(n *graph.Node) *tensor.Tensor  { return e.Params[n.BN.ParamName+".beta"] }

func (e *Executor) gammaOf(a *graph.BNAttr) *tensor.Tensor { return e.Params[a.ParamName+".gamma"] }

// convForward runs a conv-like node's forward as one window: the prologue
// its kind names (none, ReLU, or normalize+ReLU on the producer's
// statistics), the folded bias at inference, and — when the node carries a
// StatsOut epilogue in training — the sub-BN1 statistics of its own output,
// taken inside the same per-sample sweep.
func (e *Executor) convForward(n *graph.Node) error {
	win := layers.ConvWindow{Rectify: n.Kind != graph.OpConv}
	if n.FoldedBias {
		win.Bias = e.Params[n.Name+".b"]
	}
	if n.Kind == graph.OpBNReLUConv {
		st, err := e.statsFor(n)
		if err != nil {
			return err
		}
		win.BN, win.In, win.Gamma, win.Beta = e.bnOf(n.BN), st, e.gamma(n), e.beta(n)
	}
	win.Stats = n.StatsOut != nil && !e.inference
	y, _, m, err := e.convOf(n).ForwardWindow(e.src(n, 0), e.Params[n.Name+".w"], win)
	if err != nil {
		return err
	}
	e.vals[n.ID] = y
	if !win.Stats {
		return nil
	}
	st, err := e.closeStats(n, n.StatsOut, m)
	if err != nil {
		return err
	}
	e.stats[n.ID] = st
	return nil
}

// computeStats takes a BN node's statistics: the baseline two-pass sweep, or
// under MVF the one moment sweep and its close. In inference mode the stored
// running statistics are returned instead.
func (e *Executor) computeStats(n *graph.Node, x layers.Map) (*layers.BNStats, error) {
	if e.inference {
		return e.runningStats(n.BN)
	}
	bn := e.bnOf(n.BN)
	if !n.BN.MVF {
		e.alloc.Beside(true) // the statistics outlive this step, as in closeStats
		defer e.alloc.Beside(false)
		return bn.ComputeStats(x)
	}
	m, err := bn.Moments(x)
	if err != nil {
		return nil, err
	}
	return e.closeStats(n, n.BN, m)
}

// closeStats closes the moments a statistics producer took: through the
// StatsHook when one is installed, else with the BN's own Close. The
// partials go back to the arena either way. The statistics live from this
// forward step to the backward that reads them, past the slots of every
// step in between, so the arena keeps them beside its slab.
func (e *Executor) closeStats(n *graph.Node, attr *graph.BNAttr, m layers.Moments) (*layers.BNStats, error) {
	e.alloc.Beside(true)
	defer e.alloc.Beside(false)
	if e.statsHook == nil {
		return e.bnOf(attr).Close(m)
	}
	st, err := e.statsHook(n, attr, m)
	e.alloc.PutFloats(m.SumSq)
	e.alloc.PutFloats(m.Sum)
	return st, err
}

// runningStats returns the inference-time statistics for a BN identity.
func (e *Executor) runningStats(attr *graph.BNAttr) (*layers.BNStats, error) {
	rm := e.Running[attr.ParamName+".rmean"]
	rv := e.Running[attr.ParamName+".rvar"]
	if rm == nil || rv == nil {
		return nil, fmt.Errorf("core: no running statistics for %q", attr.ParamName)
	}
	return &layers.BNStats{Mean: rm, Var: rv}, nil
}

// statsFor resolves the statistics a normalize-side node should use: the
// producer's mini-batch statistics in training, the running statistics in
// inference.
func (e *Executor) statsFor(n *graph.Node) (*layers.BNStats, error) {
	if e.inference {
		return e.runningStats(n.BN)
	}
	st := e.stats[n.StatsFrom.ID]
	if st == nil {
		return nil, fmt.Errorf("core: node %q has no statistics from %q", n.Name, n.StatsFrom.Name)
	}
	return st, nil
}

// withBatch returns the nominal shape with its batch dimension replaced by n.
func withBatch(nominal tensor.Shape, n int) tensor.Shape {
	s := nominal.Clone()
	s[0] = n
	return s
}

// Forward executes one forward pass and returns the output node's value.
// The input must match the graph's input shape in every dimension but the
// batch, which is taken from x.
func (e *Executor) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	for _, n := range e.liveNodes() {
		// Dimension 0 is free (but not empty); the rest must match.
		if s := x.Shape(); n.Kind == graph.OpInput &&
			(len(s) != len(n.OutShape) || len(s) == 0 || s[0] < 1 || !s[1:].Equal(n.OutShape[1:])) {
			return nil, fmt.Errorf("core: input shape %v, graph expects %v at any batch size", x.Shape(), n.OutShape)
		}
	}
	if e.vals == nil {
		e.vals = make(map[int]*tensor.Tensor)
		e.views = make(map[int]*layers.Concat)
		e.stats = make(map[int]*layers.BNStats)
		e.dropFrom = make(map[int]tensor.RNG)
	} else {
		// Recycle whatever the previous pass left checked out and reuse the
		// map storage instead of reallocating it.
		e.resetPass()
	}
	// Both modes release every buffer at the end of its interval and carve
	// it at its planned offset; the modes differ only in their intervals.
	p, err := e.arenaPlanFor()
	if err != nil {
		return nil, err
	}
	batch := x.Dim(0)
	e.alloc.PlacePass(p.slab*batch, p.seg*batch)
	if e.dropRNG == nil {
		e.dropRNG = tensor.NewRNG(0x5eed)
	}
	passStart := e.tracer.Begin()
	defer e.tracer.End("forward", obs.CatPass, "fwd", obs.TIDPass, passStart)

	for step, n := range e.liveNodes() {
		e.alloc.Expect(p.born[step], batch)
		// Input binding is bookkeeping, not compute: handle it before the
		// node span opens so every Begin below is paired with an end on
		// every path.
		if n.Kind == graph.OpInput {
			e.vals[n.ID] = x
			e.releaseForwardStep(step)
			continue
		}
		for _, in := range n.Inputs {
			if err := e.released(n, in, step); err != nil {
				return nil, err
			}
		}
		nodeStart := e.tracer.Begin()
		switch n.Kind {
		case graph.OpConv, graph.OpReLUConv, graph.OpBNReLUConv:
			err = e.convForward(n)

		case graph.OpBN:
			var st *layers.BNStats
			st, err = e.computeStats(n, e.src(n, 0))
			if err != nil {
				break
			}
			e.stats[n.ID] = st
			e.vals[n.ID], err = e.bnOf(n.BN).Normalize(e.src(n, 0), st, e.gamma(n), e.beta(n))

		case graph.OpSubBN1:
			if !e.inference { // inference needs no mini-batch statistics
				e.stats[n.ID], err = e.computeStats(n, e.src(n, 0))
			}
			// SubBN1 produces statistics only; it has no data output.

		case graph.OpSubBN2:
			var st *layers.BNStats
			st, err = e.statsFor(n)
			if err != nil {
				break
			}
			e.vals[n.ID], err = e.bnOf(n.BN).Normalize(e.src(n, 0), st, e.gamma(n), e.beta(n))

		case graph.OpReLU:
			e.vals[n.ID] = layers.ReLUForwardAlloc(e.pool, e.alloc, e.src(n, 0))

		case graph.OpPool:
			e.vals[n.ID], err = n.Pool.WithPool(e.pool).WithAlloc(e.alloc).Forward(e.src(n, 0))

		case graph.OpGlobalPool:
			e.vals[n.ID], err = layers.GlobalAvgPoolForwardAlloc(e.pool, e.alloc, e.src(n, 0))

		case graph.OpFC:
			e.vals[n.ID], err = n.FC.WithPool(e.pool).WithAlloc(e.alloc).Forward(e.in(n, 0), e.Params[n.Name+".w"], e.Params[n.Name+".b"])

		case graph.OpConcat:
			// A view, not a copy: the inputs' storage stays live through
			// the concat's readers (memplan's view rule).
			v := e.views[n.ID]
			if v == nil {
				v = new(layers.Concat)
				e.views[n.ID] = v
			}
			v.Reset()
			for i := 0; i < len(n.Inputs) && err == nil; i++ {
				err = v.Append(e.src(n, i))
			}

		case graph.OpEWS:
			e.vals[n.ID], err = layers.EWSForwardAlloc(e.alloc, e.src(n, 0), e.src(n, 1))

		case graph.OpFlatten:
			in := e.in(n, 0)
			e.vals[n.ID], err = in.Reshape(in.Dim(0), n.OutShape[1])

		case graph.OpDropout:
			if e.inference {
				e.vals[n.ID] = e.in(n, 0) // inverted dropout: inference is identity
				break
			}
			var from tensor.RNG
			e.vals[n.ID], from, err = n.Dropout.ForwardAlloc(e.alloc, e.in(n, 0), e.dropRNG)
			e.dropFrom[n.ID] = from

		default:
			err = fmt.Errorf("core: executor cannot run kind %v", n.Kind)
		}
		e.endNodeSpan(n, "fwd", nodeStart)
		if err != nil {
			return nil, fmt.Errorf("core: forward of node %q: %w", n.Name, err)
		}
		e.releaseForwardStep(step)
	}

	if !e.inference {
		if err := e.updateRunning(); err != nil {
			return nil, err
		}
	}
	out := e.vals[e.G.Output.ID]
	if out == nil {
		return nil, fmt.Errorf("core: output node %q produced no value", e.G.Output.Name)
	}
	// The caller owns the output from here on; detach it so the arena never
	// recycles storage the caller may still read.
	e.alloc.Detach(out)
	e.publishArenaMetrics()
	return out, nil
}

// liveNodes returns the execution schedule, cached so steady-state passes do
// not rebuild the topological-order slice. FoldBN rewrites the graph and
// drops the cache alongside the arena release table.
func (e *Executor) liveNodes() []*graph.Node {
	if e.live == nil {
		e.live = e.G.Live()
	}
	return e.live
}

func (e *Executor) updateRunning() error {
	for _, n := range e.liveNodes() {
		st := e.stats[n.ID]
		if st == nil {
			continue
		}
		attr := n.StatsOut
		if attr == nil {
			attr = n.BN
		}
		if attr == nil {
			continue
		}
		bn := e.bnOf(attr)
		rm := e.Running[attr.ParamName+".rmean"]
		rv := e.Running[attr.ParamName+".rvar"]
		if err := bn.UpdateRunning(rm, rv, st); err != nil {
			return fmt.Errorf("core: running stats of %q: %w", attr.ParamName, err)
		}
	}
	return nil
}

// in fetches input i's forward value, which must exist because the graph is
// topologically ordered.
func (e *Executor) in(n *graph.Node, i int) *tensor.Tensor {
	return e.vals[n.Inputs[i].ID]
}

// src is in for the layers that read feature maps: a concat input is its view.
func (e *Executor) src(n *graph.Node, i int) layers.Map {
	if in := n.Inputs[i]; in.Kind == graph.OpConcat {
		return e.views[in.ID]
	}
	return e.in(n, i)
}

// released reports a read of v by n at schedule step step after v's storage
// went back to the arena: the plan ended v's interval before this reader, and
// the read would otherwise dereference a missing value. A concat owns no
// storage, so its parts are checked instead.
func (e *Executor) released(n, v *graph.Node, step int) error {
	if v.Kind == graph.OpConcat {
		for _, p := range v.Inputs {
			if err := e.released(n, p, step); err != nil {
				return err
			}
		}
		return nil
	}
	if e.vals[v.ID] != nil {
		return nil
	}
	return fmt.Errorf("core: node %q reads value %q at schedule step %d after its release", n.Name, v.Name, step)
}

// backwardReads returns the forward value n's backward reads, or nil: a
// ReLU masks with its own output; a conv-like node, BN, SubBN2, FC and max
// pool regenerate what they need from their input.
func backwardReads(n *graph.Node) *graph.Node {
	switch n.Kind {
	case graph.OpReLU:
		return n
	case graph.OpConv, graph.OpReLUConv, graph.OpBNReLUConv, graph.OpBN, graph.OpSubBN2, graph.OpFC:
		return n.Inputs[0]
	case graph.OpPool:
		if n.Pool.Max {
			return n.Inputs[0]
		}
	}
	return nil
}

// accumGrad folds a fresh gradient contribution into the per-node map.
// The first contribution takes ownership of the tensor (every producer
// returns a fresh tensor, so no aliasing); later contributions are folded
// in place and their now-dead buffer goes back to the arena, as does a
// graph input's gradient, which nothing reads.
func (e *Executor) accumGrad(gmap map[int]*tensor.Tensor, n *graph.Node, g *tensor.Tensor) error {
	if n.Kind == graph.OpInput {
		e.alloc.Put(g)
		return nil
	}
	if cur := gmap[n.ID]; cur != nil {
		err := cur.AddInPlace(g)
		e.alloc.Put(g)
		return err
	}
	gmap[n.ID] = g
	return nil
}

// Backward propagates dOut (gradient w.r.t. the output node's value)
// through the graph and returns parameter gradients keyed like Params.
// Forward must have been called first.
func (e *Executor) Backward(dOut *tensor.Tensor) (map[string]*tensor.Tensor, error) {
	if e.inference {
		return nil, fmt.Errorf("core: Backward unavailable in inference mode")
	}
	out := e.vals[e.G.Output.ID] // the last Forward's output; carries its batch
	if out == nil {
		return nil, fmt.Errorf("core: Backward before Forward")
	}
	if !dOut.Shape().Equal(out.Shape()) {
		return nil, fmt.Errorf("core: dOut shape %v, output is %v", dOut.Shape(), out.Shape())
	}
	grads := make(map[string]*tensor.Tensor)
	gmap := map[int]*tensor.Tensor{e.G.Output.ID: dOut}
	stash := make(map[int]*bnStash)
	passStart := e.tracer.Begin()
	defer e.tracer.End("backward", obs.CatPass, "bwd", obs.TIDPass, passStart)

	live := e.liveNodes()
	for i := len(live) - 1; i >= 0; i-- {
		n := live[i]
		if n.Kind == graph.OpInput {
			continue
		}
		step := 2*len(live) - 1 - i
		if v := backwardReads(n); v != nil {
			if err := e.released(n, v, step); err != nil {
				return nil, err
			}
		}
		e.alloc.Expect(e.aplan.born[step], out.Dim(0))
		nodeStart := e.tracer.Begin()
		err := e.backwardNode(n, gmap, grads, stash)
		e.endNodeSpan(n, "bwd", nodeStart)
		if err != nil {
			return nil, fmt.Errorf("core: backward of node %q: %w", n.Name, err)
		}
		e.releaseBackwardStep(step, gmap)
	}
	e.publishArenaMetrics()
	return grads, nil
}

func (e *Executor) backwardNode(n *graph.Node, gmap map[int]*tensor.Tensor,
	grads map[string]*tensor.Tensor, stash map[int]*bnStash) error {

	dy := gmap[n.ID]
	// Conv-like nodes resolve their own upstream gradient (a statistics
	// producer's comes through the stash); sub-BN1 has only the stash.
	if dy == nil && n.Kind != graph.OpSubBN1 && !n.Kind.IsConvLike() {
		return fmt.Errorf("no gradient reached node (kind %v)", n.Kind)
	}

	switch n.Kind {
	case graph.OpConv, graph.OpReLUConv, graph.OpBNReLUConv:
		return e.convBackward(n, gmap, grads, stash)

	case graph.OpBN:
		// BatchNorm.Backward is BackwardReduceFrom ∘ BackwardInputFrom, both
		// regenerating x̂ from the input x; spell the composition out so the
		// reduce hook can interpose globally summed dγ/dβ between the two
		// (same arithmetic, same order, when unset).
		bn, x := e.bnOf(n.BN), e.src(n, 0)
		dgamma, dbeta, err := bn.BackwardReduceFrom(dy, x, e.stats[n.ID])
		if err != nil {
			return err
		}
		ing, inb := dgamma, dbeta
		if e.bnReduceHook != nil {
			if ing, inb, err = e.bnReduceHook(n, dgamma, dbeta); err != nil {
				return err
			}
		}
		dx, err := bn.BackwardInputFrom(dy, x, e.gamma(n), e.stats[n.ID], ing, inb)
		if err != nil {
			return err
		}
		e.releaseStats(n.ID)
		grads[n.BN.ParamName+".gamma"] = dgamma
		grads[n.BN.ParamName+".beta"] = dbeta
		return e.accumGrad(gmap, n.Inputs[0], dx)

	case graph.OpSubBN1:
		// du is the input's gradient, planned to outlive this step, so it
		// is carved fresh and not written over dv.
		du, err := e.bnInputGrad(n.ID, n.BN, stash, false)
		if err != nil {
			return err
		}
		return e.accumGrad(gmap, n.Inputs[0], du)

	case graph.OpSubBN2:
		st, err := e.statsFor(n)
		if err != nil {
			return err
		}
		x := e.src(n, 0)
		dgamma, dbeta, err := e.bnOf(n.BN).BackwardReduceFrom(dy, x, st)
		if err != nil {
			return err
		}
		delete(gmap, n.ID) // the stash owns dy from here on
		return e.stashReduced(n, &bnStash{dv: dy, x: x}, dgamma, dbeta, grads, stash)

	case graph.OpReLU:
		// The mask reads the ReLU's own output: relu(x) > 0 exactly where
		// x > 0, NaN and −0 included, so the input need not stay live.
		dx, err := layers.ReLUBackwardAlloc(e.pool, e.alloc, dy, e.vals[n.ID])
		if err != nil {
			return err
		}
		return e.accumGrad(gmap, n.Inputs[0], dx)

	case graph.OpPool:
		// A max pool scans its input again for each window's argmax, so
		// memplan keeps that input live to here; an average pool reads only
		// its shape.
		var x layers.Map
		if n.Pool.Max {
			x = e.src(n, 0)
		}
		dx, err := n.Pool.WithPool(e.pool).WithAlloc(e.alloc).Backward(dy, withBatch(n.Inputs[0].OutShape, dy.Dim(0)), x)
		if err != nil {
			return err
		}
		return e.accumGrad(gmap, n.Inputs[0], dx)

	case graph.OpGlobalPool:
		dx, err := layers.GlobalAvgPoolBackwardAlloc(e.pool, e.alloc, dy, withBatch(n.Inputs[0].OutShape, dy.Dim(0)))
		if err != nil {
			return err
		}
		return e.accumGrad(gmap, n.Inputs[0], dx)

	case graph.OpFC:
		dx, dw, db, err := n.FC.WithPool(e.pool).WithAlloc(e.alloc).Backward(dy, e.in(n, 0), e.Params[n.Name+".w"])
		if err != nil {
			return err
		}
		grads[n.Name+".w"] = dw
		grads[n.Name+".b"] = db
		return e.accumGrad(gmap, n.Inputs[0], dx)

	case graph.OpConcat:
		// Each input's channels of dy go straight into its gradient slot:
		// stored on its first contribution, added after that — accumGrad's
		// order and arithmetic on a copied part, without the copy.
		c0 := 0
		for _, in := range n.Inputs {
			if in.Kind == graph.OpInput {
				c0 += in.OutShape[1] // nothing reads a graph input's gradient
				continue
			}
			g := gmap[in.ID]
			add := g != nil
			if !add {
				g = e.alloc.Get(withBatch(in.OutShape, dy.Dim(0))...)
				gmap[in.ID] = g
			}
			if err := layers.ScatterChannels(g, dy, c0, add); err != nil {
				return err
			}
			c0 += in.OutShape[1]
		}
		return nil

	case graph.OpEWS:
		da, db := layers.EWSBackwardAlloc(e.alloc, dy)
		if err := e.accumGrad(gmap, n.Inputs[0], da); err != nil {
			return err
		}
		return e.accumGrad(gmap, n.Inputs[1], db)

	case graph.OpFlatten:
		dx, err := dy.Reshape(withBatch(n.Inputs[0].OutShape, dy.Dim(0))...)
		if err != nil {
			return err
		}
		return e.accumGrad(gmap, n.Inputs[0], e.alloc.Clone(dx))

	case graph.OpDropout:
		return e.accumGrad(gmap, n.Inputs[0], n.Dropout.BackwardAlloc(e.alloc, dy, e.dropFrom[n.ID]))

	default:
		return fmt.Errorf("executor cannot differentiate kind %v", n.Kind)
	}
}

// convBackward is convForward's mirror: one backward window for a conv-like
// node, regenerating the ifmap its kind names — x, ReLU(x), or ReLU(γ·x̂+β)
// with x̂ regenerated from x and the producer's statistics — and masking with
// it. Under BN the window's dγ/dβ are sub-BN2', stashed for the statistics
// producer's sub-BN1'.
//
// A node with a StatsOut epilogue receives its upstream gradient through the
// sub-BN2' stash instead of the gradient map: the following BN's element-wise
// input gradient (sub-BN1') is written over the stashed dv and consumed by
// this window right away, and the buffer is recycled as soon as the window
// returns.
func (e *Executor) convBackward(n *graph.Node, gmap map[int]*tensor.Tensor,
	grads map[string]*tensor.Tensor, stash map[int]*bnStash) error {

	if n.FoldedBias {
		return fmt.Errorf("folded CONV+BN is inference-only and has no backward pass")
	}
	dy := gmap[n.ID]
	synth := n.StatsOut != nil
	if synth {
		// The stash is a statistics producer's only upstream path:
		// graph.Validate refuses any other consumer of its output.
		var err error
		if dy, err = e.bnInputGrad(n.ID, n.StatsOut, stash, true); err != nil {
			return err
		}
	} else if dy == nil {
		return fmt.Errorf("no gradient reached node (kind %v)", n.Kind)
	}
	win := layers.ConvWindow{Rectify: n.Kind != graph.OpConv}
	src := e.src(n, 0)
	if n.Kind == graph.OpBNReLUConv {
		st, err := e.statsFor(n)
		if err != nil {
			return err
		}
		win.BN, win.In, win.Gamma, win.Beta = e.bnOf(n.BN), st, e.gamma(n), e.beta(n)
	}
	c, w := e.convOf(n), e.Params[n.Name+".w"]
	var dx, dw, dgamma, dbeta *tensor.Tensor
	var err error
	if n.Inputs[0].Kind == graph.OpInput && win.Gamma == nil {
		// Nothing reads a graph input's gradient: dW alone.
		dw, err = c.BackwardWeights(dy, src, w, win)
	} else {
		dx, dw, dgamma, dbeta, err = c.BackwardWindow(dy, src, w, win)
	}
	if err != nil {
		return err
	}
	if synth {
		e.alloc.Put(dy)
	}
	grads[n.Name+".w"] = dw
	switch {
	case win.Gamma != nil:
		return e.stashReduced(n, &bnStash{dv: dx, x: src}, dgamma, dbeta, grads, stash)
	case dx == nil:
		return nil
	}
	return e.accumGrad(gmap, n.Inputs[0], dx)
}

// stashReduced is sub-BN2' handing over: it records n's dγ/dβ as its BN's
// gradients and completes st — dv and x already set — with them for the
// sub-BN1' of n's statistics producer. Under ddp sync-BN the reduce hook
// swaps globally summed dγ/dβ into the stash while grads keeps the local sums
// for the gradient all-reduce.
func (e *Executor) stashReduced(n *graph.Node, st *bnStash, dgamma, dbeta *tensor.Tensor,
	grads map[string]*tensor.Tensor, stash map[int]*bnStash) error {

	grads[n.BN.ParamName+".gamma"] = dgamma
	grads[n.BN.ParamName+".beta"] = dbeta
	st.dgamma, st.dbeta = dgamma, dbeta
	if e.bnReduceHook != nil {
		var err error
		if st.dgamma, st.dbeta, err = e.bnReduceHook(n, dgamma, dbeta); err != nil {
			return err
		}
	}
	stash[n.StatsFrom.ID] = st
	return nil
}

// bnInputGrad is sub-BN1': the input gradient of the BN attr describes, from
// the stash its normalize side left under statistics producer id, whose
// statistics it then releases. It uses the stash up: with inPlace the input
// gradient is written over dv (the sweep is element-wise) and dv becomes the
// caller's; otherwise it is carved fresh and dv goes back to the arena.
func (e *Executor) bnInputGrad(id int, attr *graph.BNAttr, stash map[int]*bnStash, inPlace bool) (*tensor.Tensor, error) {
	st := stash[id]
	if st == nil {
		return nil, fmt.Errorf("no sub-BN2' stash for statistics producer")
	}
	delete(stash, id)
	bn := e.bnOf(attr)
	du, err := st.dv, error(nil)
	if inPlace {
		err = bn.BackwardInputInPlace(st.dv, st.x, e.gammaOf(attr), e.stats[id], st.dgamma, st.dbeta)
	} else {
		du, err = bn.BackwardInputFrom(st.dv, st.x, e.gammaOf(attr), e.stats[id], st.dgamma, st.dbeta)
		e.alloc.Put(st.dv)
	}
	if err != nil {
		e.alloc.Put(du)
		return nil, err
	}
	e.releaseStats(id)
	return du, nil
}
