// Package ddp implements single-process data-parallel training: a Group of
// replica executors splits each mini-batch into equal shards, runs forward
// and backward per replica on the shared worker-pool runtime, and combines
// gradients through internal/det's fixed-order binary-tree all-reduce. The
// package is the third sanctioned concurrency domain (after internal/parallel
// and internal/serve): its replica barrier is built from channels, and the
// determinism analyzers allowlist it by import path.
//
// Every replica executes the SAME node schedule as the primary would: the
// replicas run the primary's own graph, shared read-only (an executor takes
// its batch size from its input, so a shard is just a smaller input), so node
// IDs, fusion decisions, and parameter names line up exactly, and the
// reduction order over replicas is a pure function of the replica index
// (det.TreePlan), never of goroutine completion order.
//
// Batch-normalization statistics follow one of two strategies:
//
//   - BNLocal — each replica normalizes with its own shard statistics
//     (ghost-batch BN). No extra communication; running statistics are the
//     replica average.
//   - BNSync — before any replica's sub-BN2 normalizes, the replicas
//     exchange per-sample Σx/Σx² partials and close them over the global
//     batch. The paper's MVF restructuring (V(X)=E(X²)−E(X)²) is what makes
//     this a single exchange: both moments come out of the one statistics
//     sweep, so sync-BN costs one all-reduce instead of two. The partials are
//     the ones the replica's executor already took — in a conv window's
//     epilogue or a standalone moment sweep — handed to the core.StatsHook
//     unclosed, so sync-BN reads no activation a second time. Folding the
//     per-sample partials in replica-major, sample-minor order reproduces
//     the serial full-batch association bit for bit, so synchronized forward
//     statistics (and logits) are bit-identical to one executor running the
//     whole batch.
package ddp

import (
	"fmt"
	"strings"

	"bnff/internal/core"
	"bnff/internal/det"
	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/obs"
	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// BNStrategy selects how replicas compute batch-normalization statistics.
type BNStrategy int

const (
	// BNLocal normalizes each shard with its own statistics (ghost-batch BN).
	BNLocal BNStrategy = iota
	// BNSync exchanges MVF moments so every replica normalizes with
	// whole-batch statistics.
	BNSync
)

var bnStrategyNames = [...]string{"local", "sync"}

func (s BNStrategy) String() string {
	if s < 0 || int(s) >= len(bnStrategyNames) {
		return fmt.Sprintf("BNStrategy(%d)", int(s))
	}
	return bnStrategyNames[s]
}

// ParseBNStrategy maps a user-facing strategy name onto its BNStrategy.
func ParseBNStrategy(s string) (BNStrategy, error) {
	switch strings.ToLower(s) {
	case "local":
		return BNLocal, nil
	case "sync":
		return BNSync, nil
	}
	return BNLocal, fmt.Errorf("ddp: unknown BN strategy %q (want local or sync)", s)
}

// Group drives data-parallel training over one primary executor. The primary
// owns the canonical parameters, running statistics, tracer, and metrics; the
// replicas are sibling executors over the primary's graph that exist only to
// produce per-shard gradients. The Group is not safe for concurrent
// use; one ForwardBackward runs at a time, like Executor passes.
type Group struct {
	primary  *core.Executor
	replicas []*core.Executor
	rpool    *parallel.Pool
	strategy BNStrategy
	ex       *exchanger

	// Per-step slots indexed by replica, filled under rpool.Run and read
	// only after it returns.
	ins         []*tensor.Tensor
	labelShards [][]int
	losses      []float64
	accs        []float64
	grads       []map[string]*tensor.Tensor
	errs        []error

	scratch []*tensor.Tensor // gradient gather slots for the tree reduce

	reduceBytes  *obs.Counter
	replicaGauge *obs.Gauge
	totalBytes   int64 // lifetime all-reduce traffic, kept even without metrics
}

// NewGroup builds a data-parallel group of `replicas` (at least 2) executors
// around primary; each step's batch must divide evenly into the replicas.
// One replica is the plain trainer, which needs no group.
//
// BNSync requires every BN in the graph to carry the MVF flag (the rcf+mvf,
// bnff, and bnff+icf restructurings): the single-sweep Σx/Σx² moments are
// what the replicas exchange.
func NewGroup(primary *core.Executor, replicas int, strategy BNStrategy) (*Group, error) {
	if replicas < 2 {
		return nil, fmt.Errorf("ddp: %d replicas (a group needs at least 2)", replicas)
	}
	if strategy != BNLocal && strategy != BNSync {
		return nil, fmt.Errorf("ddp: unknown BN strategy %v", strategy)
	}
	if strategy == BNSync {
		if err := requireMVF(primary.G); err != nil {
			return nil, err
		}
	}
	g := &Group{
		primary:     primary,
		strategy:    strategy,
		ex:          newExchanger(replicas),
		replicas:    make([]*core.Executor, replicas),
		rpool:       parallel.New(replicas),
		ins:         make([]*tensor.Tensor, replicas),
		labelShards: make([][]int, replicas),
		losses:      make([]float64, replicas),
		accs:        make([]float64, replicas),
		grads:       make([]map[string]*tensor.Tensor, replicas),
		errs:        make([]error, replicas),
		scratch:     make([]*tensor.Tensor, replicas),
	}
	for r := 0; r < replicas; r++ {
		rep, err := primary.Sibling()
		if err != nil {
			return nil, fmt.Errorf("ddp: replica %d: %w", r, err)
		}
		if strategy == BNSync {
			rep.SetBNHooks(g.statsHook(r), g.reduceHook(r))
		}
		g.replicas[r] = rep
	}
	if m := primary.Metrics(); m != nil {
		g.reduceBytes = m.Counter("ddp_reduce_bytes")
		g.replicaGauge = m.Gauge("ddp_replicas")
		g.replicaGauge.Set(int64(replicas))
	}
	return g, nil
}

// Replicas returns the group's replica count.
func (g *Group) Replicas() int { return len(g.replicas) }

// ReduceBytes reports the lifetime all-reduce traffic (gradients plus any
// sync-BN statistic exchanges) in bytes — deterministic for a given graph,
// strategy, and step count, so benchmark reports may record it as a
// non-timing metric.
func (g *Group) ReduceBytes() int64 { return g.totalBytes }

// requireMVF checks that every BN attribute in the graph carries the MVF
// flag, wherever it lives after restructuring (monolithic BN, sub-BN nodes,
// or a fused CONV's statistics epilogue).
func requireMVF(gr *graph.Graph) error {
	for _, n := range gr.Live() {
		if n.BN != nil && !n.BN.MVF {
			return fmt.Errorf("ddp: sync-BN requires MVF statistics, but node %q does not use them (restructure with rcf+mvf, bnff, or bnff+icf)", n.Name)
		}
		if n.StatsOut != nil && !n.StatsOut.MVF {
			return fmt.Errorf("ddp: sync-BN requires MVF statistics, but node %q's epilogue does not use them", n.Name)
		}
	}
	return nil
}

// ForwardBackward runs one data-parallel forward/backward over the batch:
// broadcast parameters, shard the batch, run every replica, tree-reduce the
// gradients, and adopt the running statistics. It returns the batch loss and
// accuracy (means over the equal shards) and the averaged gradient map,
// ready for an optimizer step against the primary's parameters.
func (g *Group) ForwardBackward(x *tensor.Tensor, labels []int) (loss, acc float64, grads map[string]*tensor.Tensor, err error) {
	R := len(g.replicas)
	batch := len(labels)
	if batch == 0 || batch%R != 0 {
		return 0, 0, nil, fmt.Errorf("ddp: batch %d does not shard into %d replicas", batch, R)
	}
	if len(x.Shape()) == 0 || x.Dim(0) != batch {
		return 0, 0, nil, fmt.Errorf("ddp: input %v for %d labels", x.Shape(), batch)
	}
	shard := batch / R

	// Broadcast: replicas start every step from the primary's exact
	// parameter and running-statistics state, and mirror its tracking mode
	// (the trainer may have toggled it since the group was built).
	for r := 0; r < R; r++ {
		rep := g.replicas[r]
		rep.TrackRunningStats(g.primary.TracksRunning())
		if err := rep.CopyParamsFrom(g.primary); err != nil {
			return 0, 0, nil, fmt.Errorf("ddp: broadcast to replica %d: %w", r, err)
		}
		if err := rep.CopyRunningFrom(g.primary); err != nil {
			return 0, 0, nil, fmt.Errorf("ddp: broadcast to replica %d: %w", r, err)
		}
	}

	// Shard views: zero-copy windows over the caller's batch.
	stride := x.NumElems() / batch
	shardShape := x.Shape().Clone()
	shardShape[0] = shard
	for r := 0; r < R; r++ {
		lo, hi := r*shard, (r+1)*shard
		in, err := tensor.FromSlice(x.Data[lo*stride:hi*stride], shardShape...)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("ddp: shard %d: %w", r, err)
		}
		g.ins[r] = in
		g.labelShards[r] = labels[lo:hi]
		g.grads[r], g.errs[r] = nil, nil
	}
	g.ex.reset()

	g.rpool.Run(R, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			g.runReplica(r)
		}
	})

	for r := 0; r < R; r++ {
		if g.errs[r] != nil {
			return 0, 0, nil, fmt.Errorf("ddp: replica %d: %w", r, g.errs[r])
		}
	}

	// Equal shards, so the batch loss/accuracy are plain means over the
	// replica means.
	for r := 0; r < R; r++ {
		loss += g.losses[r]
		acc += g.accs[r]
	}
	loss /= float64(R)
	acc /= float64(R)

	grads = g.grads[0]
	tr := g.primary.Tracer()
	start := tr.Begin()
	var bytes int64
	// Deferred so an error return from the fold still closes the reduce
	// span — a trace must never end mid-span.
	defer func() {
		if tr.Enabled() {
			tr.EndArgs("ddp.allreduce", obs.CatReduce, "bwd", obs.TIDReduce, start,
				map[string]float64{"replicas": float64(R), "bytes": float64(bytes)})
		}
	}()
	// Fixed-order tree all-reduce: for every parameter (sorted-name
	// iteration, the maporder contract) gather the per-replica gradients
	// into index order and fold them with det.TreePlan's schedule —
	// combine order is a pure function of the replica index. The fold
	// mutates replica 0's gradient tensors, which already live on the
	// heap and become the combined result.
	for _, name := range det.SortedKeys(grads) {
		for r := 0; r < R; r++ {
			t, ok := g.grads[r][name]
			if !ok {
				return 0, 0, nil, fmt.Errorf("ddp: replica %d missing gradient %q", r, name)
			}
			g.scratch[r] = t
		}
		var cerr error
		det.TreeReduce(g.scratch, func(into, from *tensor.Tensor) {
			if cerr == nil {
				cerr = into.AddInPlace(from)
			}
			bytes += int64(from.NumElems()) * 4
		})
		if cerr != nil {
			return 0, 0, nil, fmt.Errorf("ddp: reduce %q: %w", name, cerr)
		}
		g.scratch[0].Scale(1 / float32(R))
	}
	bytes += g.ex.drainBytes()
	g.totalBytes += bytes
	if g.reduceBytes != nil {
		g.reduceBytes.Add(bytes)
	}
	if err := g.adoptRunning(); err != nil {
		return 0, 0, nil, err
	}
	return loss, acc, grads, nil
}

// runReplica executes one replica's shard: forward, loss, accuracy,
// backward. Called from the replica pool; must not touch the tracer or any
// other replica's slots. On error it poisons the exchanger so replicas
// blocked in a statistics or gradient rendezvous fail instead of waiting
// forever.
func (g *Group) runReplica(r int) {
	fail := func(err error) {
		g.errs[r] = err
		g.ex.abort(err)
	}
	rep := g.replicas[r]
	logits, err := rep.Forward(g.ins[r])
	if err != nil {
		fail(err)
		return
	}
	loss, dlogits, err := layers.SoftmaxCrossEntropy(logits, g.labelShards[r])
	if err != nil {
		fail(err)
		return
	}
	acc, err := layers.Accuracy(logits, g.labelShards[r])
	if err != nil {
		fail(err)
		return
	}
	grads, err := rep.Backward(dlogits)
	if err != nil {
		fail(err)
		return
	}
	g.losses[r], g.accs[r], g.grads[r] = loss, acc, grads
}

// adoptRunning installs the replicas' post-step running statistics as the
// primary's. Under BNSync every replica computed identical updates from the
// identical synchronized statistics, so replica 0's state is THE state.
// Under BNLocal the shards produced different ghost-batch statistics; the
// primary adopts the replica average, folded in replica-index order.
func (g *Group) adoptRunning() error {
	if g.strategy == BNSync {
		if err := g.primary.CopyRunningFrom(g.replicas[0]); err != nil {
			return fmt.Errorf("ddp: adopt running statistics: %w", err)
		}
		return nil
	}
	R := len(g.replicas)
	for _, name := range det.SortedKeys(g.primary.Running) {
		dst := g.primary.Running[name]
		dst.Zero()
		for r := 0; r < R; r++ {
			src, ok := g.replicas[r].Running[name]
			if !ok {
				return fmt.Errorf("ddp: replica %d missing running tensor %q", r, name)
			}
			if src.NumElems() != dst.NumElems() {
				return fmt.Errorf("ddp: running tensor %q length %d vs %d", name, src.NumElems(), dst.NumElems())
			}
			// det-reduce: replica-index order, the same association every
			// step, so the adopted running state is run-to-run identical.
			for i := range dst.Data {
				dst.Data[i] += src.Data[i]
			}
		}
		dst.Scale(1 / float32(R))
	}
	return nil
}

// statsHook returns replica r's statistics hook: deposit the shard's
// per-sample MVF partials — the ones the replica's own statistics sweep or
// conv window took — and leave with the replica-major/sample-minor close over
// the global batch. The fold order equals the full-batch serial sweep's, so
// the synchronized statistics are bit-identical to single-executor
// large-batch statistics.
//
// The deposited slices belong to replica r's arena and are read by whichever
// replica runs the fold. That is safe because every replica blocks in
// rendezvous until the fold has run, and its executor returns the partials
// to the arena only after this hook returns.
func (g *Group) statsHook(r int) core.StatsHook {
	return func(n *graph.Node, _ *graph.BNAttr, m layers.Moments) (*layers.BNStats, error) {
		out, err := g.ex.rendezvous(r, fmt.Sprintf("stats:%d", n.ID), m, foldStats)
		if err != nil {
			return nil, err
		}
		return out.(*layers.BNStats), nil
	}
}

// reduceHook returns replica r's dγ/dβ hook: exchange the locally reduced
// per-channel gradient sums and hand back the global sums for the sub-BN1'
// input-gradient term. The replica's OWN gradient map keeps the local sums —
// the step's tree all-reduce averages those separately — so the global sums
// are fresh tensors shared read-only by every replica.
func (g *Group) reduceHook(r int) core.BNReduceHook {
	return func(n *graph.Node, dgamma, dbeta *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, error) {
		p := gradPayload{dgamma: dgamma, dbeta: dbeta}
		out, err := g.ex.rendezvous(r, fmt.Sprintf("bngrad:%d", n.ID), p, foldGrads)
		if err != nil {
			return nil, nil, err
		}
		gp := out.(gradPayload)
		return gp.dgamma, gp.dbeta, nil
	}
}
