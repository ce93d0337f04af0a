package serve

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/obs"
	"bnff/internal/tensor"
)

// ErrBadImage is wrapped by Predict when the submitted image has the wrong
// number of floats for the served model (HTTP 400, not a server fault).
var ErrBadImage = fmt.Errorf("serve: bad image")

// request is one queued image awaiting a batch slot. resp is buffered so a
// replica never blocks on a caller that gave up.
type request struct {
	img   []float32
	start int64 // Clock reading at enqueue, for latency accounting
	resp  chan result
}

type result struct {
	logits []float32
	err    error
}

// model is one immutable checkpoint generation. Reload swaps the engine's
// current *model atomically; each replica notices the generation change
// between micro-batches, drops its old executor, and takes one for the new
// blob — so a reload never stalls the other replicas. probe holds the
// executor Reload validated the blob with, until the first replica to flip
// claims it; the others build their own.
type model struct {
	blob  []byte
	gen   uint64
	probe atomic.Pointer[core.Executor]
}

// Engine is the micro-batching inference server: a bounded request queue
// drained by Replicas worker goroutines, each coalescing up to MaxBatch
// queued images into one executor forward pass.
type Engine struct {
	cfg     Config
	builder Builder
	model   atomic.Pointer[model] // current checkpoint generation

	imgShape tensor.Shape // per-image dims (input shape minus batch)
	imgLen   int
	classes  int

	queue     chan *request
	stop      chan struct{} // closed by Close: replicas finish and exit
	done      chan struct{} // closed by Close after replicas exit and the queue drains
	closed    atomic.Bool
	draining  atomic.Bool // Drain: refuse new requests, finish queued ones
	reloading atomic.Bool // Reload in flight: a second one gets ErrReloadBusy
	wg        sync.WaitGroup

	// batchHist[i] counts dispatched batches of size i+1; every replica
	// adds to it and Stats reads it, both without a lock.
	batchHist []atomic.Uint64

	// Metrics registry and its pre-resolved handles (atomic counters; the
	// request path never takes the registry lock).
	metrics     *obs.Registry
	mRequests   *obs.Counter
	mBatches    *obs.Counter
	mRejected   *obs.Counter
	mQueueDepth *obs.Gauge
	mOccupancy  *obs.Gauge
	mLatency    *obs.Histogram
	mReloads    *obs.Counter
	mGeneration *obs.Gauge
	mDraining   *obs.Gauge

	replicas []*replica
}

// Load builds an Engine: it validates the config, reads the checkpoint into
// memory, builds every replica's executor — which checks that the checkpoint
// matches the model (and, with FoldBN set, that the fold pass accepts it) —
// and starts the replica workers. Close releases them.
func Load(builder Builder, ckpt io.Reader, cfg Config) (*Engine, error) {
	e, err := newEngine(builder, ckpt, cfg)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// newEngine does everything Load does except starting the replica loops.
// Split out so tests can exercise queueing against a quiescent engine.
func newEngine(builder Builder, ckpt io.Reader, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	blob, err := io.ReadAll(ckpt)
	if err != nil {
		return nil, fmt.Errorf("serve: reading checkpoint: %w", err)
	}
	e := &Engine{
		cfg:       cfg,
		builder:   builder,
		queue:     make(chan *request, cfg.QueueDepth),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		batchHist: make([]atomic.Uint64, cfg.MaxBatch),
		metrics:   obs.NewRegistry(),
	}
	e.model.Store(&model{blob: blob, gen: 1})
	e.mRequests = e.metrics.Counter("bnff_serve_requests_total")
	e.mBatches = e.metrics.Counter("bnff_serve_batches_total")
	e.mRejected = e.metrics.Counter("bnff_serve_rejected_total")
	e.mQueueDepth = e.metrics.Gauge("bnff_serve_queue_depth")
	e.mOccupancy = e.metrics.Gauge("bnff_serve_batch_occupancy")
	e.mLatency = e.metrics.Histogram("bnff_serve_latency_ns")
	e.mReloads = e.metrics.Counter("bnff_serve_reloads_total")
	e.mGeneration = e.metrics.Gauge("bnff_serve_generation")
	e.mDraining = e.metrics.Gauge("bnff_serve_draining")
	e.mGeneration.Set(1)

	// One executor per replica, built before any request is accepted: a
	// checkpoint/model mismatch fails here, and the first resolves the
	// input/output shapes.
	e.replicas = make([]*replica, cfg.Replicas)
	for i := range e.replicas {
		exec, err := e.buildExecutor(blob)
		if err != nil {
			return nil, err
		}
		e.replicas[i] = &replica{e: e, index: i, gen: 1, exec: exec}
	}
	g := e.replicas[0].exec.G
	in := inputNode(g)
	if in == nil {
		return nil, fmt.Errorf("serve: model graph has no input node")
	}
	if len(in.OutShape) < 2 {
		return nil, fmt.Errorf("serve: model input shape %v has no batch dimension", in.OutShape)
	}
	e.imgShape = in.OutShape[1:].Clone()
	e.imgLen = e.imgShape.NumElems()
	out := g.Output.OutShape
	if len(out) != 2 {
		return nil, fmt.Errorf("serve: model output shape %v, want [batch classes] logits", out)
	}
	e.classes = out[1]
	return e, nil
}

// buildExecutor constructs an inference executor and loads the checkpoint
// image into it, folded when the config asks for it. The graph is built at
// MaxBatch — the largest batch the executor will be handed, which is what the
// cost models should price; the executor itself answers any size.
func (e *Engine) buildExecutor(blob []byte) (*core.Executor, error) {
	g, err := e.builder(e.cfg.MaxBatch)
	if err != nil {
		return nil, fmt.Errorf("serve: building graph: %w", err)
	}
	opts := []core.Option{
		core.WithSeed(e.cfg.Seed),
		core.WithWorkers(e.cfg.Workers),
		core.WithInference(),
	}
	if e.cfg.FoldBN {
		opts = append(opts, core.WithFoldedBN())
	}
	exec, err := core.NewExecutor(g, opts...)
	if err != nil {
		return nil, fmt.Errorf("serve: executor: %w", err)
	}
	if err := exec.Load(bytes.NewReader(blob)); err != nil {
		return nil, fmt.Errorf("serve: loading checkpoint: %w", err)
	}
	return exec, nil
}

// inputNode finds the graph's (single) input node.
func inputNode(g *graph.Graph) *graph.Node {
	for _, n := range g.Live() {
		if n.Kind == graph.OpInput {
			return n
		}
	}
	return nil
}

func (e *Engine) start() {
	for _, r := range e.replicas {
		e.wg.Add(1)
		go r.loop()
	}
}

// now reads the injected clock, or 0 without one (latencies then record as
// zero; everything else is unaffected).
func (e *Engine) now() int64 {
	if e.cfg.Clock != nil {
		return e.cfg.Clock()
	}
	return 0
}

// ImageLen returns the number of floats one request image must carry.
func (e *Engine) ImageLen() int { return e.imgLen }

// Classes returns the width of the logits vector Predict returns.
func (e *Engine) Classes() int { return e.classes }

// Predict enqueues one image and blocks until a replica answers with the
// model's logits. It returns ErrOverloaded without blocking when the queue is
// full, ErrBadImage (wrapped) on a wrong-sized image, and ErrClosed once the
// engine has shut down.
func (e *Engine) Predict(img []float32) ([]float32, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.draining.Load() {
		return nil, ErrDraining
	}
	if len(img) != e.imgLen {
		return nil, fmt.Errorf("%w: got %d floats, model takes %d", ErrBadImage, len(img), e.imgLen)
	}
	req := &request{img: img, start: e.now(), resp: make(chan result, 1)}
	select {
	case e.queue <- req:
	default:
		e.mRejected.Inc()
		return nil, ErrOverloaded
	}
	select {
	case res := <-req.resp:
		return res.logits, res.err
	case <-e.done:
		// Shut down while we waited; a reply may still have raced in.
		select {
		case res := <-req.resp:
			return res.logits, res.err
		default:
			return nil, ErrClosed
		}
	}
}

// Stats snapshots the serving counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Requests:   uint64(e.mRequests.Value()),
		Batches:    uint64(e.mBatches.Value()),
		Rejected:   uint64(e.mRejected.Value()),
		QueueDepth: len(e.queue),
		Generation: e.model.Load().gen,
		Draining:   e.draining.Load(),
		BatchHist:  make([]uint64, len(e.batchHist)),
	}
	for i := range e.batchHist {
		st.BatchHist[i] = e.batchHist[i].Load()
	}
	st.P50Nanos = e.mLatency.Quantile(0.50)
	st.P99Nanos = e.mLatency.Quantile(0.99)
	return st
}

// Metrics returns the engine's registry. GET /metrics exposes it in the
// Prometheus text format.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// Closed reports whether Close has begun.
func (e *Engine) Closed() bool { return e.closed.Load() }

// Drain puts the engine into its drain state for good: Predict refuses new
// requests with ErrDraining and Ready reports "draining", while everything
// already queued finishes normally. Daemon drains the engine on SIGTERM
// before it closes it, so a fleet proxy fails over past the backend and
// ejects it without dropping accepted work.
func (e *Engine) Drain() {
	e.draining.Store(true)
	e.mDraining.Set(1)
}

// Ready reports readiness — whether the engine should receive new
// assignments — and, when not ready, the reason ("closed" or "draining").
// Liveness (Closed) and readiness differ exactly while draining: the process
// is healthy but must not be routed to. A reload in flight does not touch
// readiness, since the engine keeps answering on the old generation until it
// flips.
func (e *Engine) Ready() (bool, string) {
	switch {
	case e.closed.Load():
		return false, "closed"
	case e.draining.Load():
		return false, "draining"
	}
	return true, ""
}

// Generation returns the current model generation: 1 at Load, +1 per
// successful Reload.
func (e *Engine) Generation() uint64 { return e.model.Load().gen }

// Reload hot-swaps the served checkpoint with zero downtime: the new image
// is read and validated (built and loaded into an executor, through the
// BN-fold compile when the engine folds), then published atomically as the
// next model generation, with that executor parked on it. Each replica
// notices the generation change between micro-batches, finishes the batch in
// hand on its old executor, drops it — releasing the old parameter and
// workspace memory — and takes its one executor for the new image: the first
// replica the parked one, the rest a fresh build. Requests keep flowing
// throughout; a failed validation leaves the old generation serving
// untouched. One reload at a time: concurrent calls get ErrReloadBusy.
func (e *Engine) Reload(ckpt io.Reader) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if !e.reloading.CompareAndSwap(false, true) {
		return ErrReloadBusy
	}
	defer e.reloading.Store(false)
	blob, err := io.ReadAll(ckpt)
	if err != nil {
		return fmt.Errorf("serve: reading reload checkpoint: %w", err)
	}
	// Validate beside the old generation: an executor must build and load
	// (and fold) from the image before anything is published.
	probe, err := e.buildExecutor(blob)
	if err != nil {
		return fmt.Errorf("serve: reload rejected: %w", err)
	}
	next := &model{blob: blob, gen: e.model.Load().gen + 1}
	next.probe.Store(probe)
	e.model.Store(next)
	e.mReloads.Inc()
	e.mGeneration.Set(int64(next.gen))
	return nil
}

// Close shuts the engine down: no new requests are accepted, in-flight
// batches finish, replicas exit, and any requests still queued are answered
// with ErrClosed. Close is idempotent; only the first call does the work.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		<-e.done
		return
	}
	close(e.stop)
	e.wg.Wait()
	for {
		select {
		case req := <-e.queue:
			req.resp <- result{err: ErrClosed}
		default:
			close(e.done)
			return
		}
	}
}
