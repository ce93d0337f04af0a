// Package parallel is the shared worker-pool runtime behind every parallel
// layer path. An Executor owns one Pool and threads it through convolution,
// batch-normalization statistics, normalize epilogues, ReLU, pooling, FC,
// and GEMM kernels, so two executors with different worker settings never
// interfere — there is no package-global worker setting to race on.
//
// Determinism contract: Run always partitions the index range the same way
// for a given (n, workers) pair, and callers reduce per-item partials in
// item order. Parallel forward passes are therefore bit-identical to serial
// execution, and parallel backward passes are deterministic and within
// float32 round-off of serial (per-sample partials associate the same
// additions differently; see internal/layers/doc.go).
package parallel

import (
	"runtime"
	"sync"

	"bnff/internal/obs"
)

// MaxWorkers caps a pool's size. Requesting more workers than cores is
// allowed (the scheduler multiplexes them), which also lets single-core
// machines exercise the concurrent paths.
const MaxWorkers = 1024

// Pool is an immutable worker-count policy for splitting layer work across
// goroutines. The zero value and the nil pool are both serial, so layer code
// can thread a *Pool unconditionally. Pools are cheap: they hold no threads,
// only a count — goroutines are spawned per Run call and the Go scheduler
// multiplexes them onto OS threads.
type Pool struct {
	workers int
	tracer  *obs.Tracer
}

// New returns a pool that splits work across up to n goroutines, clamped to
// [1, MaxWorkers].
func New(n int) *Pool {
	return &Pool{workers: clamp(n)}
}

// WithTracer returns a pool with the same worker count whose concurrent Run
// calls record dispatch and drain spans on t (categories obs.CatPool). A nil
// tracer returns an untraced pool; serial Runs never touch the tracer, so the
// one-worker hot path stays as cheap as before. Only the dispatching
// goroutine reads the clock — workers never do — so span order stays
// deterministic at any worker count.
func (p *Pool) WithTracer(t *obs.Tracer) *Pool {
	return &Pool{workers: p.Workers(), tracer: t}
}

func clamp(n int) int {
	if n < 1 {
		return 1
	}
	if n > MaxWorkers {
		return MaxWorkers
	}
	return n
}

// Workers returns the pool's worker count; a nil or zero-value pool is 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Serial reports whether Run will execute inline on the calling goroutine.
func (p *Pool) Serial() bool { return p.Workers() == 1 }

// Run partitions [0, n) into at most Workers() contiguous chunks and calls
// fn(lo, hi) once per chunk, concurrently when more than one chunk exists,
// then waits for all of them. The partition is a pure function of
// (n, workers): chunk k covers [n·k/w, n·(k+1)/w). With one worker (or
// n ≤ 1) fn runs inline with no goroutine or synchronization overhead.
func (p *Pool) Run(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		fn(0, n)
		return
	}
	dispatch := p.tracer.Begin()
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := n*k/w, n*(k+1)/w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	p.tracer.End("pool.dispatch", obs.CatPool, "", obs.TIDPool, dispatch)
	drain := p.tracer.Begin()
	wg.Wait()
	p.tracer.End("pool.drain", obs.CatPool, "", obs.TIDPool, drain)
}

// NumChunks returns the number of chunks Run and RunChunked will split an
// n-item range into: min(Workers(), n), at least 1 for positive n. Callers
// that pre-size per-chunk scratch slabs (so workers never allocate inside the
// dispatched closure) size them as NumChunks(n) × per-chunk capacity.
func (p *Pool) NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	return w
}

// RunChunked is Run with the chunk index exposed: fn(chunk, lo, hi) where
// chunk ∈ [0, NumChunks(n)) identifies the partition slot. It exists so
// dispatchers can hand each worker a disjoint slice of a pre-allocated
// workspace slab (im2col columns, fused-kernel tiles) instead of having the
// closure allocate per call — arena buffers must never be requested from
// inside a worker, so the dispatching goroutine carves the slab up front and
// workers index it by chunk. Partitioning, tracing, and the serial inline
// path match Run exactly.
func (p *Pool) RunChunked(n int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		fn(0, 0, n)
		return
	}
	dispatch := p.tracer.Begin()
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := n*k/w, n*(k+1)/w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			fn(k, lo, hi)
		}(k, lo, hi)
	}
	p.tracer.End("pool.dispatch", obs.CatPool, "", obs.TIDPool, dispatch)
	drain := p.tracer.Begin()
	wg.Wait()
	p.tracer.End("pool.drain", obs.CatPool, "", obs.TIDPool, drain)
}

// NumCPU returns the recommended worker count for this machine.
func NumCPU() int { return runtime.GOMAXPROCS(0) }
