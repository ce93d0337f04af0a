package core

import (
	"bnff/internal/memplan"
	"bnff/internal/obs"
	"bnff/internal/tensor"
)

// Liveness-driven activation reuse. The paper's restructuring argument is
// about feature-map memory traffic; internal/memplan already computes the
// exact live interval of every mini-batch-sized buffer over the training
// schedule, and the executor consumes those same intervals at runtime: node
// outputs, x̂ maps, dropout masks, gradients, and layer workspace (BN
// reduction partials, pooling argmax indices, fused-kernel tiles) all come
// from the executor's private tensor.Arena, and each buffer is returned to it
// at its interval's End step — so from the second iteration on, a step is
// served almost entirely from recycled storage instead of paying
// allocator+GC cost per mini-batch. Recycled buffers are zeroed before reuse
// (tensor.Arena's default), so every layer sees exactly the contents a fresh
// allocation would give it.
//
// Two buffer families the model once had are gone, and the table follows
// from the model: a concat owns no storage (it is a layers.Concat view whose
// inputs memplan keeps live through the concat's readers, so a dense block
// keeps each feature map once), and a fused BNReLUConv stores no x̂ (its
// input stays live until its statistics producer's backward, where x̂ is
// regenerated from it). A value released while a view still lists it would
// be a use-after-free; `make poison` is the check.
//
// Two things deliberately stay on the heap: parameter gradients (they escape
// into the returned gradient map, whose lifetime the schedule does not bound)
// and the graph output (detached to the caller at the end of each Forward).
// Inference-mode passes skip per-step releases — dropout is an identity alias
// there, so the training intervals do not apply — and recycle everything at
// the start of the next pass instead.

// WithArena is a no-op: every executor allocates from a private arena. It
// remains only because benchmark/setup.go, which this change may not edit,
// still calls it; the next benchmark PR drops that call and this symbol.
func WithArena() Option { return func(*Executor) {} }

// WithMetrics attaches an obs metrics registry. After every Forward and
// Backward the executor publishes the arena counters as gauges:
// arena_hits, arena_misses, arena_bytes_in_use, arena_peak_bytes, and
// arena_held_bytes (everything the arena owns, checked out or free).
func WithMetrics(r *obs.Registry) Option { return func(e *Executor) { e.metrics = r } }

// Metrics returns the registry attached via WithMetrics, or nil. The ddp
// group publishes its reduce counters into the primary executor's registry so
// one scrape covers both arena and exchange traffic.
func (e *Executor) Metrics() *obs.Registry { return e.metrics }

// ArenaStats returns a snapshot of the executor's arena counters.
func (e *Executor) ArenaStats() tensor.ArenaStats { return e.alloc.Stats() }

// arenaRelease is one buffer to recycle after a schedule step: the buffer
// family plus the node whose per-pass map slot holds it.
type arenaRelease struct {
	kind memplan.BufKind
	id   int
}

// arenaPlan is the executor's compiled release table: for every schedule
// step, the buffers whose live interval ends there. Built once per graph
// from memplan.TrainingIntervals and invalidated when FoldBN rewrites the
// graph.
type arenaPlan struct {
	fwdSteps int                    // number of live nodes = forward steps
	releases map[int][]arenaRelease // schedule step → buffers dead after it
}

// arenaPlanFor returns the cached release table, compiling it on first use.
func (e *Executor) arenaPlanFor() (*arenaPlan, error) {
	if e.aplan != nil {
		return e.aplan, nil
	}
	sched, ivs, err := memplan.TrainingIntervals(e.G)
	if err != nil {
		return nil, err
	}
	p := &arenaPlan{fwdSteps: len(sched.Nodes), releases: make(map[int][]arenaRelease)}
	for _, iv := range ivs {
		if iv.Kind == memplan.BufValue && iv.Node.ID == e.G.Output.ID {
			// The output value is handed to the caller, whose lifetime the
			// schedule does not bound; Forward detaches it instead.
			continue
		}
		p.releases[iv.End] = append(p.releases[iv.End], arenaRelease{iv.Kind, iv.Node.ID})
	}
	e.aplan = p
	return p, nil
}

// releaseForwardStep recycles the buffers whose interval ends at forward
// step i. Only values can die in the forward half of the schedule.
func (e *Executor) releaseForwardStep(i int) {
	for _, r := range e.aplan.releases[i] {
		if t := e.vals[r.id]; t != nil {
			e.alloc.Put(t)
			delete(e.vals, r.id)
		}
	}
}

// releaseBackwardStep recycles the buffers whose interval ends at backward
// step `step`, after that step's backwardNode has run. All releases for a
// step fire as one batch with no Get in between, so a buffer reachable from
// two slots (a SubBN2's gradient doubles as the stashed dv) is recycled once
// and the second Put is a no-op rather than a double free.
func (e *Executor) releaseBackwardStep(step int, gmap map[int]*tensor.Tensor, stash map[int]*bnStash) {
	for _, r := range e.aplan.releases[step] {
		switch r.kind {
		case memplan.BufValue:
			if t := e.vals[r.id]; t != nil {
				e.alloc.Put(t)
				delete(e.vals, r.id)
			}
		case memplan.BufGrad:
			if g := gmap[r.id]; g != nil {
				e.alloc.Put(g)
				delete(gmap, r.id)
			}
			if st := stash[r.id]; st != nil {
				// A fused partner's dv is a fresh buffer modeled on the
				// statistics producer; the input x it stashed is a forward
				// value, released by its own BufValue entry at this step.
				e.alloc.Put(st.dv)
				delete(stash, r.id)
			}
		case memplan.BufXHat:
			if t := e.xhats[r.id]; t != nil {
				e.alloc.Put(t)
				delete(e.xhats, r.id)
			}
		case memplan.BufMask:
			if t := e.masks[r.id]; t != nil {
				e.alloc.Put(t)
				delete(e.masks, r.id)
			}
		}
	}
}

// resetPass recycles everything still checked out from the previous pass and
// clears the per-pass maps in place. It walks nodes in schedule order — never
// map order — so the arena's free ranges coalesce in the same order every
// pass and the next pass gets the same layout, and it leans on
// Put's ownership checks: caller inputs, flatten views, running-statistics
// wrappers, and the detached output are all foreign to the arena and fall
// through as no-ops.
func (e *Executor) resetPass() {
	for _, n := range e.liveNodes() {
		e.alloc.Put(e.vals[n.ID])
		e.alloc.Put(e.xhats[n.ID])
		e.alloc.Put(e.masks[n.ID])
		if st := e.stats[n.ID]; st != nil {
			e.alloc.Put(st.Mean)
			e.alloc.Put(st.Var)
		}
		if ctx := e.poolCtx[n.ID]; ctx != nil {
			e.alloc.PutInts(ctx.ArgMax)
		}
	}
	clear(e.vals)
	clear(e.stats)
	clear(e.xhats)
	clear(e.poolCtx)
	clear(e.masks)
}

// releaseStats recycles a consumed mini-batch statistics pair. Inference
// statistics wrap the Running tensors, which the arena does not own, so the
// Puts are no-ops there.
func (e *Executor) releaseStats(id int) {
	if st := e.stats[id]; st != nil {
		e.alloc.Put(st.Mean)
		e.alloc.Put(st.Var)
		delete(e.stats, id)
	}
}

// publishArenaMetrics pushes the arena counters into the attached registry.
func (e *Executor) publishArenaMetrics() {
	if e.metrics == nil {
		return
	}
	if e.agauges == nil {
		e.agauges = &arenaGauges{
			hits:   e.metrics.Gauge("arena_hits"),
			misses: e.metrics.Gauge("arena_misses"),
			inUse:  e.metrics.Gauge("arena_bytes_in_use"),
			peak:   e.metrics.Gauge("arena_peak_bytes"),
			held:   e.metrics.Gauge("arena_held_bytes"),
		}
	}
	s := e.alloc.Stats()
	e.agauges.hits.Set(s.Hits)
	e.agauges.misses.Set(s.Misses)
	e.agauges.inUse.Set(s.BytesInUse)
	e.agauges.peak.Set(s.PeakBytes)
	e.agauges.held.Set(s.HeldBytes)
}

// arenaGauges caches the resolved registry gauges so publishing after every
// pass costs five atomic stores, not five registry lookups.
type arenaGauges struct {
	hits, misses, inUse, peak, held *obs.Gauge
}
