package core

import (
	"slices"

	"bnff/internal/memplan"
	"bnff/internal/obs"
	"bnff/internal/tensor"
)

// Liveness-driven activation reuse. The paper's restructuring argument is
// about feature-map memory traffic; internal/memplan already computes the
// exact live interval of every mini-batch-sized buffer over the training
// schedule (or an inference pass), and the executor consumes those same
// intervals at runtime: node outputs, gradients, and layer workspace (BN
// reduction partials, regenerated x̂ samples, fused-kernel tiles) all come
// from the executor's private tensor.Arena, and each planned buffer is
// returned to it at its interval's End step — so from the second iteration
// on, a step is served almost entirely from recycled storage instead of
// paying allocator+GC cost per mini-batch. Recycled buffers are
// zeroed before reuse (tensor.Arena's default), so every layer sees exactly
// the contents a fresh allocation would give it.
//
// The intervals also decide where each planned buffer lives. memplan.Place
// packs them into one slab, in per-sample elements and in segments no longer
// than the largest buffer; the first pass reserves the slab at its batch (a
// later, larger batch replaces it, since nothing is checked out between
// passes), and before every schedule step the executor queues the slots of
// the buffers born there (arenaPlan.born), which the arena hands to that
// step's Gets by length. Best fit alone left the arena 1.2–1.45× above the
// planned peak on bn-heavy (exact-size chunks whose free ranges never merge);
// placed, the slab is the plan. The step's transients — workspace, a second
// consumer's gradient contribution — take ranges of the slab that are free
// and lie outside the step's queued slots, and fall back to best fit beside
// it only where the slab is full. Per-channel statistics live from a forward
// step to its backward, which the plan does not price, so they keep beside
// the slab (tensor.Arena.Beside). They are the only thing besides planned
// values and gradients that a forward step leaves for its backward: a max
// pool re-derives its argmax from its input, which the plan keeps live to
// the pool's backward, and a dropout replays its keep decisions from a copy
// of the generator. A slot whose range is taken, or a transient still
// holding the slab at the next step, counts in arena_place_misses, so a
// wrong plan costs memory, never correctness.
//
// An inference executor follows memplan.InferenceIntervals instead: the
// same release path and placement, over intervals that end at each value's
// last forward reader. A dropout is the identity there and aliases its
// input, so it is a view like a concat or a flatten, and the input lives
// through the dropout's readers.
//
// Two buffer families the model once had are gone, and the table follows
// from the model: a concat owns no storage (it is a layers.Concat view whose
// inputs memplan keeps live through the concat's readers, so a dense block
// keeps each feature map once), and nothing stores x̂ — a BN's input stays
// live until the backward that regenerates x̂ from it (its own, or its
// statistics producer's for a SubBN2 or fused BNReLUConv). A ReLU's backward
// masks with its output, so its input dies at its forward. A node whose
// input, or a concat input's part, is already released fails with an error
// naming the node, the value and the step (Executor.released); a value
// released while a flatten view or a BN stash still holds it would be a
// use-after-free, and `make poison` is the check.
//
// Two things deliberately stay on the heap: parameter gradients (they escape
// into the returned gradient map, whose lifetime the schedule does not bound)
// and the graph output (detached to the caller at the end of each Forward).

// WithArena is a no-op: every executor allocates from a private arena. It
// remains only because benchmark/setup.go, which this change may not edit,
// still calls it; the next benchmark PR drops that call and this symbol.
func WithArena() Option { return func(*Executor) {} }

// WithMetrics attaches an obs metrics registry. After every Forward and
// Backward the executor publishes the arena counters as gauges:
// arena_hits, arena_misses, arena_bytes_in_use, arena_peak_bytes,
// arena_held_bytes (everything the arena owns, checked out or free),
// arena_slab_bytes (the placement slab, part of held) and
// arena_place_misses (planned buffers that found their slot taken, and
// training passes whose plan outgrew the slab).
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

// arenaPlan is the executor's compiled plan: for every schedule step, the
// buffers whose live interval ends there and the slab slots of the buffers
// born there. Built once per graph by memplan.Place over
// memplan.TrainingIntervals, or over memplan.InferenceIntervals for an
// inference executor; invalidated when FoldBN rewrites the graph.
type arenaPlan struct {
	releases map[int][]arenaRelease // schedule step → buffers dead after it
	born     [][]tensor.Slot        // schedule step → per-sample slots of the buffers born there
	slab     int                    // per-sample slab size the slots lie within
	seg      int                    // per-sample segment length no slot crosses
}

// arenaPlanFor returns the cached plan, compiling it on first use.
func (e *Executor) arenaPlanFor() (*arenaPlan, error) {
	if e.aplan != nil {
		return e.aplan, nil
	}
	intervals := memplan.TrainingIntervals
	if e.inference {
		intervals = memplan.InferenceIntervals
	}
	sched, ivs, err := intervals(e.G)
	if err != nil {
		return nil, err
	}
	place := memplan.Place(ivs)
	p := &arenaPlan{releases: make(map[int][]arenaRelease), born: make([][]tensor.Slot, sched.Steps),
		slab: place.Slab, seg: place.Seg}
	for _, iv := range ivs {
		if iv.Kind == memplan.BufValue && iv.Node.ID == e.G.Output.ID {
			// The output value is handed to the caller, whose lifetime the
			// schedule does not bound; Forward detaches it instead.
			continue
		}
		p.releases[iv.End] = append(p.releases[iv.End], arenaRelease{iv.Kind, iv.Node.ID})
	}
	// The arena hands a step's slots to its Gets by length, first queued
	// first. A backward step Gets its input gradients in input order (a
	// concat's parts, an EWS's two operands), so equal-length slots queue in
	// that order; a forward step Gets one value.
	inputRank := func(iv memplan.Interval) int {
		if iv.Kind != memplan.BufGrad {
			return 0
		}
		return slices.Index(sched.Nodes[sched.Steps-1-iv.Start].Inputs, iv.Node)
	}
	order := make([]int, len(ivs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return inputRank(ivs[x]) - inputRank(ivs[y]) })
	for _, i := range order {
		iv := ivs[i]
		if iv.Kind == memplan.BufGrad && iv.Node.ID == e.G.Output.ID {
			continue // the output's gradient is the caller's dOut, never a Get
		}
		p.born[iv.Start] = append(p.born[iv.Start], tensor.Slot{Off: place.Offsets[i], Len: iv.SampleElems()})
	}
	e.aplan = p
	return p, nil
}

// releaseForwardStep recycles the buffers whose interval ends at forward
// step i. Only values can die in the forward half of the schedule. At
// inference a dropout's value is its input itself and has no entry: its map
// slot is left pointing at the released input, which no reader looks up
// after the input's own last reader.
func (e *Executor) releaseForwardStep(i int) {
	for _, r := range e.aplan.releases[i] {
		if t := e.vals[r.id]; t != nil {
			e.alloc.Put(t)
			delete(e.vals, r.id)
		}
	}
}

// releaseBackwardStep recycles the buffers whose interval ends at backward
// step `step`, after that step's backwardNode has run. A stashed dv is not
// among them: the stash owns it from the sub-BN2' that stashes it, and the
// sub-BN1' that reads it (bnInputGrad) uses it up.
func (e *Executor) releaseBackwardStep(step int, gmap map[int]*tensor.Tensor) {
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
		if st := e.stats[n.ID]; st != nil {
			e.alloc.Put(st.Mean)
			e.alloc.Put(st.Var)
		}
	}
	clear(e.vals)
	clear(e.stats)
	clear(e.dropFrom)
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
			slab:   e.metrics.Gauge("arena_slab_bytes"),
			pmiss:  e.metrics.Gauge("arena_place_misses"),
		}
	}
	s := e.alloc.Stats()
	e.agauges.hits.Set(s.Hits)
	e.agauges.misses.Set(s.Misses)
	e.agauges.inUse.Set(s.BytesInUse)
	e.agauges.peak.Set(s.PeakBytes)
	e.agauges.held.Set(s.HeldBytes)
	e.agauges.slab.Set(s.SlabBytes)
	e.agauges.pmiss.Set(s.PlaceMisses)
}

// arenaGauges caches the resolved registry gauges so publishing after every
// pass costs seven atomic stores, not seven registry lookups.
type arenaGauges struct {
	hits, misses, inUse, peak, held, slab, pmiss *obs.Gauge
}
