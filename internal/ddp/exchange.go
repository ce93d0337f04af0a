package ddp

import (
	"fmt"
	"sync"

	"bnff/internal/det"
	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// exchanger is the replicas' rendezvous point: every replica deposits a
// payload for the current exchange, the last arrival folds the deposits in
// replica-index order, and everyone leaves with the folded result. Because
// all replicas execute the same node schedule, at most one exchange is ever
// in flight, and each replica passes through each exchange exactly once — the
// barrier is full, so nobody can lap a straggler into a stale round.
//
// Completion is signalled by closing the round's done channel (close gives
// the waiters a happens-before edge to the folded result, which they then
// read lock-free). Errors are sticky: once a replica aborts, the current
// round is poisoned and every later rendezvous fails fast instead of
// deadlocking on a replica that will never arrive.
type exchanger struct {
	mu sync.Mutex
	n  int

	cur   *round
	err   error // sticky; set by abort or a failed fold
	bytes int64 // payload bytes moved since the last drain
}

// round is one exchange generation. slots is indexed by replica so the fold
// order never depends on arrival order.
type round struct {
	done    chan struct{}
	key     string
	slots   []any
	arrived int
	out     any
	err     error
}

func newExchanger(n int) *exchanger {
	return &exchanger{n: n, cur: newRound(n)}
}

func newRound(n int) *round {
	return &round{done: make(chan struct{}), slots: make([]any, n)}
}

// reset clears the sticky error, byte counter, and any poisoned round.
// Called by the group between steps, never concurrently with replicas.
func (x *exchanger) reset() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.err = nil
	x.bytes = 0
	x.cur = newRound(x.n)
}

// drainBytes returns and clears the bytes moved through the exchanger.
func (x *exchanger) drainBytes() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	b := x.bytes
	x.bytes = 0
	return b
}

// abort poisons the exchanger: the sticky error is recorded, any replicas
// blocked in the current round are released with it, and every later
// rendezvous fails immediately. First error wins.
func (x *exchanger) abort(err error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err != nil {
		return
	}
	x.err = err
	if x.cur.arrived > 0 {
		x.cur.err = err
		close(x.cur.done)
		x.cur = newRound(x.n)
	}
}

// rendezvous deposits replica r's payload for the exchange identified by
// key, blocks until all n replicas have deposited, and returns the folded
// result. The fold runs once, on the last-arriving replica's goroutine,
// under the exchanger lock, over the slots in replica-index order; its
// byte count accumulates into Group.ReduceBytes. All replicas must
// present the same key — a mismatch means the replicas diverged in schedule,
// which is a bug, and poisons the exchanger.
func (x *exchanger) rendezvous(r int, key string, payload any, fold func(slots []any) (any, int64, error)) (any, error) {
	x.mu.Lock()
	if x.err != nil {
		err := x.err
		x.mu.Unlock()
		return nil, err
	}
	rd := x.cur
	if rd.key == "" {
		rd.key = key
	} else if rd.key != key {
		err := fmt.Errorf("ddp: replica %d reached exchange %q while others are at %q", r, key, rd.key)
		x.err = err
		rd.err = err
		close(rd.done)
		x.cur = newRound(x.n)
		x.mu.Unlock()
		return nil, err
	}
	rd.slots[r] = payload
	rd.arrived++
	if rd.arrived == x.n {
		out, bytes, err := fold(rd.slots)
		rd.out, rd.err = out, err
		x.bytes += bytes
		if err != nil && x.err == nil {
			x.err = err
		}
		x.cur = newRound(x.n)
		close(rd.done)
		x.mu.Unlock()
		return rd.out, rd.err
	}
	x.mu.Unlock()
	<-rd.done
	return rd.out, rd.err
}

// foldStats closes the replicas' deposited layers.Moments over the global
// batch: their partials, concatenated in replica order, are the global
// batch's partials in sample order (replica r's sample i IS global sample
// r·shard+i), so the one BatchNorm.Close reproduces the serial full-batch
// association bit for bit — which a fold of pre-reduced per-shard sums could
// not promise. Closed into a fresh heap pair, the statistics belong to no
// executor, and every replica shares them read-only.
func foldStats(slots []any) (any, int64, error) {
	first := slots[0].(layers.Moments)
	c := len(first.Sum) / max(first.N, 1)
	all := layers.Moments{HW: first.HW}
	var bytes int64
	for r, s := range slots {
		m := s.(layers.Moments)
		if len(m.Sum) != m.N*c || len(m.SumSq) != m.N*c || m.HW != first.HW {
			return nil, 0, fmt.Errorf("ddp: replica %d moments: %d/%d partials of %d samples × %d elements, want %d channels × %d elements",
				r, len(m.Sum), len(m.SumSq), m.N, m.HW, c, first.HW)
		}
		all.Sum = append(all.Sum, m.Sum...)
		all.SumSq = append(all.SumSq, m.SumSq...)
		all.N += m.N
		bytes += int64(len(m.Sum)+len(m.SumSq)) * 4
	}
	st := &layers.BNStats{Mean: tensor.New(c), Var: tensor.New(c)}
	if err := layers.NewBatchNorm(c).Close(all, st); err != nil {
		return nil, 0, err
	}
	return st, bytes, nil
}

// gradPayload carries one replica's locally reduced per-channel dγ/dβ sums
// into the exchange and the global sums back out.
type gradPayload struct {
	dgamma, dbeta *tensor.Tensor
}

// foldGrads tree-reduces the replicas' dγ/dβ contributions with the
// det.TreePlan schedule over CLONES — the deposited tensors are the
// replicas' own parameter gradients, which the step's gradient all-reduce
// still needs unmodified. The folded pair is shared read-only by every
// replica's sub-BN1' input-gradient term.
func foldGrads(slots []any) (any, int64, error) {
	gs := make([]*tensor.Tensor, len(slots))
	bs := make([]*tensor.Tensor, len(slots))
	for r, s := range slots {
		p := s.(gradPayload)
		gs[r] = p.dgamma.Clone()
		bs[r] = p.dbeta.Clone()
	}
	var err error
	combine := func(into, from *tensor.Tensor) {
		if err == nil {
			err = into.AddInPlace(from)
		}
	}
	dg := det.TreeReduce(gs, combine)
	db := det.TreeReduce(bs, combine)
	if err != nil {
		return nil, 0, err
	}
	bytes := int64(len(slots)*(gs[0].NumElems()+bs[0].NumElems())) * 4
	return gradPayload{dgamma: dg, dbeta: db}, bytes, nil
}
