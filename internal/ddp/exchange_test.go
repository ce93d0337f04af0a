package ddp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// TestFoldStatsHandComputed pins the sync-BN statistics fold against numbers
// worked out by hand, in the style of the layer package's two-batch running
// test. Two replicas, one channel, H·W = 2, two samples per shard:
//
//	replica 0 samples: {1, 2}, {3, 4}  → per-sample (Σx, Σx²) = (3, 5), (7, 25)
//	replica 1 samples: {5, 6}, {7, 8}  → (11, 61), (15, 113)
//
// Global batch: Σx = 36, Σx² = 204 over M = 8 elements →
// mean = 4.5, E(X²) = 25.5, var = 25.5 − 20.25 = 5.25.
func TestFoldStatsHandComputed(t *testing.T) {
	slots := []any{
		layers.Moments{N: 2, HW: 2, Sum: []float32{3, 7}, SumSq: []float32{5, 25}},
		layers.Moments{N: 2, HW: 2, Sum: []float32{11, 15}, SumSq: []float32{61, 113}},
	}
	out, bytes, err := foldStats(slots)
	if err != nil {
		t.Fatal(err)
	}
	st := out.(*layers.BNStats)
	if st.M != 8 {
		t.Errorf("M = %d, want 8", st.M)
	}
	if got := st.Mean.Data[0]; got != 4.5 {
		t.Errorf("mean = %v, want 4.5", got)
	}
	if got := st.Var.Data[0]; math.Abs(float64(got)-5.25) > 1e-6 {
		t.Errorf("var = %v, want 5.25", got)
	}
	// 2 replicas × (2+2) float32 partials × 4 bytes.
	if bytes != 32 {
		t.Errorf("bytes = %d, want 32", bytes)
	}
}

// TestFoldStatsMatchesSerialSweep: the replica-major/sample-minor fold must
// be bit-identical to the full-batch ComputeStatsMVF sweep over the
// concatenated shards — the sync-BN bit-identity claim at its source.
func TestFoldStatsMatchesSerialSweep(t *testing.T) {
	const n, c, h, w = 6, 3, 2, 2
	full := tensor.New(n, c, h, w)
	rng := uint64(1)
	for i := range full.Data {
		rng = rng*6364136223846793005 + 1442695040888963407
		full.Data[i] = float32(rng%997)/31 - 16
	}
	bn := layers.NewBatchNorm(c)
	want, err := bn.ComputeStatsMVF(full)
	if err != nil {
		t.Fatal(err)
	}

	const shard = 2
	var slots []any
	for lo := 0; lo < n; lo += shard {
		view := tensor.MustFromSlice(full.Data[lo*c*h*w:(lo+shard)*c*h*w], shard, c, h, w)
		m, err := bn.Moments(view)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, m)
	}
	out, _, err := foldStats(slots)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*layers.BNStats)
	if got.M != want.M {
		t.Fatalf("M = %d, want %d", got.M, want.M)
	}
	for ic := 0; ic < c; ic++ {
		if got.Mean.Data[ic] != want.Mean.Data[ic] {
			t.Errorf("mean[%d] = %v, serial %v (must be bit-identical)", ic, got.Mean.Data[ic], want.Mean.Data[ic])
		}
		if got.Var.Data[ic] != want.Var.Data[ic] {
			t.Errorf("var[%d] = %v, serial %v (must be bit-identical)", ic, got.Var.Data[ic], want.Var.Data[ic])
		}
	}
}

// TestFoldGradsClones: the folded dγ/dβ must be fresh tensors — the
// deposited ones are the replicas' parameter gradients and must survive the
// exchange unmodified.
func TestFoldGradsClones(t *testing.T) {
	a := gradPayload{dgamma: tensor.MustFromSlice([]float32{1, 2}, 2), dbeta: tensor.MustFromSlice([]float32{3, 4}, 2)}
	b := gradPayload{dgamma: tensor.MustFromSlice([]float32{10, 20}, 2), dbeta: tensor.MustFromSlice([]float32{30, 40}, 2)}
	out, bytes, err := foldGrads([]any{a, b})
	if err != nil {
		t.Fatal(err)
	}
	g := out.(gradPayload)
	if g.dgamma.Data[0] != 11 || g.dgamma.Data[1] != 22 || g.dbeta.Data[0] != 33 || g.dbeta.Data[1] != 44 {
		t.Errorf("fold = %v / %v, want {11 22} / {33 44}", g.dgamma.Data, g.dbeta.Data)
	}
	if a.dgamma.Data[0] != 1 || b.dgamma.Data[0] != 10 || a.dbeta.Data[1] != 4 {
		t.Error("fold mutated a deposited gradient")
	}
	if g.dgamma == a.dgamma || g.dgamma == b.dgamma {
		t.Error("folded tensor aliases a deposit")
	}
	// 2 replicas × (2+2) floats × 4 bytes.
	if bytes != 32 {
		t.Errorf("bytes = %d, want 32", bytes)
	}
}

// TestExchangerRendezvous: n concurrent parties each deposit their index;
// everyone sees the same replica-order fold regardless of arrival order.
func TestExchangerRendezvous(t *testing.T) {
	const n = 4
	x := newExchanger(n)
	for round := 0; round < 3; round++ {
		outs := make([]any, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				outs[r], errs[r] = x.rendezvous(r, fmt.Sprintf("k%d", round), r, func(slots []any) (any, int64, error) {
					order := make([]int, len(slots))
					for i, s := range slots {
						order[i] = s.(int)
					}
					return order, 1, nil
				})
			}(r)
		}
		wg.Wait()
		for r := 0; r < n; r++ {
			if errs[r] != nil {
				t.Fatalf("round %d replica %d: %v", round, r, errs[r])
			}
			order := outs[r].([]int)
			for i, v := range order {
				if v != i {
					t.Fatalf("round %d replica %d saw fold order %v", round, r, order)
				}
			}
		}
	}
	if got := x.drainBytes(); got != 3 {
		t.Errorf("drainBytes = %d, want 3", got)
	}
	if got := x.drainBytes(); got != 0 {
		t.Errorf("second drainBytes = %d, want 0", got)
	}
}

// TestExchangerAbortReleasesWaiters: a replica that dies before arriving must
// not strand the others — abort poisons the round and wakes them with the
// error, and later rendezvous fail fast.
func TestExchangerAbortReleasesWaiters(t *testing.T) {
	x := newExchanger(3)
	boom := errors.New("boom")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = x.rendezvous(r, "stats:1", nil, func([]any) (any, int64, error) { return nil, 0, nil })
		}(r)
	}
	// Replica 2 never arrives; it aborts instead. Looping until arrived > 0
	// is unnecessary: abort is correct whether or not the waiters got there
	// first, and the waiters block until someone closes the round.
	x.abort(boom)
	wg.Wait()
	for r, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("replica %d: err = %v, want boom", r, err)
		}
	}
	if _, err := x.rendezvous(2, "stats:1", nil, nil); !errors.Is(err, boom) {
		t.Errorf("post-abort rendezvous err = %v, want boom", err)
	}
	// reset clears the poison: a full rendezvous succeeds again.
	x.reset()
	errs2 := make([]error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs2[r] = x.rendezvous(r, "k", r, func([]any) (any, int64, error) { return "ok", 0, nil })
		}(r)
	}
	wg.Wait()
	for r, err := range errs2 {
		if err != nil {
			t.Errorf("post-reset replica %d: %v", r, err)
		}
	}
}

// TestExchangerKeyMismatch: replicas presenting different keys means the
// schedules diverged; the exchange must fail, not mismatch payloads.
func TestExchangerKeyMismatch(t *testing.T) {
	x := newExchanger(2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	keys := []string{"stats:1", "stats:2"}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = x.rendezvous(r, keys[r], nil, func([]any) (any, int64, error) { return nil, 0, nil })
		}(r)
	}
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("key mismatch went undetected")
	}
}
