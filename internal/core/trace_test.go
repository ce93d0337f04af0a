package core

import (
	"reflect"
	"testing"

	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/models"
	"bnff/internal/obs"
	"bnff/internal/tensor"
)

func tracedSetup(t testing.TB, tr *obs.Tracer, workers int) (*Executor, *tensor.Tensor) {
	t.Helper()
	g, err := models.TinyCNN(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithSeed(7), WithWorkers(workers)}
	if tr != nil {
		opts = append(opts, WithTracer(tr))
	}
	exec, err := NewExecutor(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(g.Live()[0].OutShape...)
	tensor.NewRNG(3).FillUniform(x, -1, 1)
	return exec, x
}

func TestNilTracerSpanPathAllocsNothing(t *testing.T) {
	exec, _ := tracedSetup(t, nil, 1)
	n := exec.G.Live()[1] // any non-input node
	allocs := testing.AllocsPerRun(1000, func() {
		start := exec.tracer.Begin()
		exec.endNodeSpan(n, "fwd", start)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f per node, want 0", allocs)
	}
	if exec.Tracer() != nil {
		t.Fatal("Tracer() should be nil when no tracer attached")
	}
}

func TestForwardBackwardRecordSpans(t *testing.T) {
	tr := obs.NewTracer(obs.StepClock(10))
	exec, x := tracedSetup(t, tr, 1)
	y, err := exec.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	dy := tensor.New(y.Shape()...)
	dy.Fill(1)
	if _, err := exec.Backward(dy); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	var fwd, bwd, pass int
	for _, s := range spans {
		switch {
		case s.Cat == obs.CatPass:
			pass++
			if s.TID != obs.TIDPass {
				t.Fatalf("pass span tid = %d, want %d", s.TID, obs.TIDPass)
			}
		case s.Dir == "fwd":
			fwd++
		case s.Dir == "bwd":
			bwd++
		}
	}
	if pass != 2 {
		t.Fatalf("pass envelopes = %d, want 2", pass)
	}
	live := len(exec.G.Live()) - 1 // input records no span
	if fwd != live || bwd != live {
		t.Fatalf("fwd/bwd spans = %d/%d, want %d each", fwd, bwd, live)
	}
	// Node spans carry their layer class as category and the memsim track.
	for _, s := range spans {
		if obs.IsStructural(s.Cat) {
			continue
		}
		found := false
		for _, n := range exec.G.Live() {
			if n.Name == s.Name && s.Cat == n.Class().String() && s.TID == int(n.Class())+1 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("span %+v matches no live node's class/track", s)
		}
	}
}

func TestTraceDeterministicUnderStepClockWithWorkers(t *testing.T) {
	record := func() []obs.Span {
		tr := obs.NewTracer(obs.StepClock(1))
		exec, x := tracedSetup(t, tr, 4)
		y, err := exec.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		dy := tensor.New(y.Shape()...)
		dy.Fill(1)
		if _, err := exec.Backward(dy); err != nil {
			t.Fatal(err)
		}
		return tr.Spans()
	}
	a, b := record(), record()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical traced runs with 4 workers diverge")
	}
	// Pool dispatch/drain spans must be present with 4 workers.
	var pool int
	for _, s := range a {
		if s.Cat == obs.CatPool {
			pool++
		}
	}
	if pool == 0 {
		t.Fatal("no pool spans recorded with 4 workers")
	}
}

func TestSetTracerAndSetWorkersRethreadPool(t *testing.T) {
	exec, x := tracedSetup(t, nil, 4)
	tr := obs.NewTracer(obs.StepClock(1))
	exec.SetTracer(tr)
	exec.SetWorkers(4) // must keep the tracer threaded through the new pool
	if _, err := exec.Forward(x); err != nil {
		t.Fatal(err)
	}
	var pool bool
	for _, s := range tr.Spans() {
		if s.Cat == obs.CatPool {
			pool = true
			break
		}
	}
	if !pool {
		t.Fatal("pool spans lost after SetTracer + SetWorkers")
	}
	exec.SetTracer(nil)
	tr.Reset()
	if _, err := exec.Forward(x); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatal("detached tracer still records")
	}
}

func TestBreakdownFromMeasuredSpans(t *testing.T) {
	tr := obs.NewTracer(obs.StepClock(100))
	exec, x := tracedSetup(t, tr, 1)
	if _, err := exec.Forward(x); err != nil {
		t.Fatal(err)
	}
	b := obs.LayerBreakdown(tr.Spans())
	if b.TotalNs == 0 {
		t.Fatal("empty breakdown from a traced forward pass")
	}
	if b.ShareOf(graph.ClassConv.String()) == 0 || b.ShareOf(graph.ClassBN.String()) == 0 {
		t.Fatalf("breakdown missing CONV/FC or BN rows: %+v", b.Rows)
	}
	if b.BwdNs != 0 {
		t.Fatal("forward-only trace has backward time")
	}
}

func benchForward(b *testing.B, tr *obs.Tracer) {
	exec, x := tracedSetup(b, tr, 1)
	if _, err := exec.Forward(x); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Forward(x); err != nil {
			b.Fatal(err)
		}
		tr.Reset()
	}
}

// The enabled/disabled pair quantifies tracing overhead on the executor hot
// path; the disabled side is the default every non-profiling run pays.
func BenchmarkForwardTracerDisabled(b *testing.B) { benchForward(b, nil) }
func BenchmarkForwardTracerEnabled(b *testing.B) {
	benchForward(b, obs.NewTracer(obs.StepClock(1)))
}

// Under BNFF a conv-like node's StatsOut epilogue runs inside its forward
// window whether the executor closes the moments itself or a StatsHook does:
// the node makes exactly one pool dispatch either way, and a hook closing the
// window's moments on the heap, as sync-BN does, leaves the same statistics
// bit for bit.
func TestStatsEpilogueRunsInsideConvWindow(t *testing.T) {
	run := func(hook bool) (*Executor, map[string]int) {
		g, err := models.TinyDenseNet(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := Restructure(g, BNFF.Options()); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(obs.StepClock(1))
		exec, err := NewExecutor(g, WithSeed(1), WithWorkers(2), WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		if hook {
			exec.SetBNHooks(func(_ *graph.Node, attr *graph.BNAttr, m layers.Moments) (*layers.BNStats, error) {
				st := &layers.BNStats{Mean: tensor.New(attr.Channels), Var: tensor.New(attr.Channels)}
				return st, layers.NewBatchNorm(attr.Channels).Close(m, st)
			}, nil)
		}
		in := tensor.New(g.Nodes[0].OutShape...)
		tensor.NewRNG(2).FillNormal(in, 0, 1)
		if _, err := exec.Forward(in); err != nil {
			t.Fatal(err)
		}
		// A node's pool spans are recorded before the node's own span ends.
		dispatches := make(map[string]int)
		pending := 0
		for _, s := range tr.Spans() {
			switch {
			case s.Name == "pool.dispatch":
				pending++
			case s.Dir == "fwd" && s.Cat != obs.CatPass:
				dispatches[s.Name], pending = pending, 0
			}
		}
		return exec, dispatches
	}

	exec, own := run(false)
	hooked, viaHook := run(true)
	var epilogues int
	for _, n := range exec.G.Live() {
		if !n.Kind.IsConvLike() || n.StatsOut == nil {
			continue
		}
		epilogues++
		if own[n.Name] != 1 || viaHook[n.Name] != 1 {
			t.Errorf("%s (%v): %d pool dispatches, %d with a hook; want 1, 1", n.Name, n.Kind, own[n.Name], viaHook[n.Name])
		}
		got, want := exec.stats[n.ID], hooked.stats[n.ID]
		if got == nil || want == nil || got.M != want.M || !reflect.DeepEqual(got.Mean.Data, want.Mean.Data) || !reflect.DeepEqual(got.Var.Data, want.Var.Data) {
			t.Errorf("%s: statistics the hook closed differ from the executor's own close", n.Name)
		}
	}
	if epilogues == 0 {
		t.Fatal("BNFF tiny-densenet has no conv-like node with a statistics epilogue")
	}
}
