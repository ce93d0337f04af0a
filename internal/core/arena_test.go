package core

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/memplan"
	"bnff/internal/models"
	"bnff/internal/obs"
	"bnff/internal/tensor"
)

func bitEqual(a, b *tensor.Tensor) bool {
	if !a.Shape().Equal(b.Shape()) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// heapReference builds an executor and clears its arena, so every buffer it
// requests is a plain allocation (the nil *tensor.Arena contract) and every
// release a no-op: the reference the arena tests compare against.
func heapReference(tb testing.TB, g *graph.Graph, opts ...Option) *Executor {
	tb.Helper()
	e, err := NewExecutor(g, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	e.alloc = nil
	return e
}

// TestArenaBitIdentical is the arena's correctness contract: every forward
// output and every parameter gradient is bit-identical to the same executor
// running on plain allocation — across the tiny model registry, for both the
// baseline and fully restructured graphs, serial and pooled, and across
// repeated iterations (the second iteration is the one that actually
// exercises recycled buffers). It also asserts the leak invariant: after a
// complete forward+backward, every arena buffer has been returned; and that
// every planned buffer took its slab slot.
func TestArenaBitIdentical(t *testing.T) {
	const iters = 3
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			if !strings.HasPrefix(name, "tiny-") {
				t.Skipf("%s is analytical-only; numeric equivalence runs on tiny-* models", name)
			}
			for _, scen := range []Scenario{Baseline, BNFF} {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%v/workers=%d", scen, workers), func(t *testing.T) {
						g, err := models.Build(name, 6)
						if err != nil {
							t.Fatal(err)
						}
						if err := Restructure(g, scen.Options()); err != nil {
							t.Fatal(err)
						}
						legacy := heapReference(t, g, WithSeed(42), WithWorkers(workers))
						arena, err := NewExecutor(g, WithSeed(42), WithWorkers(workers))
						if err != nil {
							t.Fatal(err)
						}
						in := tensor.New(g.Nodes[0].OutShape...)
						tensor.NewRNG(3).FillNormal(in, 0, 1)
						for it := 0; it < iters; it++ {
							outL, err := legacy.Forward(in)
							if err != nil {
								t.Fatal(err)
							}
							outA, err := arena.Forward(in)
							if err != nil {
								t.Fatal(err)
							}
							if !bitEqual(outL, outA) {
								t.Fatalf("iteration %d: arena forward output differs", it)
							}
							dOut := tensor.New(outL.Shape()...)
							tensor.NewRNG(5).FillUniform(dOut, -1, 1)
							gradsL, err := legacy.Backward(dOut)
							if err != nil {
								t.Fatal(err)
							}
							gradsA, err := arena.Backward(dOut)
							if err != nil {
								t.Fatal(err)
							}
							if len(gradsL) != len(gradsA) {
								t.Fatalf("iteration %d: gradient maps differ in size", it)
							}
							for k, gl := range gradsL {
								ga := gradsA[k]
								if ga == nil {
									t.Fatalf("iteration %d: arena missing gradient %q", it, k)
								}
								if !bitEqual(gl, ga) {
									t.Fatalf("iteration %d: gradient %q differs", it, k)
								}
							}
							if inUse := arena.ArenaStats().BytesInUse; inUse != 0 {
								t.Fatalf("iteration %d: %d bytes still checked out after backward (leak)", it, inUse)
							}
						}
						s := arena.ArenaStats()
						if s.Hits == 0 {
							t.Error("repeated iterations never hit the free lists")
						}
						if s.PeakBytes == 0 || s.Misses == 0 || s.SlabBytes == 0 {
							t.Errorf("implausible arena stats: %+v", s)
						}
						if s.PlaceMisses != 0 {
							t.Errorf("%d planned buffers missed their slab slot", s.PlaceMisses)
						}
					})
				}
			}
		})
	}
}

// TestArenaInferenceBitIdentical covers the inference path, whose intervals
// end at each value's last forward reader. A dropout is the identity there
// and aliases its input, which must stay live through the dropout's readers:
// the in-test graph feeds one into a conv and an EWS.
func TestArenaInferenceBitIdentical(t *testing.T) {
	for _, name := range []string{"tiny-cnn", "tiny-densenet", "dropout"} {
		t.Run(name, func(t *testing.T) {
			build := func() (*graph.Graph, error) { return models.Build(name, 4) }
			if name == "dropout" {
				build = dropoutGraph
			}
			g, err := build()
			if err != nil {
				t.Fatal(err)
			}
			legacy := heapReference(t, g, WithSeed(9), WithInference())
			arena, err := NewExecutor(g, WithSeed(9), WithInference())
			if err != nil {
				t.Fatal(err)
			}
			in := tensor.New(g.Nodes[0].OutShape...)
			tensor.NewRNG(11).FillNormal(in, 0, 1)
			for it := 0; it < 3; it++ {
				outL, err := legacy.Forward(in)
				if err != nil {
					t.Fatal(err)
				}
				outA, err := arena.Forward(in)
				if err != nil {
					t.Fatal(err)
				}
				if !bitEqual(outL, outA) {
					t.Fatalf("iteration %d: inference output differs from plain allocation", it)
				}
			}
			if s := arena.ArenaStats(); s.PlaceMisses != 0 {
				t.Errorf("%d place misses", s.PlaceMisses)
			}
		})
	}
}

// dropoutGraph is input → conv → ReLU → dropout, whose output a conv and an
// EWS of the two read, → GAP → FC.
func dropoutGraph() (*graph.Graph, error) {
	g := graph.New("dropout")
	in := g.Input("in", tensor.Shape{4, 3, 8, 8})
	c1, err := g.Conv("c1", in, layers.NewConv2D(3, 4, 3, 1, 1), -1)
	if err != nil {
		return nil, err
	}
	d, err := g.Dropout("drop", g.ReLU("r1", c1, -1), 0.5, -1)
	if err != nil {
		return nil, err
	}
	c2, err := g.Conv("c2", d, layers.NewConv2D(4, 4, 3, 1, 1), -1)
	if err != nil {
		return nil, err
	}
	sum, err := g.EWS("sum", c2, d, -1)
	if err != nil {
		return nil, err
	}
	gap, err := g.GlobalPool("gap", sum, -1)
	if err != nil {
		return nil, err
	}
	if g.Output, err = g.FC("fc", gap, layers.FC{In: 4, Out: 3}, -1); err != nil {
		return nil, err
	}
	return g, g.Validate()
}

// bnHeavy builds the benchmark's bn-heavy DenseNet at a batch: lean convs
// over wide concats, which the executor keeps as views.
func bnHeavy(batch int) (*graph.Graph, error) {
	return models.DenseNet(models.DenseNetConfig{
		Name: "bn-heavy", Batch: batch, InputSize: 32, Classes: 10,
		GrowthRate: 4, Bottleneck: 1, BlockSizes: []int{6, 6},
		InitChannels: 8, StemKernel: 3, Compression: 0.5,
	})
}

// TestArenaPeakWithinPredicted ties the measured footprint to the analytical
// one: the arena's high-water mark on a real training iteration must land
// within 2× of memplan's predicted activation peak (the arena additionally
// carries layer scratch and statistics vectors the analytical plan does not
// model). After three steps every planned buffer must have taken its slab
// slot (arena_place_misses reads 0), and the storage the arena holds — the slab, whose gaps also serve each step's
// workspace, plus chunks beside it for what outlives a step or finds no gap —
// must stay within 1.10× (baseline, RCF) or 1.20× (BNFF, whose windows carry
// more workspace next to fewer maps) of the planned peak. It runs on
// tiny-densenet and on the benchmark's bn-heavy shape at its batch.
func TestArenaPeakWithinPredicted(t *testing.T) {
	shapes := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"tiny-densenet", func() (*graph.Graph, error) { return models.TinyDenseNet(16) }},
		{"bn-heavy", func() (*graph.Graph, error) { return bnHeavy(32) }},
	}
	for _, tc := range []struct {
		scen  Scenario
		bound float64
	}{{Baseline, 1.10}, {RCF, 1.10}, {BNFF, 1.20}} {
		t.Run(tc.scen.String(), func(t *testing.T) {
			for _, shape := range shapes {
				t.Run(shape.name, func(t *testing.T) { checkArenaPeak(t, shape.build, tc.scen, tc.bound) })
			}
		})
	}
}

// checkArenaPeak is TestArenaPeakWithinPredicted on one graph and scenario.
func checkArenaPeak(t *testing.T, build func() (*graph.Graph, error), scen Scenario, bound float64) {
	g, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if err := Restructure(g, scen.Options()); err != nil {
		t.Fatal(err)
	}
	plan, err := memplan.PlanTraining(g)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	exec, err := NewExecutor(g, WithSeed(1), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(g.Nodes[0].OutShape...)
	tensor.NewRNG(2).FillNormal(in, 0, 1)
	for it := 0; it < 3; it++ {
		out, err := exec.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		dOut := tensor.New(out.Shape()...)
		dOut.Fill(1)
		if _, err := exec.Backward(dOut); err != nil {
			t.Fatal(err)
		}
	}
	st := exec.ArenaStats()
	measured, held := st.PeakBytes, st.HeldBytes
	predicted := plan.PeakBytes
	t.Logf("%s: measured arena peak %.2f MB, held %.2f MB (slab %.2f MB), memplan predicted %.2f MB (%.2fx, held %.2fx)",
		scen, float64(measured)/1e6, float64(held)/1e6, float64(st.SlabBytes)/1e6, float64(predicted)/1e6,
		float64(measured)/float64(predicted), float64(held)/float64(predicted))
	if measured < predicted {
		t.Errorf("measured peak %d below the modeled lower bound %d — the plan should undercount scratch, not overcount", measured, predicted)
	}
	if measured > 2*predicted {
		t.Errorf("measured peak %d exceeds 2x the predicted %d", measured, predicted)
	}
	if limit := bound * float64(predicted); float64(held) > limit {
		t.Errorf("arena holds %d bytes after three steps, more than %.2fx the planned peak %d", held, bound, predicted)
	}
	if st.SlabBytes < predicted {
		t.Errorf("slab %d bytes below the planned peak %d", st.SlabBytes, predicted)
	}
	for name, want := range map[string]int64{
		"arena_peak_bytes":   measured,
		"arena_held_bytes":   held,
		"arena_slab_bytes":   st.SlabBytes,
		"arena_place_misses": 0,
	} {
		if got := reg.Gauge(name).Value(); got != want {
			t.Errorf("%s gauge = %d, want %d", name, got, want)
		}
	}
	if reg.Gauge("arena_hits").Value() == 0 {
		t.Error("arena_hits gauge never published")
	}
}

// TestArenaHeldIsPlanned checks that every byte an arena holds follows a
// liveness plan, on every tiny model and on the bn-heavy shape.
//
// A training executor after three steps: every planned buffer took its slab
// slot, and beside the slab it holds no more than besideBudget — the
// per-channel statistics that live from forward to backward, and the window
// workspace that finds no gap at the steps where the slab is full.
//
// An inference executor, folded and not, after a pass at batch 1 and one at
// batch 2: it holds at most 1.25× the larger of memplan's forward-only
// planned peak at batch 2 and its own checked-out peak, which lies below
// the sum of the forward values, so a pass released values at their last
// reader. The peak exceeds the plan by the windows' workspace (weights
// packed for the channel lanes, scratch); on bn-heavy that
// is nothing, and the arena holds at most 1.25× the plan itself.
func TestArenaHeldIsPlanned(t *testing.T) {
	type shape struct {
		name  string
		batch int
		build func(int) (*graph.Graph, error)
	}
	var shapes []shape
	for _, name := range models.Names() {
		if strings.HasPrefix(name, "tiny-") {
			shapes = append(shapes, shape{name, 8, func(b int) (*graph.Graph, error) { return models.Build(name, b) }})
		}
	}
	shapes = append(shapes, shape{"bn-heavy", 32, bnHeavy})
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for _, scen := range []Scenario{Baseline, RCF, BNFF} {
				t.Run(scen.String(), func(t *testing.T) {
					g, err := sh.build(sh.batch)
					if err != nil {
						t.Fatal(err)
					}
					if err := Restructure(g, scen.Options()); err != nil {
						t.Fatal(err)
					}
					e, err := NewExecutor(g, WithSeed(1))
					if err != nil {
						t.Fatal(err)
					}
					in := tensor.New(g.Nodes[0].OutShape...)
					tensor.NewRNG(2).FillNormal(in, 0, 1)
					for it := 0; it < 3; it++ {
						out, err := e.Forward(in)
						if err != nil {
							t.Fatal(err)
						}
						dOut := tensor.New(out.Shape()...)
						dOut.Fill(1)
						if _, err := e.Backward(dOut); err != nil {
							t.Fatal(err)
						}
					}
					s := e.ArenaStats()
					budget := besideBudget(g)
					t.Logf("held %d B, slab %d B, beside %d B of a %d B budget", s.HeldBytes, s.SlabBytes, s.HeldBytes-s.SlabBytes, budget)
					if s.PlaceMisses != 0 {
						t.Errorf("%d place misses", s.PlaceMisses)
					}
					if s.HeldBytes-s.SlabBytes > budget {
						t.Errorf("%d bytes beside a %d-byte slab, budget %d", s.HeldBytes-s.SlabBytes, s.SlabBytes, budget)
					}
				})
			}
			for _, fold := range []bool{false, true} {
				t.Run(fmt.Sprintf("inference/fold=%v", fold), func(t *testing.T) {
					g, err := sh.build(2)
					if err != nil {
						t.Fatal(err)
					}
					e, err := NewExecutor(g, WithSeed(1), WithInference())
					if err != nil {
						t.Fatal(err)
					}
					if fold {
						if err := e.FoldBN(); err != nil {
							t.Fatal(err)
						}
					}
					for _, b := range []int{1, 2} {
						in := tensor.New(withBatch(g.Nodes[0].OutShape, b)...)
						tensor.NewRNG(3).FillNormal(in, 0, 1)
						if _, err := e.Forward(in); err != nil {
							t.Fatal(err)
						}
					}
					plan, err := memplan.PlanInference(g)
					if err != nil {
						t.Fatal(err)
					}
					s := e.ArenaStats()
					t.Logf("held %d B, peak %d B, forward-only plan %d B, forward values %d B",
						s.HeldBytes, s.PeakBytes, plan.PeakBytes, plan.TotalAllocated())
					if limit := 1.25 * float64(max(plan.PeakBytes, s.PeakBytes)); float64(s.HeldBytes) > limit {
						t.Errorf("holds %d bytes, more than 1.25x the peak %d", s.HeldBytes, max(plan.PeakBytes, s.PeakBytes))
					}
					if s.PeakBytes >= plan.TotalAllocated() {
						t.Errorf("peak %d bytes reaches the %d bytes of every forward value: nothing was released", s.PeakBytes, plan.TotalAllocated())
					}
					if sh.name == "bn-heavy" && float64(s.HeldBytes) > 1.25*float64(plan.PeakBytes) {
						t.Errorf("holds %d bytes, more than 1.25x the planned %d", s.HeldBytes, plan.PeakBytes)
					}
				})
			}
		})
	}
}

// besideBudget bounds what a training arena over g may hold beside its slab
// after a few steps: 8 bytes per statistics channel (mean and variance, live
// from forward to backward), and twice the largest one-worker backward
// window's input and x̂ tiles and scratch, the workspace that finds no gap
// where the slab is full (twice, for best fit's second chunk when a larger
// request follows).
func besideBudget(g *graph.Graph) int64 {
	var stats, window int64
	for _, n := range g.Live() {
		switch {
		case n.Kind == graph.OpBN || n.Kind == graph.OpSubBN1:
			stats += 8 * int64(n.BN.Channels)
		case n.StatsOut != nil:
			stats += 8 * int64(n.StatsOut.Channels)
		}
		if n.Conv != nil {
			in := n.Inputs[0].OutShape
			gm := n.Conv.SampleGeom(in[2], in[3])
			window = max(window, 4*int64(2*gm.Cin*gm.H*gm.W+gm.SampleScratch()))
		}
	}
	return stats + 2*window
}

// TestArenaForwardAllocBudget is the allocation-regression guard: the
// steady-state per-step heap allocation count of a tiny-densenet forward
// must stay at or below the committed budget
// (testdata/arena_alloc_budget.txt), and at least 10x below the same
// executor on plain allocation. CI runs this in the alloc-guard job; raising
// the budget is a reviewed change to the committed file, not a silent drift.
func TestArenaForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("testing.AllocsPerRun is unreliable under the race detector")
	}
	raw, err := os.ReadFile("testdata/arena_alloc_budget.txt")
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		t.Fatalf("parsing committed budget: %v", err)
	}
	allocsPerForward := func(heap bool) float64 {
		exec, in := arenaBenchExecutor(t, heap)
		if _, err := exec.Forward(in); err != nil { // warm the free lists
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := exec.Forward(in); err != nil {
				t.Fatal(err)
			}
		})
	}
	on, off := allocsPerForward(false), allocsPerForward(true)
	t.Logf("tiny-densenet forward allocs/step: arena %.0f, plain allocation %.0f (%.1fx), budget %.0f",
		on, off, off/on, budget)
	if on > budget {
		t.Errorf("forward allocates %.0f per step, budget is %.0f (testdata/arena_alloc_budget.txt)", on, budget)
	}
	if off < 10*on {
		t.Errorf("arena reduces allocs only %.1fx (arena=%.0f plain=%.0f), want >= 10x", off/on, on, off)
	}
}

// arenaBenchExecutor builds the tiny-densenet BNFF executor at one worker
// that the allocation guard and the On/Off benchmark pair share; heap selects
// the plain-allocation reference.
func arenaBenchExecutor(tb testing.TB, heap bool) (*Executor, *tensor.Tensor) {
	tb.Helper()
	g, err := models.TinyDenseNet(4)
	if err != nil {
		tb.Fatal(err)
	}
	if err := Restructure(g, BNFF.Options()); err != nil {
		tb.Fatal(err)
	}
	exec, err := NewExecutor(g, WithSeed(1), WithWorkers(1))
	if err != nil {
		tb.Fatal(err)
	}
	if heap {
		exec.alloc = nil
	}
	in := tensor.New(g.Nodes[0].OutShape...)
	tensor.NewRNG(2).FillNormal(in, 0, 1)
	return exec, in
}

// benchArenaStep is the shared body of the arena on/off benchmark pair:
// tiny-densenet BNFF at one worker, forward only or a full training step.
// The pair quantifies the tentpole claim — steady-state per-step heap
// allocations from the arena versus the same executor on plain allocation
// (compare allocs/op between On and Off).
func benchArenaStep(b *testing.B, backward, heap bool) {
	exec, in := arenaBenchExecutor(b, heap)
	dOut := tensor.New(exec.G.Output.OutShape...)
	dOut.Fill(1)
	step := func() {
		if _, err := exec.Forward(in); err != nil {
			b.Fatal(err)
		}
		if backward {
			if _, err := exec.Backward(dOut); err != nil {
				b.Fatal(err)
			}
		}
	}
	step() // warm the free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkForwardArenaOff(b *testing.B)   { benchArenaStep(b, false, true) }
func BenchmarkForwardArenaOn(b *testing.B)    { benchArenaStep(b, false, false) }
func BenchmarkTrainStepArenaOff(b *testing.B) { benchArenaStep(b, true, true) }
func BenchmarkTrainStepArenaOn(b *testing.B)  { benchArenaStep(b, true, false) }

// A plan that releases a value before its last reader must surface as an
// error naming the reader, the value and the schedule step, not as a nil
// dereference inside the layer. The test moves the release of a max pool's
// input to the step before the pool's forward, and then to the step before
// the pool's backward, which re-derives its argmax from that input.
func TestEarlyReleaseIsAnError(t *testing.T) {
	for _, dir := range []string{"forward", "backward"} {
		t.Run(dir, func(t *testing.T) {
			g, err := models.TinyInception(2)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewExecutor(g, WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.arenaPlanFor()
			if err != nil {
				t.Fatal(err)
			}
			live := e.liveNodes()
			var pool *graph.Node
			at := -1
			for i, n := range live {
				if n.Kind == graph.OpPool && n.Pool.Max {
					pool, at = n, i
					break
				}
			}
			if pool == nil {
				t.Fatal("tiny-inception has no max pool")
			}
			v := pool.Inputs[0]
			early := at - 1 // the step before the pool's forward
			if dir == "backward" {
				early = 2*len(live) - 1 - at - 1 // the step before the pool's backward
			}
			moved := false
			for step, rs := range p.releases {
				for i, r := range rs {
					if r.kind == memplan.BufValue && r.id == v.ID {
						p.releases[step] = append(rs[:i:i], rs[i+1:]...)
						p.releases[early] = append(p.releases[early], r)
						moved = true
					}
				}
			}
			if !moved {
				t.Fatalf("no release of %q in the plan", v.Name)
			}
			in := tensor.New(g.Nodes[0].OutShape...)
			tensor.NewRNG(2).FillNormal(in, 0, 1)
			out, err := e.Forward(in)
			if dir == "backward" {
				if err != nil {
					t.Fatal(err)
				}
				dOut := tensor.New(out.Shape()...)
				tensor.NewRNG(3).FillUniform(dOut, -1, 1)
				_, err = e.Backward(dOut)
			}
			want := fmt.Sprintf("node %q reads value %q at schedule step %d after its release", pool.Name, v.Name, early+1)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s error %v, want one containing %q", dir, err, want)
			}
		})
	}
}
