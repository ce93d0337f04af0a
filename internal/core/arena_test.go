package core

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"bnff/internal/graph"
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

// TestArenaInferenceBitIdentical covers the inference path, whose lifetimes
// differ (dropout aliases its input, so per-step releases are skipped and
// buffers recycle at the next pass boundary).
func TestArenaInferenceBitIdentical(t *testing.T) {
	for _, name := range []string{"tiny-cnn", "tiny-densenet"} {
		t.Run(name, func(t *testing.T) {
			g, err := models.Build(name, 4)
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
		})
	}
}

// TestArenaPeakWithinPredicted ties the measured footprint to the analytical
// one: the arena's high-water mark on a real training iteration must land
// within 2× of memplan's predicted activation peak (the arena additionally
// carries layer scratch, statistics vectors, and argmax indices the
// analytical plan does not model). After three steps every planned buffer
// must have taken its slab slot (arena_place_misses reads 0), and the
// storage the arena holds — the slab plus the best-fit chunks for everything
// else — must stay within 1.10× (baseline, RCF) or 1.20× (BNFF, whose
// windows carry more workspace next to fewer maps) of the larger of the
// planned and the measured peak. On bn-heavy the two peaks agree; on
// tiny-densenet's BNFF graph a statistics producer's sub-BN1' input gradient
// is live beside the fused partner's dv that the plan does not count, and
// the measured peak sits 1.22× above the plan. It runs on tiny-densenet and
// on the benchmark's bn-heavy shape at its batch, whose wide concats the
// executor keeps as views.
func TestArenaPeakWithinPredicted(t *testing.T) {
	bnHeavy := models.DenseNetConfig{
		Name: "bn-heavy", Batch: 32, InputSize: 32, Classes: 10,
		GrowthRate: 4, Bottleneck: 1, BlockSizes: []int{6, 6},
		InitChannels: 8, StemKernel: 3, Compression: 0.5,
	}
	shapes := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"tiny-densenet", func() (*graph.Graph, error) { return models.TinyDenseNet(16) }},
		{"bn-heavy", func() (*graph.Graph, error) { return models.DenseNet(bnHeavy) }},
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
	if limit := bound * float64(max(predicted, measured)); float64(held) > limit {
		t.Errorf("arena holds %d bytes after three steps, more than %.2fx the peak %d", held, bound, max(predicted, measured))
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
