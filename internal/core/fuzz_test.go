package core

import (
	"fmt"
	"testing"

	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// randomGraph builds a random but valid CNN: a chain of conv/BN/ReLU/pool
// segments with occasional concat and element-wise-sum joins, ending in a
// classifier head. It deliberately produces every adjacency the passes must
// reason about — BN after conv, BN after concat, BN feeding non-ReLU
// consumers, ReLU feeding pool, fan-out feature maps — so the fuzz test
// exercises corners the hand-built models miss.
func randomGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	rng := tensor.NewRNG(seed)
	g := graph.New(fmt.Sprintf("fuzz-%d", seed))
	cur := g.Input("input", tensor.Shape{2, 3, 8, 8})
	channels, size := 3, 8
	var stash *graph.Node // an earlier map for concat joins
	id := 0
	name := func(prefix string) string {
		id++
		return fmt.Sprintf("%s%d", prefix, id)
	}

	segments := 4 + rng.Intn(5)
	for i := 0; i < segments; i++ {
		switch rng.Intn(6) {
		case 0, 1: // conv (possibly followed by BN and/or ReLU below)
			out := 2 + rng.Intn(6)
			k := 1 + 2*rng.Intn(2) // 1 or 3
			c, err := g.Conv(name("conv"), cur, layers.NewConv2D(channels, out, k, 1, k/2), i)
			if err != nil {
				t.Fatal(err)
			}
			cur, channels = c, out
		case 2: // bn
			b, err := g.BN(name("bn"), cur, i)
			if err != nil {
				t.Fatal(err)
			}
			cur = b
		case 3: // relu
			cur = g.ReLU(name("relu"), cur, i)
		case 4: // pool, if still large enough
			if size >= 4 {
				p, err := g.Pool(name("pool"), cur, layers.Pool2D{Kernel: 2, Stride: 2, Max: rng.Intn(2) == 0}, i)
				if err != nil {
					t.Fatal(err)
				}
				cur, size = p, size/2
			}
		case 5: // join with the stash if compatible, else stash this map
			if stash != nil && stash.OutShape.Equal(cur.OutShape) && rng.Intn(2) == 0 {
				e, err := g.EWS(name("ews"), cur, stash, i)
				if err != nil {
					t.Fatal(err)
				}
				cur, stash = e, nil
			} else if stash != nil && stash.OutShape[2] == size && rng.Intn(2) == 0 {
				c, err := g.Concat(name("cat"), i, cur, stash)
				if err != nil {
					t.Fatal(err)
				}
				cur, channels, stash = c, c.OutShape[1], nil
			} else {
				stash = cur
			}
		}
	}

	gap, err := g.GlobalPool("gap", cur, -1)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := g.FC("fc", gap, layers.FC{In: channels, Out: 3}, -1)
	if err != nil {
		t.Fatal(err)
	}
	g.Output = fc
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFuzzRestructureEquivalence restructures dozens of random graphs under
// every scenario and checks structural validity plus numeric forward and
// backward equivalence against the baseline.
func TestFuzzRestructureEquivalence(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		baseG := randomGraph(t, seed)
		baseExec, err := NewExecutor(baseG, WithSeed(seed+100))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in := tensor.New(2, 3, 8, 8)
		tensor.NewRNG(seed+200).FillNormal(in, 0, 1)
		baseOut, err := baseExec.Forward(in)
		if err != nil {
			t.Fatalf("seed %d baseline forward: %v", seed, err)
		}
		dOut := tensor.New(baseOut.Shape()...)
		tensor.NewRNG(seed+300).FillUniform(dOut, -1, 1)
		baseGrads, err := baseExec.Backward(dOut)
		if err != nil {
			t.Fatalf("seed %d baseline backward: %v", seed, err)
		}

		for _, s := range Scenarios()[1:] {
			g := randomGraph(t, seed) // same seed → identical structure
			if err := Restructure(g, s.Options()); err != nil {
				t.Fatalf("seed %d %v: %v", seed, s, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d %v post-validate: %v", seed, s, err)
			}
			ex, err := NewExecutor(g, WithSeed(1))
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, s, err)
			}
			if err := ex.CopyParamsFrom(baseExec); err != nil {
				t.Fatalf("seed %d %v: %v", seed, s, err)
			}
			out, err := ex.Forward(in)
			if err != nil {
				t.Fatalf("seed %d %v forward: %v", seed, s, err)
			}
			if !tensor.AllClose(baseOut, out, 1e-3, 1e-3) {
				d, _ := tensor.MaxAbsDiff(baseOut, out)
				t.Errorf("seed %d %v: logits differ by %v", seed, s, d)
			}
			grads, err := ex.Backward(dOut)
			if err != nil {
				t.Fatalf("seed %d %v backward: %v", seed, s, err)
			}
			for pname, bg := range baseGrads {
				gg := grads[pname]
				if gg == nil {
					t.Fatalf("seed %d %v: missing gradient %q", seed, s, pname)
				}
				if !tensor.AllClose(bg, gg, 2e-2, 2e-3) {
					d, _ := tensor.MaxAbsDiff(bg, gg)
					t.Errorf("seed %d %v: gradient %q differs by %v", seed, s, pname, d)
				}
			}
		}
	}
}

// TestFuzzSweepNeverIncreases: no restructuring scenario may increase total
// feature-map traffic on any random graph.
func TestFuzzSweepNeverIncreases(t *testing.T) {
	total := func(g *graph.Graph) int64 {
		costs, err := g.TrainingCosts()
		if err != nil {
			t.Fatal(err)
		}
		var b int64
		for _, c := range costs {
			for _, sw := range c.Sweeps {
				if sw.Kind == graph.SweepFeatureMap {
					b += sw.Bytes
				}
			}
		}
		return b
	}
	for seed := uint64(0); seed < 40; seed++ {
		base := total(randomGraph(t, seed))
		for _, s := range Scenarios()[1:] {
			g := randomGraph(t, seed)
			if err := Restructure(g, s.Options()); err != nil {
				t.Fatal(err)
			}
			if got := total(g); got > base {
				t.Errorf("seed %d %v increased traffic: %d > %d", seed, s, got, base)
			}
		}
	}
}
