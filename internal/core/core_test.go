package core

import (
	"strings"
	"testing"

	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/models"
	"bnff/internal/tensor"
)

func TestScenarioOptions(t *testing.T) {
	cases := []struct {
		s    Scenario
		want Options
	}{
		{Baseline, Options{}},
		{RCF, Options{RCF: true}},
		{RCFMVF, Options{RCF: true, MVF: true}},
		{BNFF, Options{RCF: true, MVF: true, Fission: true}},
		{BNFFICF, Options{RCF: true, MVF: true, Fission: true, ICF: true}},
	}
	for _, c := range cases {
		if got := c.s.Options(); got != c.want {
			t.Errorf("%v.Options() = %+v, want %+v", c.s, got, c.want)
		}
	}
	if len(Scenarios()) != 5 {
		t.Errorf("Scenarios() has %d entries, want 5", len(Scenarios()))
	}
	if Baseline.String() != "baseline" || BNFFICF.String() != "BNFF+ICF" {
		t.Error("scenario names wrong")
	}
	if Scenario(99).String() == "" {
		t.Error("out-of-range scenario string empty")
	}
}

func TestRestructureRejectsRestructured(t *testing.T) {
	g, err := models.TinyCNN(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restructure(g, BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	if err := Restructure(g, RCF.Options()); err == nil {
		t.Error("Restructure accepted an already-restructured graph")
	}
}

func TestRCFRewrite(t *testing.T) {
	g, err := models.TinyCNN(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restructure(g, RCF.Options()); err != nil {
		t.Fatal(err)
	}
	k := g.CountKinds()
	// Both ReLUs precede CONVs, so both fuse.
	if k[graph.OpReLU] != 0 {
		t.Errorf("RCF left %d standalone ReLUs", k[graph.OpReLU])
	}
	if k[graph.OpReLUConv] != 2 {
		t.Errorf("RCF produced %d ReLUConv nodes, want 2", k[graph.OpReLUConv])
	}
	// BNs stay monolithic without MVF.
	for _, n := range g.Live() {
		if n.Kind == graph.OpBN && n.BN.MVF {
			t.Error("RCF-only scenario set MVF")
		}
	}
}

func TestRCFMVFRewrite(t *testing.T) {
	g, err := models.TinyCNN(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restructure(g, RCFMVF.Options()); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Live() {
		if n.Kind == graph.OpBN && !n.BN.MVF {
			t.Error("RCF+MVF did not set MVF on monolithic BN")
		}
	}
}

func TestBNFFRewriteTinyCNN(t *testing.T) {
	g, err := models.TinyCNN(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restructure(g, BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	k := g.CountKinds()
	// conv1 gains a stats epilogue for bn1; conv2 absorbs bn1+relu1 and
	// gains an epilogue for bn2; conv3 absorbs bn2+relu2.
	if k[graph.OpBN] != 0 {
		t.Errorf("BNFF left %d monolithic BNs", k[graph.OpBN])
	}
	if k[graph.OpBNReLUConv] != 2 {
		t.Errorf("BNFF produced %d BNReLUConv nodes, want 2", k[graph.OpBNReLUConv])
	}
	statsCount := 0
	for _, n := range g.Live() {
		if n.StatsOut != nil {
			statsCount++
		}
	}
	if statsCount != 2 {
		t.Errorf("BNFF decorated %d convs with stats epilogues, want 2", statsCount)
	}
	// The middle conv carries both a prologue and an epilogue — the
	// overlapping-windows case.
	for _, n := range g.Live() {
		if n.Name == "conv2" {
			if n.Kind != graph.OpBNReLUConv || n.StatsOut == nil {
				t.Errorf("conv2 kind=%v statsOut=%v, want BNReLUConv with epilogue", n.Kind, n.StatsOut != nil)
			}
		}
	}
}

func TestBNFFRewriteDenseNet(t *testing.T) {
	g, err := models.TinyDenseNet(2)
	if err != nil {
		t.Fatal(err)
	}
	base := g.CountKinds()
	if err := Restructure(g, BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	k := g.CountKinds()
	if k[graph.OpBN] != 0 {
		t.Errorf("BNFF left %d monolithic BNs in DenseNet", k[graph.OpBN])
	}
	// Every CPL contributes two BNReLUConv (1×1 and 3×3) plus the transition
	// conv; the head BN (followed by GAP) stays as SubBN1+SubBN2.
	wantFused := base[graph.OpBN] - 1 // all but head.bn fuse their normalize side
	if k[graph.OpBNReLUConv] != wantFused {
		t.Errorf("BNReLUConv count = %d, want %d", k[graph.OpBNReLUConv], wantFused)
	}
	if k[graph.OpSubBN2] != 1 {
		t.Errorf("SubBN2 count = %d, want 1 (head)", k[graph.OpSubBN2])
	}
	// Boundary BNs (preceded by Concat or by fan-out feature maps) need
	// standalone SubBN1 nodes; interior BNs (preceded by single-consumer
	// convs) must not.
	for _, n := range g.Live() {
		if n.Kind == graph.OpSubBN1 && n.BN.ICF {
			t.Error("plain BNFF must not set ICF")
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBNFFICFMarksConcatBoundaries(t *testing.T) {
	g, err := models.TinyDenseNet(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restructure(g, BNFFICF.Options()); err != nil {
		t.Fatal(err)
	}
	icf, nonICF := 0, 0
	for _, n := range g.Live() {
		if n.Kind != graph.OpSubBN1 {
			continue
		}
		if n.BN.ICF {
			if n.Inputs[0].Kind != graph.OpConcat {
				t.Errorf("ICF sub-BN1 %q not preceded by Concat", n.Name)
			}
			icf++
		} else {
			nonICF++
		}
	}
	if icf == 0 {
		t.Error("ICF marked no boundary sub-BN1 nodes")
	}
	// cpl2-of-block BNs (preceded by concat) + transition + head are ICF;
	// cpl1-of-block bn1 (preceded by fan-out stem/pool output) is not.
	if nonICF == 0 {
		t.Error("expected some non-Concat boundary sub-BN1 nodes")
	}
}

func TestBNFFRewriteResNet(t *testing.T) {
	g, err := models.TinyResNet(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restructure(g, BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	k := g.CountKinds()
	if k[graph.OpBN] != 0 {
		t.Errorf("BNFF left %d monolithic BNs in ResNet", k[graph.OpBN])
	}
	// BN-before-EWS cannot fuse its normalize side: those become SubBN2.
	// TinyResNet has 2 blocks × (bn3 + downsample.bn) + stem.bn (ReLU→Pool
	// in block? stem has no pool at InitStride 1, ReLU feeds conv1 and the
	// downsample conv — fan-out, so stem.bn's relu cannot fuse either... but
	// the bn itself can still fuse normalize only if ReLU has one consumer.
	if k[graph.OpSubBN2] == 0 {
		t.Error("ResNet BNFF should leave standalone SubBN2 nodes (BN before EWS)")
	}
	if k[graph.OpBNReLUConv] == 0 {
		t.Error("ResNet BNFF should produce fused BNReLUConv nodes")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// buildAll returns a fresh graph per scenario for a builder.
func buildAll(t *testing.T, build func() (*graph.Graph, error)) map[Scenario]*graph.Graph {
	t.Helper()
	out := make(map[Scenario]*graph.Graph)
	for _, s := range Scenarios() {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := Restructure(g, s.Options()); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		out[s] = g
	}
	return out
}

// TestScenarioNumericEquivalence is the paper's correctness claim: the
// restructured execution computes the same function — same logits, same
// parameter gradients — as the baseline, to float32 round-off, on every
// model family and every scenario.
func TestScenarioNumericEquivalence(t *testing.T) {
	builders := map[string]func() (*graph.Graph, error){
		"tiny-cnn":       func() (*graph.Graph, error) { return models.TinyCNN(4, 8, 4) },
		"tiny-densenet":  func() (*graph.Graph, error) { return models.TinyDenseNet(4) },
		"tiny-resnet":    func() (*graph.Graph, error) { return models.TinyResNet(4) },
		"tiny-mobilenet": func() (*graph.Graph, error) { return models.TinyMobileNet(4) },
		"tiny-inception": func() (*graph.Graph, error) { return models.TinyInception(4) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			graphs := buildAll(t, build)
			baseExec, err := NewExecutor(graphs[Baseline], WithSeed(42))
			if err != nil {
				t.Fatal(err)
			}
			in := tensor.New(graphs[Baseline].Nodes[0].OutShape...)
			tensor.NewRNG(7).FillNormal(in, 0, 1)

			baseOut, err := baseExec.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			dOut := tensor.New(baseOut.Shape()...)
			tensor.NewRNG(9).FillUniform(dOut, -1, 1)
			baseGrads, err := baseExec.Backward(dOut)
			if err != nil {
				t.Fatal(err)
			}

			for _, s := range Scenarios()[1:] {
				ex, err := NewExecutor(graphs[s], WithSeed(1)) // different seed: params overwritten below
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if err := ex.CopyParamsFrom(baseExec); err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				out, err := ex.Forward(in)
				if err != nil {
					t.Fatalf("%v forward: %v", s, err)
				}
				if !tensor.AllClose(baseOut, out, 1e-3, 1e-3) {
					d, _ := tensor.MaxAbsDiff(baseOut, out)
					t.Errorf("%v logits differ from baseline by %v", s, d)
				}
				grads, err := ex.Backward(dOut)
				if err != nil {
					t.Fatalf("%v backward: %v", s, err)
				}
				if len(grads) != len(baseGrads) {
					t.Errorf("%v produced %d gradients, baseline %d", s, len(grads), len(baseGrads))
				}
				for pname, bg := range baseGrads {
					gg, ok := grads[pname]
					if !ok {
						t.Errorf("%v missing gradient %q", s, pname)
						continue
					}
					if !tensor.AllClose(bg, gg, 2e-2, 2e-3) {
						d, _ := tensor.MaxAbsDiff(bg, gg)
						t.Errorf("%v gradient %q differs by %v (absmax %v)", s, pname, d, bg.AbsMax())
					}
				}
			}
		})
	}
}

// TestSweepReductionOrdering checks the monotone traffic ordering the paper
// reports: each added optimization removes feature-map sweeps.
func TestSweepReductionOrdering(t *testing.T) {
	for name, build := range map[string]func() (*graph.Graph, error){
		"densenet": func() (*graph.Graph, error) { return models.TinyDenseNet(8) },
		"resnet":   func() (*graph.Graph, error) { return models.TinyResNet(8) },
	} {
		graphs := buildAll(t, build)
		bytes := make(map[Scenario]int64)
		for s, g := range graphs {
			costs, err := g.TrainingCosts()
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for _, c := range costs {
				for _, sw := range c.Sweeps {
					if sw.Kind == graph.SweepFeatureMap {
						total += sw.Bytes
					}
				}
			}
			bytes[s] = total
		}
		order := Scenarios()
		for i := 1; i < len(order); i++ {
			cur, prev := bytes[order[i]], bytes[order[i-1]]
			// ICF only applies to Concat boundaries, so on ResNet it equals
			// BNFF (the paper evaluates ICF on DenseNet only).
			if name == "resnet" && order[i] == BNFFICF {
				if cur != prev {
					t.Errorf("%s: ICF changed traffic (%d vs %d) despite no Concat boundaries", name, cur, prev)
				}
				continue
			}
			if cur >= prev {
				t.Errorf("%s: %v traffic (%d) not below %v traffic (%d)",
					name, order[i], cur, order[i-1], prev)
			}
		}
	}
}

// Restructuring moves computation, not state: the learnable parameter count
// (and the executor's parameter name set) must be invariant across every
// scenario on every model.
func TestParamsInvariantUnderRestructuring(t *testing.T) {
	for _, name := range models.Names() {
		// Executor allocation is only cheap for the tiny variants; the
		// full-size models check the Summarize invariant alone.
		allocExec := strings.HasPrefix(name, "tiny-")
		var baseParams int64
		var baseNames int
		for i, s := range Scenarios() {
			g, err := models.Build(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := Restructure(g, s.Options()); err != nil {
				t.Fatal(err)
			}
			sum, err := g.Summarize()
			if err != nil {
				t.Fatal(err)
			}
			names := 0
			if allocExec {
				ex, err := NewExecutor(g, WithSeed(1))
				if err != nil {
					t.Fatal(err)
				}
				names = len(ex.Params)
			}
			if i == 0 {
				baseParams, baseNames = sum.Params, names
				continue
			}
			if sum.Params != baseParams {
				t.Errorf("%s %v: params %d != baseline %d", name, s, sum.Params, baseParams)
			}
			if allocExec && names != baseNames {
				t.Errorf("%s %v: %d parameter tensors != baseline %d", name, s, names, baseNames)
			}
		}
	}
}

func TestExecutorErrors(t *testing.T) {
	g, err := models.TinyCNN(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Backward(tensor.New(2, 4)); err == nil {
		t.Error("Backward before Forward accepted")
	}
	if _, err := ex.Forward(tensor.New(2, 3, 9, 9)); err == nil {
		t.Error("Forward accepted wrong input shape")
	}
	in := tensor.New(2, 3, 8, 8)
	if _, err := ex.Forward(in); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Backward(tensor.New(2, 5)); err == nil {
		t.Error("Backward accepted wrong dOut shape")
	}

	noOut := graph.New("no-output")
	noOut.Input("in", tensor.Shape{1, 1, 2, 2})
	if _, err := NewExecutor(noOut, WithSeed(1)); err == nil {
		t.Error("NewExecutor accepted graph without output")
	}
}

func TestCopyParamsErrors(t *testing.T) {
	g1, _ := models.TinyCNN(2, 8, 4)
	g2, _ := models.TinyResNet(2)
	e1, err := NewExecutor(g1, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewExecutor(g2, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.CopyParamsFrom(e2); err == nil {
		t.Error("CopyParamsFrom accepted mismatched models")
	}
}

// TestRunningStatsUpdate: running statistics follow the executor's mode. A
// bare training-mode Forward updates every BN's running pair bit for bit as
// BatchNorm.UpdateRunning would over that pass's statistics — whether a
// monolithic BN, a standalone sub-BN1 or a CONV's StatsOut epilogue produced
// them — a Sibling does the same, and an inference Forward leaves the pairs
// untouched.
func TestRunningStatsUpdate(t *testing.T) {
	covered := map[string]bool{}
	for _, scen := range []Scenario{Baseline, BNFF} {
		t.Run(scen.String(), func(t *testing.T) {
			g, err := models.TinyDenseNet(4)
			if err != nil {
				t.Fatal(err)
			}
			if err := Restructure(g, scen.Options()); err != nil {
				t.Fatal(err)
			}
			ex, err := NewExecutor(g, WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			sib, err := ex.Sibling()
			if err != nil {
				t.Fatal(err)
			}
			in := tensor.New(g.Nodes[0].OutShape...)
			tensor.NewRNG(11).FillNormal(in, 1, 2)
			for _, exec := range []*Executor{ex, sib} {
				want := cloneRunning(exec.Running)
				if _, err := exec.Forward(in); err != nil {
					t.Fatal(err)
				}
				updated := 0
				for _, n := range g.Live() {
					attr, producer := n.BN, "OpBN"
					switch {
					case n.StatsOut != nil:
						attr, producer = n.StatsOut, "StatsOut"
					case n.Kind == graph.OpSubBN1:
						producer = "OpSubBN1"
					case n.Kind != graph.OpBN:
						continue
					}
					rm, rv := want[attr.ParamName+".rmean"], want[attr.ParamName+".rvar"]
					if err := layers.NewBatchNorm(attr.Channels).UpdateRunning(rm, rv, exec.stats[n.ID]); err != nil {
						t.Fatalf("%s: %v", n.Name, err)
					}
					covered[producer] = true
					updated++
				}
				if updated == 0 {
					t.Fatal("no statistics producer in the graph")
				}
				for name, w := range want {
					if !bitEqual(exec.Running[name], w) {
						t.Errorf("%s: running %s is not UpdateRunning over the pass's statistics", exec.G.Name, name)
					}
				}
			}

			inf, err := NewExecutor(g, WithInference())
			if err != nil {
				t.Fatal(err)
			}
			for name, r := range ex.Running {
				copy(inf.Running[name].Data, r.Data)
			}
			before := cloneRunning(inf.Running)
			if _, err := inf.Forward(in); err != nil {
				t.Fatal(err)
			}
			for name, r := range before {
				if !bitEqual(inf.Running[name], r) {
					t.Errorf("inference Forward moved running %s", name)
				}
			}
		})
	}
	for _, producer := range []string{"OpBN", "OpSubBN1", "StatsOut"} {
		if !covered[producer] {
			t.Errorf("no %s statistics producer was checked", producer)
		}
	}
}

func cloneRunning(r map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	c := make(map[string]*tensor.Tensor, len(r))
	for name, t := range r {
		c[name] = t.Clone()
	}
	return c
}

// The statistics produced by the fused epilogue must match the monolithic
// BN's statistics on the same activations.
func TestEpilogueStatsMatchMonolithic(t *testing.T) {
	gBase, _ := models.TinyCNN(4, 8, 4)
	gBNFF, _ := models.TinyCNN(4, 8, 4)
	if err := Restructure(gBNFF, BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	eBase, err := NewExecutor(gBase, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eFused, err := NewExecutor(gBNFF, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := eFused.CopyParamsFrom(eBase); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(4, 3, 8, 8)
	tensor.NewRNG(13).FillNormal(in, 0, 1)
	if _, err := eBase.Forward(in); err != nil {
		t.Fatal(err)
	}
	if _, err := eFused.Forward(in); err != nil {
		t.Fatal(err)
	}

	// Locate bn1's stats in both executors: baseline keyed by the BN node,
	// fused keyed by the conv that carries the epilogue.
	var baseStats, fusedStats *layers.BNStats
	for _, n := range gBase.Live() {
		if n.Name == "bn1" {
			baseStats = eBase.stats[n.ID]
		}
	}
	for _, n := range gBNFF.Live() {
		if n.StatsOut != nil && n.StatsOut.ParamName == "bn1" {
			fusedStats = eFused.stats[n.ID]
		}
	}
	if baseStats == nil || fusedStats == nil {
		t.Fatal("could not locate bn1 statistics")
	}
	if !tensor.AllClose(baseStats.Mean, fusedStats.Mean, 1e-4, 1e-5) {
		t.Error("fused epilogue mean diverges from monolithic BN")
	}
	if !tensor.AllClose(baseStats.Var, fusedStats.Var, 1e-3, 1e-4) {
		t.Error("fused epilogue variance diverges from monolithic BN")
	}
}

// stemNet is tiny-cnn's front over an 8×8 input — stem, BN, ReLU, a second
// convolution, the head. With copied the stem reads the input through a
// one-input concat, a copy whose gradient the executor must compute, so the
// stem computes dx; reading the input itself, it takes dW alone.
func stemNet(t *testing.T, copied bool) *graph.Graph {
	t.Helper()
	g := graph.New("stem")
	src := g.Input("input", tensor.Shape{4, 3, 8, 8})
	var err error
	if copied {
		if src, err = g.Concat("copy", -1, src); err != nil {
			t.Fatal(err)
		}
	}
	c1, err := g.Conv("conv1", src, layers.NewConv2D(3, 8, 3, 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := g.BN("bn1", c1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := g.Conv("conv2", g.ReLU("relu1", b1, 0), layers.NewConv2D(8, 16, 3, 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := g.GlobalPool("gap", c2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Output, err = g.FC("fc", gap, layers.FC{In: 16, Out: 4}, -1); err != nil {
		t.Fatal(err)
	}
	return g
}

// A stem that reads the graph input skips the input gradient nobody reads:
// every parameter gradient must be bit-equal to the same network's whose stem
// reads a copy of the input and so computes dx, on the plain stem and on the
// statistics-producing stem BNFF makes of it, serial and pooled; and nothing
// stays checked out of the arena.
func TestStemBackwardSkipsInputGradient(t *testing.T) {
	for _, scen := range []Scenario{Baseline, RCF, BNFF} {
		for _, workers := range []int{1, 4} {
			var execs [2]*Executor
			for i, copied := range []bool{false, true} {
				g := stemNet(t, copied)
				if err := Restructure(g, scen.Options()); err != nil {
					t.Fatal(err)
				}
				e, err := NewExecutor(g, WithSeed(42), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				execs[i] = e
			}
			skip, full := execs[0], execs[1]
			if err := full.CopyParamsFrom(skip); err != nil {
				t.Fatal(err)
			}
			x := tensor.New(4, 3, 8, 8)
			tensor.NewRNG(3).FillNormal(x, 0, 1)
			dOut := tensor.New(4, 4)
			tensor.NewRNG(5).FillUniform(dOut, -1, 1)
			var grads [2]map[string]*tensor.Tensor
			for i, e := range execs {
				if _, err := e.Forward(x); err != nil {
					t.Fatal(err)
				}
				var err error
				if grads[i], err = e.Backward(dOut); err != nil {
					t.Fatal(err)
				}
			}
			if len(grads[0]) != len(grads[1]) {
				t.Fatalf("%v workers=%d: %d gradients with the skip, %d without", scen, workers, len(grads[0]), len(grads[1]))
			}
			for k, g := range grads[1] {
				if got := grads[0][k]; got == nil || !bitEqual(got, g) {
					t.Errorf("%v workers=%d: gradient %q differs with the stem's dx skipped", scen, workers, k)
				}
			}
			if inUse := skip.ArenaStats().BytesInUse; inUse != 0 {
				t.Errorf("%v workers=%d: %d bytes still checked out after backward", scen, workers, inUse)
			}
		}
	}
}

// A StatsHook's statistics may be shared by every replica, so the executor
// only reads them. Here the hook returns one fixed pair per BN identity on
// each of two training steps: the pairs' bits must not change, the pass's
// readers must use them, and the executor's own pairs must stay distinct.
func TestStatsHookSharedPairStaysUnwritten(t *testing.T) {
	for _, scen := range []Scenario{RCFMVF, BNFF} {
		t.Run(scen.String(), func(t *testing.T) {
			g, err := models.Build("tiny-densenet", 4)
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
			rng := tensor.NewRNG(5)
			shared := make(map[*graph.BNAttr]*layers.BNStats)
			frozen := make(map[*graph.BNAttr]layers.BNStats) // each shared pair's values when the hook made it
			calls := 0
			e.SetBNHooks(func(_ *graph.Node, attr *graph.BNAttr, m layers.Moments) (*layers.BNStats, error) {
				calls++
				st := shared[attr]
				if st == nil {
					st = &layers.BNStats{Mean: tensor.New(attr.Channels), Var: tensor.New(attr.Channels), M: m.N * m.HW}
					rng.FillUniform(st.Mean, -0.5, 0.5)
					rng.FillUniform(st.Var, 0.5, 2)
					shared[attr] = st
					frozen[attr] = layers.BNStats{Mean: st.Mean.Clone(), Var: st.Var.Clone()}
				}
				return st, nil
			}, nil)
			in := tensor.New(g.Nodes[0].OutShape...)
			tensor.NewRNG(2).FillNormal(in, 0, 1)
			for step := 0; step < 2; step++ {
				out, err := e.Forward(in)
				if err != nil {
					t.Fatal(err)
				}
				for id := range e.own {
					if st := e.stats[id]; st == nil || st != shared[producedStats(g.Nodes[id])] {
						t.Fatalf("step %d: node %q's readers use %p, not the hook's pair", step, g.Nodes[id].Name, st)
					}
				}
				dOut := tensor.New(out.Shape()...)
				dOut.Fill(1)
				if _, err := e.Backward(dOut); err != nil {
					t.Fatal(err)
				}
			}
			if len(e.own) == 0 || calls != 2*len(e.own) {
				t.Fatalf("hook ran %d times over two steps of %d producers", calls, len(e.own))
			}
			for attr, st := range shared {
				if !bitEqual(st.Mean, frozen[attr].Mean) || !bitEqual(st.Var, frozen[attr].Var) {
					t.Errorf("%s: the executor wrote into the hook's pair", attr.ParamName)
				}
				for id, own := range e.own {
					if &own.Mean.Data[0] == &st.Mean.Data[0] || &own.Var.Data[0] == &st.Var.Data[0] {
						t.Errorf("node %q's own pair is the hook's pair for %s", g.Nodes[id].Name, attr.ParamName)
					}
				}
			}
		})
	}
}
