package memplan_test

import (
	"testing"

	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/layers"
	"bnff/internal/memplan"
	"bnff/internal/models"
	"bnff/internal/tensor"
)

func plan(t *testing.T, g *graph.Graph) *memplan.Result {
	t.Helper()
	r, err := memplan.PlanTraining(g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPlanSimpleChain(t *testing.T) {
	// input → conv → relu → gap → fc: known liveness.
	g := graph.New("chain")
	in := g.Input("in", tensor.Shape{2, 3, 4, 4})
	c, err := g.Conv("conv", in, layers.NewConv2D(3, 4, 3, 1, 1), -1)
	if err != nil {
		t.Fatal(err)
	}
	r := g.ReLU("relu", c, -1)
	gap, err := g.GlobalPool("gap", r, -1)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := g.FC("fc", gap, layers.FC{In: 4, Out: 2}, -1)
	if err != nil {
		t.Fatal(err)
	}
	g.Output = fc
	res := plan(t, g)
	if res.PeakBytes <= 0 {
		t.Fatal("no peak computed")
	}
	sched, ivs, err := memplan.TrainingIntervals(g)
	if err != nil {
		t.Fatal(err)
	}
	// ReLU's backward masks with its own output (2·4·4·4·4 = 512B), which
	// must live through that backward step; the conv output it rectified is
	// read by nothing after ReLU's forward and dies there.
	want := map[string]int{"conv": sched.Fwd[r.ID], "relu": sched.Bwd[r.ID]}
	for _, iv := range ivs {
		end, ok := want[iv.Node.Name]
		if !ok || iv.Kind != memplan.BufValue {
			continue
		}
		delete(want, iv.Node.Name)
		if iv.Bytes != 512 {
			t.Errorf("%s activation bytes = %d, want 512", iv.Node.Name, iv.Bytes)
		}
		if iv.End != end {
			t.Errorf("%s activation dies at step %d, want %d", iv.Node.Name, iv.End, end)
		}
	}
	if len(want) != 0 {
		t.Errorf("activations missing from the plan: %v", want)
	}
}

func TestPlanIntervalSanity(t *testing.T) {
	g, err := models.TinyDenseNet(8)
	if err != nil {
		t.Fatal(err)
	}
	sched, ivs, err := memplan.TrainingIntervals(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range ivs {
		if iv.Start > iv.End {
			t.Errorf("%s %v has inverted interval [%d, %d]", iv.Node.Name, iv.Kind, iv.Start, iv.End)
		}
		if iv.Bytes <= 0 {
			t.Errorf("%s %v has %d bytes", iv.Node.Name, iv.Kind, iv.Bytes)
		}
		if iv.End >= sched.Steps {
			t.Errorf("%s %v outlives the schedule (%d >= %d)", iv.Node.Name, iv.Kind, iv.End, sched.Steps)
		}
	}
}

// The planned peak is the largest sum of interval bytes live at one step,
// for every registered model and restructuring, training and inference.
func TestPlanPeakIsLargestLiveSum(t *testing.T) {
	for _, name := range models.Names() {
		for _, scen := range []core.Scenario{core.Baseline, core.RCF, core.BNFF} {
			g, err := models.Build(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Restructure(g, scen.Options()); err != nil {
				t.Fatal(err)
			}
			for _, pass := range []struct {
				name      string
				intervals func(*graph.Graph) (*memplan.Schedule, []memplan.Interval, error)
				plan      func(*graph.Graph) (*memplan.Result, error)
			}{
				{"training", memplan.TrainingIntervals, memplan.PlanTraining},
				{"inference", memplan.InferenceIntervals, memplan.PlanInference},
			} {
				sched, ivs, err := pass.intervals(g)
				if err != nil {
					t.Fatal(err)
				}
				var want int64
				for step := 0; step < sched.Steps; step++ {
					var live int64
					for _, iv := range ivs {
						if iv.Start <= step && step <= iv.End {
							live += iv.Bytes
						}
					}
					want = max(want, live)
				}
				res, err := pass.plan(g)
				if err != nil {
					t.Fatal(err)
				}
				if res.PeakBytes != want {
					t.Errorf("%s %v %s: planned peak %d bytes, largest live sum %d", name, scen, pass.name, res.PeakBytes, want)
				}
			}
		}
	}
}

// totalBytes is the sum of the intervals' sizes: what a pass that released
// nothing would hold.
func totalBytes(ivs []memplan.Interval) int64 {
	var s int64
	for _, iv := range ivs {
		s += iv.Bytes
	}
	return s
}

// The footprint claim: BNFF's restructured graph keeps fewer intermediates
// alive for the backward pass, so peak training memory drops on every
// BN-heavy model.
func TestBNFFReducesPeakMemory(t *testing.T) {
	for name, build := range map[string]func() (*graph.Graph, error){
		"densenet121":  func() (*graph.Graph, error) { return models.DenseNet121(32) },
		"resnet50":     func() (*graph.Graph, error) { return models.ResNet50(32) },
		"mobilenet-v1": func() (*graph.Graph, error) { return models.MobileNetV1(32) },
	} {
		base, err := build()
		if err != nil {
			t.Fatal(err)
		}
		bnff, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Restructure(bnff, core.BNFF.Options()); err != nil {
			t.Fatal(err)
		}
		pBase := plan(t, base)
		pBNFF := plan(t, bnff)
		if pBNFF.PeakBytes >= pBase.PeakBytes {
			t.Errorf("%s: BNFF peak %d not below baseline %d", name, pBNFF.PeakBytes, pBase.PeakBytes)
		}
		red := 1 - float64(pBNFF.PeakBytes)/float64(pBase.PeakBytes)
		t.Logf("%s: peak %.1f MB -> %.1f MB (-%.1f%%)", name,
			float64(pBase.PeakBytes)/1e6, float64(pBNFF.PeakBytes)/1e6, 100*red)
	}
}

// Total allocation must also fall: a fused window allocates neither the BN
// output nor the rectified output.
func TestBNFFReducesTotalAllocation(t *testing.T) {
	base, err := models.TinyDenseNet(64)
	if err != nil {
		t.Fatal(err)
	}
	bnff, err := models.TinyDenseNet(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Restructure(bnff, core.BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	_, a, err := memplan.TrainingIntervals(base)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := memplan.TrainingIntervals(bnff)
	if err != nil {
		t.Fatal(err)
	}
	if totalBytes(b) >= totalBytes(a) {
		t.Errorf("BNFF allocates %d, baseline %d", totalBytes(b), totalBytes(a))
	}
}

func TestPlanRejectsInvalidGraph(t *testing.T) {
	g := graph.New("bad")
	in := g.Input("in", tensor.Shape{1, 1, 2, 2})
	n := g.AddNode(&graph.Node{Kind: graph.OpSubBN2, Name: "orphan",
		Inputs: []*graph.Node{in}, OutShape: in.OutShape.Clone(), CPL: -1})
	g.Output = n
	if _, err := memplan.PlanTraining(g); err == nil {
		t.Error("accepted invalid graph (SubBN2 without statistics source)")
	}
}

// bnHeavy is the benchmark's bn-heavy DenseNet (benchmark/workloads.json):
// lean 1×1/3×3 convolutions over wide concats on 32×32 maps.
func bnHeavy(batch int) models.DenseNetConfig {
	return models.DenseNetConfig{
		Name: "bn-heavy", Batch: batch, InputSize: 32, Classes: 10,
		GrowthRate: 4, Bottleneck: 1, BlockSizes: []int{6, 6},
		InitChannels: 8, StemKernel: 3, Compression: 0.5,
	}
}

// The planned training peak of bn-heavy at batch 32, in MiB, under each
// restructuring, and the slab its intervals are placed in. A concat is a view
// of its inputs, so a dense block keeps each feature map once; no BN stores x̂
// (each regenerates it from its input), and a ReLU's backward masks with its
// own output.
func TestPlanPeakBNHeavy(t *testing.T) {
	for _, tc := range []struct {
		scen      core.Scenario
		mib, slab float64
	}{{core.Baseline, 38.875, 38.875}, {core.RCF, 38.875, 38.875}, {core.BNFF, 16.5, 17.5}} {
		g, err := models.DenseNet(bnHeavy(32))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Restructure(g, tc.scen.Options()); err != nil {
			t.Fatal(err)
		}
		if got := float64(plan(t, g).PeakBytes) / (1 << 20); got != tc.mib {
			t.Errorf("%v: planned peak %v MiB, want %v", tc.scen, got, tc.mib)
		}
		if got := slabMiB(t, g); got != tc.slab {
			t.Errorf("%v: slab %v MiB, want %v", tc.scen, got, tc.slab)
		}
	}
}

// The planned training peak at batch 32, in MiB, of every registered model
// under baseline, RCF and BNFF: now, and before the unfused BNs stopped
// storing x̂ and ReLU stopped keeping its input; and the slab memplan.Place
// packs the same intervals into, which the runtime arena reserves. No plan
// may rise above its earlier value, no slab may fall below its peak, and the
// table names exactly models.Names().
func TestPlanPeakEveryModel(t *testing.T) {
	type peaks struct{ baseline, rcf, bnff float64 }
	table := map[string]struct{ now, was, slab peaks }{
		"alexnet":         {peaks{80.5859375, 80.5859375, 80.5859375}, peaks{92.625, 80.5859375, 80.5859375}, peaks{87.984375, 87.984375, 87.984375}},
		"densenet121":     {peaks{2727.15625, 2727.15625, 949.375}, peaks{5645.71875, 3837.3125, 949.375}, peaks{2727.15625, 2727.15625, 952.4375}},
		"densenet169":     {peaks{3191.125, 3191.125, 998.375}, peaks{6878.375, 4664.1875, 998.375}, peaks{3191.125, 3192.65625, 1001.4375}},
		"densenet201":     {peaks{3950.625, 3950.625, 1096.375}, peaks{8960.875, 6054.5625, 1096.375}, peaks{3950.625, 3950.625, 1099.4375}},
		"inception-small": {peaks{4759.125, 4759.125, 4180.3125}, peaks{6207.6875, 5628.875, 5050.0625}, peaks{4759.125, 4759.125, 4183.375}},
		"mobilenet":       {peaks{1243.375, 1243.375, 633.9375}, peaks{1852.8125, 1243.375, 633.9375}, peaks{1243.375, 1243.375, 633.9375}},
		"resnet50":        {peaks{2450, 2450, 2113.125}, peaks{3448.375, 3111.5, 2777.6875}, peaks{2450, 2450, 2113.125}},
		"tiny-cnn":        {peaks{0.625, 0.625, 0.4375}, peaks{0.8125, 0.625, 0.4375}, peaks{0.625, 0.625, 0.4375}},
		"tiny-densenet":   {peaks{9.5625, 9.5625, 5.25}, peaks{16.1875, 11.125, 5.25}, peaks{9.5625, 9.5625, 5.25}},
		"tiny-inception":  {peaks{3.75, 3.75, 3.375}, peaks{4.625, 4.25, 3.875}, peaks{3.75, 3.75, 3.4375}},
		"tiny-mobilenet":  {peaks{14.875, 14.875, 8.4375}, peaks{21.3125, 14.875, 8.4375}, peaks{14.875, 14.875, 8.4375}},
		"tiny-resnet":     {peaks{7.5, 7.5, 7.25}, peaks{9.5, 8.75, 9}, peaks{7.5, 7.5, 7.25}},
		"vgg16":           {peaks{1886.5, 1886.5, 1886.5}, peaks{2768.5, 1886.5, 1886.5}, peaks{1886.5, 1886.5, 1886.5}},
	}
	names := models.Names()
	if len(names) != len(table) {
		t.Errorf("table has %d models, models.Names() %d: %v", len(table), len(names), names)
	}
	for _, name := range names {
		row, ok := table[name]
		if !ok {
			t.Errorf("%s: no row in the table", name)
			continue
		}
		for _, tc := range []struct {
			scen           core.Scenario
			now, was, slab float64
		}{
			{core.Baseline, row.now.baseline, row.was.baseline, row.slab.baseline},
			{core.RCF, row.now.rcf, row.was.rcf, row.slab.rcf},
			{core.BNFF, row.now.bnff, row.was.bnff, row.slab.bnff},
		} {
			if tc.now > tc.was {
				t.Errorf("%s %v: pinned peak %v MiB rose above %v", name, tc.scen, tc.now, tc.was)
			}
			if tc.slab < tc.now {
				t.Errorf("%s %v: pinned slab %v MiB below the peak %v", name, tc.scen, tc.slab, tc.now)
			}
			g, err := models.Build(name, 32)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Restructure(g, tc.scen.Options()); err != nil {
				t.Fatal(err)
			}
			if got := float64(plan(t, g).PeakBytes) / (1 << 20); got != tc.now {
				t.Errorf("%s %v: planned peak %v MiB, want %v", name, tc.scen, got, tc.now)
			}
			if got := slabMiB(t, g); got != tc.slab {
				t.Errorf("%s %v: slab %v MiB, want %v", name, tc.scen, got, tc.slab)
			}
		}
	}
}

// slabMiB is the size of g's placement slab at its own batch, in MiB.
func slabMiB(t *testing.T, g *graph.Graph) float64 {
	t.Helper()
	_, ivs, err := memplan.TrainingIntervals(g)
	if err != nil {
		t.Fatal(err)
	}
	return float64(4*g.Nodes[0].OutShape[0]*memplan.Place(ivs).Slab) / (1 << 20)
}

// The placement property: for every registered model and restructuring, no
// two intervals that are live at a common step share an element of the slab,
// no interval crosses a multiple of the segment length, and the slab is
// exactly as large as its highest placed end.
func TestPlaceNoOverlap(t *testing.T) {
	for _, name := range models.Names() {
		for _, scen := range core.Scenarios() {
			g, err := models.Build(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Restructure(g, scen.Options()); err != nil {
				t.Fatal(err)
			}
			_, ivs, err := memplan.TrainingIntervals(g)
			if err != nil {
				t.Fatal(err)
			}
			p := memplan.Place(ivs)
			if len(p.Offsets) != len(ivs) {
				t.Fatalf("%s %v: %d offsets for %d intervals", name, scen, len(p.Offsets), len(ivs))
			}
			top := 0
			for i, a := range ivs {
				ai, aj := p.Offsets[i], p.Offsets[i]+a.SampleElems()
				if ai < 0 || ai/p.Seg != (aj-1)/p.Seg {
					t.Fatalf("%s %v: %s placed at [%d, %d), segments of %d", name, scen, a.Node.Name, ai, aj, p.Seg)
				}
				top = max(top, aj)
				for j := i + 1; j < len(ivs); j++ {
					b := ivs[j]
					bi, bj := p.Offsets[j], p.Offsets[j]+b.SampleElems()
					if a.Start <= b.End && b.Start <= a.End && ai < bj && bi < aj {
						t.Fatalf("%s %v: %s %v [%d, %d] at [%d, %d) overlaps %s %v [%d, %d] at [%d, %d)",
							name, scen, a.Node.Name, a.Kind, a.Start, a.End, ai, aj,
							b.Node.Name, b.Kind, b.Start, b.End, bi, bj)
					}
				}
			}
			if top != p.Slab {
				t.Errorf("%s %v: slab %d, highest placed end %d", name, scen, p.Slab, top)
			}
		}
	}
}

// At inference a value dies at its last forward reader, and views — a
// dropout, which aliases its input there, and a concat — keep their inputs
// live through their own readers and hold no interval of their own.
func TestInferenceIntervalsEndAtLastForwardReader(t *testing.T) {
	g := graph.New("views")
	in := g.Input("in", tensor.Shape{2, 3, 4, 4})
	c1, err := g.Conv("c1", in, layers.NewConv2D(3, 4, 3, 1, 1), -1)
	if err != nil {
		t.Fatal(err)
	}
	r1 := g.ReLU("r1", c1, -1)
	d, err := g.Dropout("drop", r1, 0.5, -1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := g.Conv("c2", d, layers.NewConv2D(4, 4, 3, 1, 1), -1)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := g.Concat("cat", -1, c2, c1)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := g.GlobalPool("gap", cat, -1)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := g.FC("fc", gap, layers.FC{In: 8, Out: 2}, -1)
	if err != nil {
		t.Fatal(err)
	}
	g.Output = fc
	sched, ivs, err := memplan.InferenceIntervals(g)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Steps != len(g.Live()) {
		t.Errorf("%d steps for %d live nodes", sched.Steps, len(g.Live()))
	}
	f := sched.Fwd
	// r1 is read by the dropout's reader c2; c1 and c2 by the concat's
	// reader gap.
	want := map[string][2]int{
		"c1": {f[c1.ID], f[gap.ID]}, "r1": {f[r1.ID], f[c2.ID]}, "c2": {f[c2.ID], f[gap.ID]},
		"gap": {f[gap.ID], f[fc.ID]}, "fc": {f[fc.ID], f[fc.ID]},
	}
	for _, iv := range ivs {
		w, ok := want[iv.Node.Name]
		if !ok || iv.Kind != memplan.BufValue {
			t.Errorf("unexpected %v interval for %s", iv.Kind, iv.Node.Name)
			continue
		}
		delete(want, iv.Node.Name)
		if iv.Start != w[0] || iv.End != w[1] {
			t.Errorf("%s lives [%d, %d], want [%d, %d]", iv.Node.Name, iv.Start, iv.End, w[0], w[1])
		}
	}
	if len(want) != 0 {
		t.Errorf("values missing from the intervals: %v", want)
	}
	res, err := memplan.PlanInference(g)
	if err != nil {
		t.Fatal(err)
	}
	// At c2's step c1, r1 and c2 (512 B each) are live.
	if res.PeakBytes != 3*512 || totalBytes(ivs) != 3*512+64+16 {
		t.Errorf("inference plan: peak %d, total %d", res.PeakBytes, totalBytes(ivs))
	}
}
