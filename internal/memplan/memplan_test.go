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
	// conv output (2·4·4·4·4 = 512B) is read by relu's forward AND relu's
	// backward (mask), so it must live past the midpoint.
	var convBuf *memplan.Buffer
	for i := range res.Buffers {
		if res.Buffers[i].Name == "conv" {
			convBuf = &res.Buffers[i]
		}
	}
	if convBuf == nil {
		t.Fatal("conv activation missing from plan")
	}
	if convBuf.Bytes != 512 {
		t.Errorf("conv activation bytes = %d, want 512", convBuf.Bytes)
	}
	if convBuf.End < res.Steps/2 {
		t.Errorf("conv activation dies at %d, before backward needs it", convBuf.End)
	}
	// LiveAt peak step must equal PeakBytes.
	if res.LiveAt(res.PeakStep) != res.PeakBytes {
		t.Errorf("LiveAt(peak)=%d != PeakBytes=%d", res.LiveAt(res.PeakStep), res.PeakBytes)
	}
}

func TestPlanIntervalSanity(t *testing.T) {
	g, err := models.TinyDenseNet(8)
	if err != nil {
		t.Fatal(err)
	}
	res := plan(t, g)
	for _, b := range res.Buffers {
		if b.Start > b.End {
			t.Errorf("buffer %s has inverted interval [%d, %d]", b.Name, b.Start, b.End)
		}
		if b.Bytes <= 0 {
			t.Errorf("buffer %s has %d bytes", b.Name, b.Bytes)
		}
		if b.End >= res.Steps {
			t.Errorf("buffer %s outlives the schedule (%d >= %d)", b.Name, b.End, res.Steps)
		}
	}
	if res.PeakBytes > res.TotalAllocated() {
		t.Error("peak exceeds total allocation")
	}
	if res.String() == "" {
		t.Error("empty summary")
	}
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

// Total allocation must also fall: the u/v/z trio per BN collapses to x̂.
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
	a, b := plan(t, base), plan(t, bnff)
	if b.TotalAllocated() >= a.TotalAllocated() {
		t.Errorf("BNFF allocates %d, baseline %d", b.TotalAllocated(), a.TotalAllocated())
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
// restructuring. BNFF keeps each dense block's feature maps once — a concat
// is a view of its inputs — and stores no x̂ for its fused windows.
func TestPlanPeakBNHeavy(t *testing.T) {
	for _, tc := range []struct {
		scen core.Scenario
		mib  float64
	}{{core.Baseline, 83.375}, {core.RCF, 57.25}, {core.BNFF, 16.5}} {
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
	}
}
