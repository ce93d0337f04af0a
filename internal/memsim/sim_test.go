package memsim

import (
	"math"
	"testing"

	"bnff/internal/core"
	"bnff/internal/graph"
	"bnff/internal/models"
)

func TestMachineValidate(t *testing.T) {
	for _, m := range []Machine{Skylake(), KNL(), PascalTitanX()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	bad := Skylake()
	bad.PeakBW = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero bandwidth")
	}
	bad = Skylake()
	bad.ComputeEff = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("accepted efficiency > 1")
	}
	bad = Skylake()
	bad.CacheBW = 1
	if err := bad.Validate(); err == nil {
		t.Error("accepted cache slower than DRAM")
	}
}

func TestTable1Peaks(t *testing.T) {
	// The paper's Table 1 values, verbatim.
	cases := []struct {
		m      Machine
		tflops float64
		gbs    float64
	}{
		{Skylake(), 3.34, 230.4},
		{KNL(), 5.30, 400.0},
		{PascalTitanX(), 10.0, 480.0},
	}
	for _, c := range cases {
		if math.Abs(c.m.PeakFLOPS/tf-c.tflops) > 1e-9 {
			t.Errorf("%s peak FLOPS = %v TF, want %v", c.m.Name, c.m.PeakFLOPS/tf, c.tflops)
		}
		if math.Abs(c.m.PeakBW/gb-c.gbs) > 1e-9 {
			t.Errorf("%s peak BW = %v GB/s, want %v", c.m.Name, c.m.PeakBW/gb, c.gbs)
		}
	}
}

func TestCutlassSlowdown(t *testing.T) {
	cudnn, cutlass := PascalTitanX(), PascalTitanXCutlass()
	ratio := cudnn.ComputeEff / cutlass.ComputeEff
	if math.Abs(ratio-3.6) > 1e-9 {
		t.Errorf("CUTLASS/cuDNN efficiency ratio = %v, want 3.6 (paper footnote 3)", ratio)
	}
}

func TestBandwidthScaling(t *testing.T) {
	m := Skylake().WithBandwidth(0.5)
	if math.Abs(m.PeakBW/gb-115.2) > 1e-9 {
		t.Errorf("half-bandwidth Skylake = %v GB/s, want 115.2", m.PeakBW/gb)
	}
	inf := Skylake().WithInfiniteBandwidth()
	if inf.PeakBW < 1e29 {
		t.Error("infinite bandwidth not infinite")
	}
}

func TestFLOPPerByte(t *testing.T) {
	// P100-style derivation from §3.1: 10.6 TF / 732 GB/s ≈ 14.5 FLOP/B.
	m := Machine{Name: "p100", PeakFLOPS: 10.6 * tf, PeakBW: 732 * gb,
		ComputeEff: 0.5, DRAMEff: 0.85, CacheBW: 1000 * gb, OnChip: 1 << 20,
		BNOverhead: 1, NonConvOverhead: 1, ConvReadFactor: 1}
	if got := m.FLOPPerByte(); math.Abs(got-14.48) > 0.1 {
		t.Errorf("P100 FLOP/B = %v, want ~14.5", got)
	}
}

func TestPriceOpRoofline(t *testing.T) {
	m := Machine{Name: "t", PeakFLOPS: 100, PeakBW: 10,
		ComputeEff: 1, DRAMEff: 1, CacheBW: 1000, OnChip: 4,
		BNOverhead: 1, NonConvOverhead: 1, ConvReadFactor: 1}
	// Detached costs price as CONV-class: compute and memory serialize.
	// 200 FLOPs (2s) + 10 DRAM bytes (1s) → 3s, compute-dominated.
	c := graph.OpCost{FLOPs: 200, Sweeps: []graph.Sweep{{Bytes: 10}}}
	tm := priceOp(c, m)
	if tm.Bound != BoundCompute || tm.Time != 3 {
		t.Errorf("compute-dominated: time=%v bound=%v", tm.Time, tm.Bound)
	}
	// 10 FLOPs (0.1s) + 100 DRAM bytes (10s) → 10.1s, memory-dominated.
	c = graph.OpCost{FLOPs: 10, Sweeps: []graph.Sweep{{Bytes: 100}}}
	tm = priceOp(c, m)
	if tm.Bound != BoundMemory || tm.Time != 10.1 {
		t.Errorf("memory-dominated: time=%v bound=%v", tm.Time, tm.Bound)
	}
	// Cache-filtered: 4-byte sweep fits on chip.
	c = graph.OpCost{Sweeps: []graph.Sweep{{Bytes: 4}}}
	tm = priceOp(c, m)
	if tm.DRAMBytes != 0 || tm.CachedBytes != 4 {
		t.Errorf("cache filter failed: %+v", tm)
	}
	// A streaming (non-CONV) op is a pure roofline: a ReLU node with more
	// DRAM than compute binds on memory, not the sum.
	relu := mkReLUNode()
	c = graph.OpCost{Node: relu, FLOPs: 10, Sweeps: []graph.Sweep{{Bytes: 100}}}
	tm = priceOp(c, m)
	if tm.Bound != BoundMemory || tm.Time != 10 {
		t.Errorf("streaming op: time=%v bound=%v, want pure roofline 10", tm.Time, tm.Bound)
	}
	// Zero cost.
	tm = priceOp(graph.OpCost{}, m)
	if tm.Bound != BoundNone || tm.Time != 0 {
		t.Errorf("zero-cost op: %+v", tm)
	}
}

func mkReLUNode() *graph.Node {
	return &graph.Node{Kind: graph.OpReLU, Name: "r"}
}

func TestBoundString(t *testing.T) {
	if BoundCompute.String() != "compute" || BoundMemory.String() != "memory" {
		t.Error("bound names wrong")
	}
	if Bound(9).String() == "" {
		t.Error("out-of-range bound string empty")
	}
}

// simulate builds a model, restructures per scenario, and prices it.
func simulate(t *testing.T, build func() (*graph.Graph, error), s core.Scenario, m Machine) *Report {
	t.Helper()
	g, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Restructure(g, s.Options()); err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(g, m)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func densenet121(batch int) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) { return models.DenseNet121(batch) }
}

// The headline reality checks against the paper's reported shapes, at the
// paper's operating point (DenseNet-121, batch 120, Skylake).
func TestDenseNetBaselineNonConvShare(t *testing.T) {
	r := simulate(t, densenet121(120), core.Baseline, Skylake())
	conv, nonConv := r.ConvSplit()
	share := nonConv / (conv + nonConv)
	// Paper: 58.9% of baseline time is non-CONV (Figure 8 discussion says
	// "more than half" in Figure 1). Accept 0.45–0.70.
	if share < 0.45 || share > 0.70 {
		t.Errorf("non-CONV share = %.3f, want ~0.59", share)
	}
}

func TestDenseNetBNFFGain(t *testing.T) {
	base := simulate(t, densenet121(120), core.Baseline, Skylake())
	bnff := simulate(t, densenet121(120), core.BNFF, Skylake())
	gain := (base.Total() - bnff.Total()) / base.Total()
	// Paper: 25.7% overall. Accept 0.15–0.40.
	if gain < 0.15 || gain > 0.40 {
		t.Errorf("BNFF overall gain = %.3f, want ~0.257", gain)
	}
	fwdGain := (base.PassTime(graph.Forward) - bnff.PassTime(graph.Forward)) / base.PassTime(graph.Forward)
	bwdGain := (base.PassTime(graph.Backward) - bnff.PassTime(graph.Backward)) / base.PassTime(graph.Backward)
	// Paper: forward 47.9%, backward 15.4% — forward gain must dominate.
	if fwdGain <= bwdGain {
		t.Errorf("forward gain %.3f not above backward gain %.3f", fwdGain, bwdGain)
	}
	if fwdGain < 0.30 || fwdGain > 0.60 {
		t.Errorf("forward gain = %.3f, want ~0.479", fwdGain)
	}
	if bwdGain < 0.05 || bwdGain > 0.30 {
		t.Errorf("backward gain = %.3f, want ~0.154", bwdGain)
	}
}

func TestDenseNetMemoryReduction(t *testing.T) {
	base := simulate(t, densenet121(120), core.Baseline, Skylake())
	bnff := simulate(t, densenet121(120), core.BNFF, Skylake())
	red := 1 - float64(bnff.TotalDRAMBytes())/float64(base.TotalDRAMBytes())
	// Paper: memory accesses reduced by 19.1%. Accept 0.10–0.35.
	if red < 0.10 || red > 0.35 {
		t.Errorf("BNFF memory reduction = %.3f, want ~0.191", red)
	}
}

func TestReLUShareOfAccesses(t *testing.T) {
	r := simulate(t, densenet121(120), core.Baseline, Skylake())
	by := r.DRAMBytesByClass()
	total := r.TotalDRAMBytes()
	share := float64(by[graph.ClassReLU]) / float64(total)
	// Paper: ReLU layers are 16.8% of baseline memory accesses. Accept 0.10–0.25.
	if share < 0.10 || share > 0.25 {
		t.Errorf("ReLU access share = %.3f, want ~0.168", share)
	}
}

func TestResNetBNFFGainSmaller(t *testing.T) {
	dBase := simulate(t, densenet121(120), core.Baseline, Skylake())
	dBNFF := simulate(t, densenet121(120), core.BNFF, Skylake())
	rBase := simulate(t, func() (*graph.Graph, error) { return models.ResNet50(120) }, core.Baseline, Skylake())
	rBNFF := simulate(t, func() (*graph.Graph, error) { return models.ResNet50(120) }, core.BNFF, Skylake())
	dGain := 1 - dBNFF.Total()/dBase.Total()
	rGain := 1 - rBNFF.Total()/rBase.Total()
	// Paper: DenseNet 25.7% vs ResNet 16.1% — DenseNet gains more.
	if dGain <= rGain {
		t.Errorf("DenseNet gain %.3f not above ResNet gain %.3f", dGain, rGain)
	}
	if rGain < 0.05 || rGain > 0.30 {
		t.Errorf("ResNet gain = %.3f, want ~0.161", rGain)
	}
}

func TestInfiniteBandwidthSpeedsUpBNReLU(t *testing.T) {
	finite := simulate(t, densenet121(120), core.Baseline, Skylake())
	infinite := simulate(t, densenet121(120), core.Baseline, Skylake().WithInfiniteBandwidth())
	fin := finite.ClassTime(graph.ClassBN, graph.ClassReLU)
	inf := infinite.ClassTime(graph.ClassBN, graph.ClassReLU)
	speedup := fin / inf
	// Paper Figure 4: ~20× for BN+ReLU. Accept 5–100 (the exact figure
	// depends on the FLOP weights, which only matter in this regime).
	if speedup < 5 || speedup > 100 {
		t.Errorf("infinite-BW BN+ReLU speedup = %.1f, want ~20", speedup)
	}
}

func TestHalfBandwidthRaisesNonConvShareAndGain(t *testing.T) {
	full := Skylake()
	half := Skylake().WithBandwidth(0.5)
	baseFull := simulate(t, densenet121(120), core.Baseline, full)
	baseHalf := simulate(t, densenet121(120), core.Baseline, half)
	bnffFull := simulate(t, densenet121(120), core.BNFF, full)
	bnffHalf := simulate(t, densenet121(120), core.BNFF, half)

	convF, nonF := baseFull.ConvSplit()
	convH, nonH := baseHalf.ConvSplit()
	shareFull := nonF / (convF + nonF)
	shareHalf := nonH / (convH + nonH)
	// Paper: 58.9% → 63.0% when bandwidth halves.
	if shareHalf <= shareFull {
		t.Errorf("non-CONV share did not grow when bandwidth halved: %.3f vs %.3f", shareHalf, shareFull)
	}
	gainFull := 1 - bnffFull.Total()/baseFull.Total()
	gainHalf := 1 - bnffHalf.Total()/baseHalf.Total()
	// Paper: gain 25.7% → 30.1% at half bandwidth.
	if gainHalf <= gainFull {
		t.Errorf("BNFF gain did not grow when bandwidth halved: %.3f vs %.3f", gainHalf, gainFull)
	}
}

func TestBandwidthTraceCoversIteration(t *testing.T) {
	r := simulate(t, func() (*graph.Graph, error) { return models.TinyDenseNet(64) }, core.Baseline, Skylake())
	trace := r.BandwidthTrace(graph.Forward)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	peak := Skylake().EffectiveBW()
	for i, p := range trace {
		if p.BW > peak*1.0001 {
			t.Errorf("trace[%d] bandwidth %.3g exceeds effective peak %.3g", i, p.BW, peak)
		}
		if i > 0 && p.Start < trace[i-1].Start {
			t.Errorf("trace not time-ordered at %d", i)
		}
	}
}

func TestScenarioTimesMonotone(t *testing.T) {
	times := make(map[core.Scenario]float64)
	for _, s := range core.Scenarios() {
		times[s] = simulate(t, densenet121(120), s, Skylake()).Total()
	}
	order := core.Scenarios()
	for i := 1; i < len(order); i++ {
		if times[order[i]] >= times[order[i-1]] {
			t.Errorf("%v time (%.4f) not below %v time (%.4f)",
				order[i], times[order[i]], order[i-1], times[order[i-1]])
		}
	}
}

func TestSimulateRejectsBadMachine(t *testing.T) {
	g, err := models.TinyCNN(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := Skylake()
	bad.PeakFLOPS = -1
	if _, err := Simulate(g, bad); err == nil {
		t.Error("Simulate accepted invalid machine")
	}
}
