package experiments

import (
	"math"
	"strings"
	"testing"

	"bnff/internal/core"
)

// The experiments run at the paper's operating point — the analytical model
// is cheap enough that there is no reason to shrink the batch, and shrinking
// it would change the cache regime the paper's argument depends on.
const smallBatch = DefaultBatch

func TestTable1MatchesPaper(t *testing.T) {
	e := Table1()
	if len(e.Metrics) != 6 {
		t.Fatalf("table1 has %d metrics, want 6", len(e.Metrics))
	}
	for _, mt := range e.Metrics {
		if math.IsNaN(mt.Paper) {
			t.Errorf("%s: no paper value", mt.Name)
			continue
		}
		if math.Abs(mt.Measured-mt.Paper) > 1e-9 {
			t.Errorf("%s: measured %v != paper %v", mt.Name, mt.Measured, mt.Paper)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	e, err := Figure1(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	share := map[string]float64{}
	for _, mt := range e.Metrics {
		for _, model := range []string{"alexnet", "vgg16", "resnet50", "densenet121"} {
			if strings.HasPrefix(mt.Name, model) {
				share[model] = mt.Measured
			}
		}
	}
	// The paper's trend: early models are CONV-dominated, DenseNet is not.
	if share["alexnet"] < 0.75 {
		t.Errorf("alexnet CONV share = %.3f, want > 0.75", share["alexnet"])
	}
	if share["vgg16"] < 0.80 {
		t.Errorf("vgg16 CONV share = %.3f, want > 0.80", share["vgg16"])
	}
	if share["densenet121"] > 0.50 {
		t.Errorf("densenet121 CONV share = %.3f, want < 0.50", share["densenet121"])
	}
	if !(share["alexnet"] > share["resnet50"] && share["resnet50"] > share["densenet121"]) {
		t.Errorf("CONV share not decreasing across generations: %v", share)
	}
}

func TestFigure3Shape(t *testing.T) {
	e, err := Figure3(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	var nonConvPeak, convPeak float64
	for _, mt := range e.Metrics {
		if strings.HasPrefix(mt.Name, "peak non-CONV") {
			nonConvPeak = mt.Measured
		}
		if strings.HasPrefix(mt.Name, "peak CONV") {
			convPeak = mt.Measured
		}
	}
	// Non-CONV saturates effective bandwidth; CONV stays well below peak.
	if nonConvPeak < 180 {
		t.Errorf("non-CONV peak bandwidth %.1f GB/s, want near 196", nonConvPeak)
	}
	if convPeak >= nonConvPeak {
		t.Errorf("CONV peak bandwidth %.1f not below non-CONV %.1f", convPeak, nonConvPeak)
	}
	if convPeak > 160 {
		t.Errorf("CONV peak bandwidth %.1f GB/s, paper shows <=120", convPeak)
	}
	if !strings.Contains(e.Detail, "GB/s") {
		t.Error("figure 3 detail trace missing")
	}
}

func TestFigure2Structure(t *testing.T) {
	e, err := Figure2(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range e.Metrics {
		if mt.Measured != mt.Paper {
			t.Errorf("%s: %v != %v", mt.Name, mt.Measured, mt.Paper)
		}
	}
}

func TestFigure5SweepCollapse(t *testing.T) {
	e, err := Figure5(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]float64{}
	for _, mt := range e.Metrics {
		v[mt.Name] = mt.Measured
	}
	if v["forward sweeps, baseline"] != 10 || v["forward sweeps, BNFF"] != 5 {
		t.Errorf("forward collapse %v -> %v, want 10 -> 5",
			v["forward sweeps, baseline"], v["forward sweeps, BNFF"])
	}
	// Backward: BN's 5 + ReLU's 3 removed, one x̂ re-read added = net 7.
	if got := v["backward sweeps removed"]; got < 7 || got > 8 {
		t.Errorf("backward sweeps removed = %v, want 7-8 (paper: 5 per BN + RCF)", got)
	}
}

func TestFigure4Speedup(t *testing.T) {
	e, err := Figure4(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	var speedup float64
	for _, mt := range e.Metrics {
		if mt.Name == "speedup" {
			speedup = mt.Measured
		}
	}
	if speedup < 5 || speedup > 100 {
		t.Errorf("infinite-BW speedup = %.1f, paper reports ~20", speedup)
	}
}

func TestFigure6Shape(t *testing.T) {
	e, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	shares := 0
	for _, mt := range e.Metrics {
		if strings.HasSuffix(mt.Name, "non-CONV share") {
			shares++
			// Paper: all three architectures spend more time on non-CONV
			// layers than CONV layers (we accept near-parity).
			if mt.Measured < 0.45 {
				t.Errorf("%s = %.3f, want >= 0.45", mt.Name, mt.Measured)
			}
		}
		if mt.Name == "max/min per-image time ratio" && mt.Measured > 3.0 {
			t.Errorf("per-image times spread %.2fx; paper shows similar times", mt.Measured)
		}
	}
	if shares != 3 {
		t.Errorf("figure 6 covered %d architectures, want 3", shares)
	}
}

func TestFigure7GainsTrackPaper(t *testing.T) {
	e, err := Figure7(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range e.Metrics {
		if math.IsNaN(mt.Paper) {
			continue
		}
		// Same sign and within a factor of two of the paper's gain.
		if mt.Measured < mt.Paper/2 || mt.Measured > mt.Paper*2 {
			t.Errorf("%s: measured %.3f vs paper %.3f (outside 2x band)", mt.Name, mt.Measured, mt.Paper)
		}
	}
}

func TestFigure7ScenarioOrdering(t *testing.T) {
	e, err := Figure7(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	// For DenseNet the gains must increase along the scenario order.
	var prev float64 = -1
	for _, s := range core.Scenarios()[1:] {
		name := "densenet121 " + s.String() + " overall gain"
		found := false
		for _, mt := range e.Metrics {
			if mt.Name == name {
				if mt.Measured <= prev {
					t.Errorf("%s = %.3f not above previous %.3f", name, mt.Measured, prev)
				}
				prev = mt.Measured
				found = true
			}
		}
		if !found {
			t.Errorf("missing metric %q", name)
		}
	}
}

// Both of Figure 8's series must rise strictly as bandwidth falls, over all
// five scales from 4x to 1/4x: the paper's future-accelerator argument.
func TestFigure8Direction(t *testing.T) {
	e, err := Figure8(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"baseline non-CONV share @", "BNFF gain @"} {
		var got []Metric
		for _, mt := range e.Metrics {
			if strings.HasPrefix(mt.Name, series) {
				got = append(got, mt)
			}
		}
		if len(got) != 5 {
			t.Fatalf("%q: %d metrics, want 5 scales", series, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Measured <= got[i-1].Measured {
				t.Errorf("%s = %.3f not above %s = %.3f", got[i].Name, got[i].Measured, got[i-1].Name, got[i-1].Measured)
			}
		}
	}
}

func TestGPUGainsSmallerThanCPU(t *testing.T) {
	gpu, err := GPUResults(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := Figure7(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(e *Experiment, name string) float64 {
		for _, mt := range e.Metrics {
			if mt.Name == name {
				return mt.Measured
			}
		}
		t.Fatalf("missing metric %q", name)
		return 0
	}
	gpuDN := pick(gpu, "densenet121 BNFF gain")
	cpuDN := pick(cpu, "densenet121 BNFF overall gain")
	// Paper: GPU 17.5% < CPU 25.7%.
	if gpuDN >= cpuDN {
		t.Errorf("GPU BNFF gain %.3f not below CPU %.3f", gpuDN, cpuDN)
	}
	gpuRN := pick(gpu, "resnet50 BNFF gain")
	if gpuRN >= gpuDN {
		t.Errorf("GPU ResNet gain %.3f not below DenseNet %.3f", gpuRN, gpuDN)
	}
}

func TestHeadlineWithinBands(t *testing.T) {
	e, err := Headline(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range e.Metrics {
		if math.IsNaN(mt.Paper) {
			continue
		}
		if mt.Measured < mt.Paper*0.5 || mt.Measured > mt.Paper*2 {
			t.Errorf("%s: measured %.3f vs paper %.3f (outside 2x band)", mt.Name, mt.Measured, mt.Paper)
		}
	}
}

func TestAllAndByID(t *testing.T) {
	all, err := All(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 13 {
		t.Errorf("All produced %d experiments, want 13", len(all))
	}
	if len(all) != len(experimentTable) {
		t.Fatalf("All produced %d experiments, table has %d", len(all), len(experimentTable))
	}
	for i, e := range all {
		if e.ID != IDs()[i] {
			t.Errorf("All[%d] is %s, IDs()[%d] is %s", i, e.ID, i, IDs()[i])
		}
	}
	ids := map[string]bool{}
	for _, e := range all {
		ids[e.ID] = true
		if e.String() == "" {
			t.Errorf("%s renders empty", e.ID)
		}
	}
	for _, id := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "gpu", "headline", "ablation", "structure"} {
		if !ids[id] {
			t.Errorf("All missing %s", id)
		}
		if _, err := ByID(id, smallBatch); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("nope", smallBatch); err == nil || !strings.Contains(err.Error(), strings.Join(IDs(), ", ")) {
		t.Errorf("ByID(nope) = %v, want an error listing every id", err)
	}
}

// The ablation: fission and fusion alone keep most of BNFF's gain, MVF adds
// the rest, and the CONV-efficiency sweep moves the gain by a finite amount.
func TestAblationSplitsBNFFGain(t *testing.T) {
	abl, err := Ablation(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := Figure7(smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]float64{}
	for _, mt := range append(abl.Metrics, fig7.Metrics...) {
		v[mt.Name] = mt.Measured
	}
	bnff := v["densenet121 BNFF overall gain"]
	noMVF := v["densenet121 BNFF gain without MVF"]
	if !(0 < noMVF && noMVF < bnff) {
		t.Errorf("gain without MVF %.4f, want in (0, BNFF gain %.4f)", noMVF, bnff)
	}
	if d := v["densenet121 MVF contribution to BNFF gain"] - (bnff - noMVF); math.Abs(d) > 1e-12 {
		t.Errorf("MVF contribution off BNFF gain minus gain without MVF by %g", d)
	}
	lo, hi := v["BNFF gain at CONV efficiency 0.6"], v["BNFF gain at CONV efficiency 1.0"]
	spread := v["BNFF gain spread, CONV efficiency 0.6-1.0"]
	if math.IsNaN(spread) || math.IsInf(spread, 0) || spread != hi-lo {
		t.Errorf("gain spread %v, want the finite %v - %v", spread, hi, lo)
	}
}

func TestExperimentString(t *testing.T) {
	e := &Experiment{ID: "x", Title: "T", Notes: "n",
		Metrics: []Metric{m("a", "s", 1.5, 2.0), noPaper("b", "x", 3)}}
	s := e.String()
	for _, want := range []string{"== x: T ==", "a", "1.500", "2.000", "-"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}
