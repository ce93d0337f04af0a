// Package experiments regenerates every table and figure in the paper's
// evaluation from the analytical machine model: Table 1 (platform peaks),
// Figure 1 (execution-time breakdown across CNN generations), Figure 3
// (bandwidth over time), Figure 4 (finite vs infinite bandwidth), Figure 6
// (architecture comparison), Figure 7 (scenario times and memory accesses),
// Figure 8 (half-bandwidth sensitivity), the §5 GPU/CUTLASS results, the
// §5 headline numbers, and the ablations of BNFF's gain. Each generator
// returns an Experiment whose metrics pair the measured value with the
// paper's reported value, so the harness prints paper-vs-measured directly.
// StructureChecks adds the graph markers of every builtin scenario; what
// those scenarios train to is pinned by internal/scenario's golden test, and
// how fast by benchmark/.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"bnff/internal/core"
	"bnff/internal/det"
	"bnff/internal/graph"
	"bnff/internal/memsim"
	"bnff/internal/models"
)

// Metric is one paper-vs-measured comparison.
type Metric struct {
	Name     string
	Unit     string
	Measured float64
	Paper    float64 // NaN when the paper gives no number for it
}

// Experiment is a regenerated table or figure.
type Experiment struct {
	ID      string
	Title   string
	Notes   string
	Metrics []Metric
	Detail  string // preformatted rows mirroring the figure's series
}

// DefaultBatch is the paper's Skylake mini-batch size.
const DefaultBatch = 120

func m(name, unit string, measured, paper float64) Metric {
	return Metric{Name: name, Unit: unit, Measured: measured, Paper: paper}
}

func noPaper(name, unit string, measured float64) Metric {
	return Metric{Name: name, Unit: unit, Measured: measured, Paper: math.NaN()}
}

// String renders the experiment as a text block.
func (e *Experiment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	if e.Notes != "" {
		fmt.Fprintf(&b, "%s\n", e.Notes)
	}
	if len(e.Metrics) > 0 {
		fmt.Fprintf(&b, "%-46s %12s %12s %8s\n", "metric", "measured", "paper", "unit")
		for _, mt := range e.Metrics {
			paper := "-"
			if !math.IsNaN(mt.Paper) {
				paper = fmt.Sprintf("%.3f", mt.Paper)
			}
			fmt.Fprintf(&b, "%-46s %12.3f %12s %8s\n", mt.Name, mt.Measured, paper, mt.Unit)
		}
	}
	if e.Detail != "" {
		b.WriteString(e.Detail)
	}
	return b.String()
}

// Simulate builds a registered model, restructures it, and prices one
// training iteration on mach: the one path from a model name to a modeled
// report (the restructured graph is the report's Graph). Every experiment and
// every analysis command prices through it.
func Simulate(model string, batch int, s core.Scenario, mach memsim.Machine) (*memsim.Report, error) {
	return simulate(model, batch, s.Options(), mach)
}

// simulate is Simulate for any pass switches, not only a named scenario's.
func simulate(model string, batch int, opts core.Options, mach memsim.Machine) (*memsim.Report, error) {
	g, err := models.Build(model, batch)
	if err != nil {
		return nil, err
	}
	if err := core.Restructure(g, opts); err != nil {
		return nil, err
	}
	return memsim.Simulate(g, mach)
}

// Table1 reproduces the platform table: peak single-precision FLOPS and
// peak memory bandwidth of the three architectures.
func Table1() *Experiment {
	e := &Experiment{
		ID:    "table1",
		Title: "Peak FP32 performance and memory bandwidth of the evaluated architectures",
	}
	paper := []struct {
		mach   memsim.Machine
		tflops float64
		gbs    float64
	}{
		{memsim.Skylake(), 3.34, 230.4},
		{memsim.KNL(), 5.30, 400.0},
		{memsim.PascalTitanX(), 10.0, 480.0},
	}
	for _, p := range paper {
		e.Metrics = append(e.Metrics,
			m(p.mach.Name+" peak", "TFLOPS", p.mach.PeakFLOPS/1e12, p.tflops),
			m(p.mach.Name+" bandwidth", "GB/s", p.mach.PeakBW/1e9, p.gbs),
		)
	}
	return e
}

// Figure1 reproduces the CONV/FC vs non-CONV execution-time breakdown across
// model generations on the Skylake model. The paper reports AlexNet/VGG at
// "up to 95%" CONV/FC and DenseNet-121 at "more than half" non-CONV.
func Figure1(batch int) (*Experiment, error) {
	e := &Experiment{
		ID:    "fig1",
		Title: "Execution-time breakdown over layer types across CNN generations (Skylake)",
		Notes: "Training iteration; fused operators would count as CONV (baseline graphs here).",
	}
	paperConvShare := map[string]float64{
		"alexnet":     0.95, // "up to 95%" for the early models
		"vgg16":       0.95,
		"resnet50":    math.NaN(),
		"densenet121": 0.411, // 58.9% non-CONV per §5
	}
	var detail strings.Builder
	fmt.Fprintf(&detail, "%-12s %10s %10s %12s\n", "model", "CONV/FC s", "non-CONV s", "CONV share")
	for _, name := range []string{"alexnet", "vgg16", "resnet50", "densenet121"} {
		r, err := Simulate(name, batch, core.Baseline, memsim.Skylake())
		if err != nil {
			return nil, err
		}
		conv, nonConv := r.ConvSplit()
		share := conv / (conv + nonConv)
		fmt.Fprintf(&detail, "%-12s %10.3f %10.3f %12.3f\n", name, conv, nonConv, share)
		e.Metrics = append(e.Metrics, m(name+" CONV/FC time share", "frac", share, paperConvShare[name]))
	}
	e.Detail = detail.String()
	return e, nil
}

// Figure3 reproduces the memory-bandwidth-over-time trace for the baseline
// DenseNet-121 forward pass, bucketed for readability. The paper's headline
// observations: non-CONV layers saturate the 230.4 GB/s peak while CONV
// layers draw only up to ~120 GB/s.
func Figure3(batch int) (*Experiment, error) {
	r, err := Simulate("densenet121", batch, core.Baseline, memsim.Skylake())
	if err != nil {
		return nil, err
	}
	trace := r.BandwidthTrace(graph.Forward)
	peakByClass := map[graph.LayerClass]float64{}
	var maxNonConv, maxConv float64
	for _, p := range trace {
		if p.BW > peakByClass[p.Class] {
			peakByClass[p.Class] = p.BW
		}
		if p.Class.IsConvClass() {
			if p.BW > maxConv {
				maxConv = p.BW
			}
		} else if p.BW > maxNonConv {
			maxNonConv = p.BW
		}
	}
	e := &Experiment{
		ID:    "fig3",
		Title: "Memory bandwidth utilization over time, DenseNet-121 (Skylake, forward)",
		Notes: "Peak main-memory bandwidth of the modeled system is 230.4 GB/s.",
		Metrics: []Metric{
			m("peak non-CONV bandwidth", "GB/s", maxNonConv/1e9, 230.4*0.85),
			m("peak CONV bandwidth", "GB/s", maxConv/1e9, 120),
		},
	}
	// Bucket the trace into 40 equal time slices, reporting the dominant
	// class and mean bandwidth of each — the printable form of the figure.
	var detail strings.Builder
	total := r.PassTime(graph.Forward)
	const buckets = 40
	fmt.Fprintf(&detail, "%-8s %10s %-14s\n", "t(ms)", "GB/s", "dominant")
	for i := 0; i < buckets; i++ {
		lo, hi := total*float64(i)/buckets, total*float64(i+1)/buckets
		classTime := map[graph.LayerClass]float64{}
		var wsum, tsum float64
		for _, p := range trace {
			s, e2 := p.Start, p.Start+p.Duration
			ov := math.Min(hi, e2) - math.Max(lo, s)
			if ov <= 0 {
				continue
			}
			classTime[p.Class] += ov
			wsum += p.BW * ov
			tsum += ov
		}
		if tsum == 0 {
			continue
		}
		dom, domT := graph.ClassOther, 0.0
		for cls, tm := range classTime {
			if tm > domT {
				dom, domT = cls, tm
			}
		}
		fmt.Fprintf(&detail, "%-8.1f %10.1f %-14s\n", lo*1e3, wsum/tsum/1e9, dom)
	}
	e.Detail = detail.String()
	return e, nil
}

// Figure4 reproduces the finite- vs infinite-bandwidth comparison of the BN
// and ReLU layers (the paper measured ~20× by remapping addresses so all
// accesses hit L1; we price the same op stream on a free memory system).
func Figure4(batch int) (*Experiment, error) {
	finite, err := Simulate("densenet121", batch, core.Baseline, memsim.Skylake())
	if err != nil {
		return nil, err
	}
	infinite, err := Simulate("densenet121", batch, core.Baseline, memsim.Skylake().WithInfiniteBandwidth())
	if err != nil {
		return nil, err
	}
	fin := finite.ClassTime(graph.ClassBN, graph.ClassReLU)
	inf := infinite.ClassTime(graph.ClassBN, graph.ClassReLU)
	e := &Experiment{
		ID:    "fig4",
		Title: "BN+ReLU execution time with finite vs infinite memory bandwidth (DenseNet-121)",
		Notes: "Infinite bandwidth prices every sweep at zero; operation counts unchanged.",
		Metrics: []Metric{
			noPaper("BN+ReLU time, finite BW", "s", fin),
			noPaper("BN+ReLU time, infinite BW", "s", inf),
			m("speedup", "x", fin/inf, 20),
		},
	}
	return e, nil
}

// Figure6 reproduces the architecture comparison: CONV/FC vs non-CONV time
// per iteration and per image on GPU (batch 28), KNL (128), and Skylake
// (120), DenseNet-121 baseline.
func Figure6() (*Experiment, error) {
	e := &Experiment{
		ID:    "fig6",
		Title: "DenseNet-121 iteration/image time across architectures (baseline)",
		Notes: "Mini-batch sizes follow the paper: GPU 28 (memory capacity), KNL 128, Skylake 120.",
	}
	cases := []struct {
		mach  memsim.Machine
		batch int
	}{
		{memsim.PascalTitanX(), 28},
		{memsim.KNL(), 128},
		{memsim.Skylake(), 120},
	}
	var detail strings.Builder
	fmt.Fprintf(&detail, "%-36s %6s %10s %10s %12s %12s\n",
		"architecture", "batch", "CONV/FC s", "non-CONV s", "iter s", "ms/image")
	perImage := map[string]float64{}
	for _, c := range cases {
		r, err := Simulate("densenet121", c.batch, core.Baseline, c.mach)
		if err != nil {
			return nil, err
		}
		conv, nonConv := r.ConvSplit()
		total := r.Total()
		perImage[c.mach.Name] = total / float64(c.batch)
		fmt.Fprintf(&detail, "%-36s %6d %10.3f %10.3f %12.3f %12.2f\n",
			c.mach.Name, c.batch, conv, nonConv, total, total/float64(c.batch)*1e3)
		e.Metrics = append(e.Metrics,
			noPaper(c.mach.Name+" non-CONV share", "frac", nonConv/(conv+nonConv)))
	}
	// The paper's observation: all three spend more on non-CONV than CONV,
	// and per-image times are similar despite a 3× peak-FLOPS spread.
	var times []float64
	for _, name := range det.SortedKeys(perImage) {
		times = append(times, perImage[name])
	}
	sort.Float64s(times)
	e.Metrics = append(e.Metrics,
		m("max/min per-image time ratio", "x", times[len(times)-1]/times[0], 1.5))
	e.Detail = detail.String()
	return e, nil
}

// figure7Paper holds the paper's Figure 7 gains (fraction of baseline).
var figure7Paper = map[string]map[core.Scenario]float64{
	"densenet121": {core.RCF: 0.092, core.RCFMVF: 0.109, core.BNFF: 0.257, core.BNFFICF: 0.437},
	// The paper reports ResNet-50 overall gains for BNFF (16.1%); RCF/MVF
	// CPU numbers are not broken out in the text.
	"resnet50": {core.RCF: math.NaN(), core.RCFMVF: math.NaN(), core.BNFF: 0.161, core.BNFFICF: math.NaN()},
}

// Figure7 reproduces execution time (a) and memory accesses (b) per training
// iteration under baseline/RCF/RCF+MVF/BNFF/BNFF+ICF for DenseNet-121 and
// ResNet-50 on the Skylake model, with the forward/backward split.
func Figure7(batch int) (*Experiment, error) {
	e := &Experiment{
		ID:    "fig7",
		Title: "Execution time and memory accesses per iteration by scenario (Skylake)",
		Notes: "ICF applies to Concat boundaries only, so on ResNet-50 it equals BNFF (the paper evaluates ICF on DenseNet only; its DenseNet number is an estimate there, a priced graph here).",
	}
	var detail strings.Builder
	fmt.Fprintf(&detail, "%-12s %-9s %9s %9s %9s %9s %10s\n",
		"model", "scenario", "fwd s", "bwd s", "total s", "gain", "DRAM GB")
	for _, model := range []string{"densenet121", "resnet50"} {
		var baseTotal float64
		for _, s := range core.Scenarios() {
			if model == "resnet50" && s == core.BNFFICF {
				continue
			}
			r, err := Simulate(model, batch, s, memsim.Skylake())
			if err != nil {
				return nil, err
			}
			total := r.Total()
			if s == core.Baseline {
				baseTotal = total
			}
			gain := 1 - total/baseTotal
			fmt.Fprintf(&detail, "%-12s %-9s %9.3f %9.3f %9.3f %9.3f %10.1f\n",
				model, s, r.PassTime(graph.Forward), r.PassTime(graph.Backward),
				total, gain, float64(r.TotalDRAMBytes())/1e9)
			if s != core.Baseline {
				e.Metrics = append(e.Metrics,
					m(fmt.Sprintf("%s %s overall gain", model, s), "frac", gain, figure7Paper[model][s]))
			}
		}
	}
	e.Detail = detail.String()
	return e, nil
}

// Figure8 reproduces the bandwidth-sensitivity experiment: baseline vs BNFF
// at full (230.4 GB/s) and half (115.2 GB/s) memory bandwidth.
func Figure8(batch int) (*Experiment, error) {
	full := memsim.Skylake()
	half := memsim.Skylake().WithBandwidth(0.5)
	type cfg struct {
		name string
		mach memsim.Machine
	}
	var (
		nonConvShare = map[string]float64{}
		gain         = map[string]float64{}
	)
	var detail strings.Builder
	fmt.Fprintf(&detail, "%-12s %-9s %9s %9s %12s\n", "bandwidth", "scenario", "total s", "gain", "nonCONV shr")
	for _, c := range []cfg{{"230.4GB/s", full}, {"115.2GB/s", half}} {
		base, err := Simulate("densenet121", batch, core.Baseline, c.mach)
		if err != nil {
			return nil, err
		}
		bnff, err := Simulate("densenet121", batch, core.BNFF, c.mach)
		if err != nil {
			return nil, err
		}
		conv, nonConv := base.ConvSplit()
		nonConvShare[c.name] = nonConv / (conv + nonConv)
		gain[c.name] = 1 - bnff.Total()/base.Total()
		fmt.Fprintf(&detail, "%-12s %-9s %9.3f %9.3f %12.3f\n", c.name, "baseline", base.Total(), 0.0, nonConvShare[c.name])
		fmt.Fprintf(&detail, "%-12s %-9s %9.3f %9.3f %12s\n", c.name, "BNFF", bnff.Total(), gain[c.name], "-")
	}
	e := &Experiment{
		ID:    "fig8",
		Title: "Baseline vs BNFF at full and half memory bandwidth (DenseNet-121, Skylake)",
		Metrics: []Metric{
			m("baseline non-CONV share @230.4GB/s", "frac", nonConvShare["230.4GB/s"], 0.589),
			m("baseline non-CONV share @115.2GB/s", "frac", nonConvShare["115.2GB/s"], 0.630),
			m("BNFF gain @230.4GB/s", "frac", gain["230.4GB/s"], 0.257),
			m("BNFF gain @115.2GB/s", "frac", gain["115.2GB/s"], 0.301),
		},
		Detail: detail.String(),
	}
	return e, nil
}

// GPUResults reproduces the §5 CUTLASS-GPU evaluation: RCF, RCF+MVF, and
// BNFF gains for DenseNet-121 and ResNet-50 against the CUTLASS baseline
// (paper: 0.7/1.8/17.5% and 0.3/0.9/7.8%).
func GPUResults(batch int) (*Experiment, error) {
	paper := map[string]map[core.Scenario]float64{
		"densenet121": {core.RCF: 0.007, core.RCFMVF: 0.018, core.BNFF: 0.175},
		"resnet50":    {core.RCF: 0.003, core.RCFMVF: 0.009, core.BNFF: 0.078},
	}
	// The Titan X cannot hold a 120-image DenseNet training batch (the paper
	// used 16-28 for the same reason), so the GPU experiment caps the batch.
	if batch > 28 {
		batch = 28
	}
	mach := memsim.PascalTitanXCutlass()
	e := &Experiment{
		ID:    "gpu",
		Title: "GPU (CUTLASS) restructuring gains",
		Notes: fmt.Sprintf("Mini-batch %d (GPU memory capacity caps it, as in the paper); CUTLASS baseline is 3.6x slower than cuDNN per footnote 3.", batch),
	}
	var detail strings.Builder
	fmt.Fprintf(&detail, "%-12s %-9s %9s %9s\n", "model", "scenario", "total s", "gain")
	for _, model := range []string{"densenet121", "resnet50"} {
		var baseTotal float64
		// The full ladder except ICF: the paper's GPU table stops at BNFF,
		// and neither GPU model has the concatenation inputs ICF targets.
		for _, s := range core.Scenarios() {
			if s == core.BNFFICF {
				continue
			}
			r, err := Simulate(model, batch, s, mach)
			if err != nil {
				return nil, err
			}
			total := r.Total()
			if s == core.Baseline {
				baseTotal = total
			}
			gain := 1 - total/baseTotal
			fmt.Fprintf(&detail, "%-12s %-9s %9.3f %9.3f\n", model, s, total, gain)
			if s != core.Baseline {
				e.Metrics = append(e.Metrics,
					m(fmt.Sprintf("%s %s gain", model, s), "frac", gain, paper[model][s]))
			}
		}
	}
	e.Detail = detail.String()
	return e, nil
}

// Headline reproduces the §5 summary numbers on the Skylake model.
func Headline(batch int) (*Experiment, error) {
	base, err := Simulate("densenet121", batch, core.Baseline, memsim.Skylake())
	if err != nil {
		return nil, err
	}
	bnff, err := Simulate("densenet121", batch, core.BNFF, memsim.Skylake())
	if err != nil {
		return nil, err
	}
	rBase, err := Simulate("resnet50", batch, core.Baseline, memsim.Skylake())
	if err != nil {
		return nil, err
	}
	rBNFF, err := Simulate("resnet50", batch, core.BNFF, memsim.Skylake())
	if err != nil {
		return nil, err
	}
	fwdGain := 1 - bnff.PassTime(graph.Forward)/base.PassTime(graph.Forward)
	bwdGain := 1 - bnff.PassTime(graph.Backward)/base.PassTime(graph.Backward)
	relu := base.DRAMBytesByClass()[graph.ClassReLU]
	e := &Experiment{
		ID:    "headline",
		Title: "Headline BNFF results (Skylake, mini-batch 120)",
		Metrics: []Metric{
			m("DenseNet-121 overall gain", "frac", 1-bnff.Total()/base.Total(), 0.257),
			m("DenseNet-121 forward gain", "frac", fwdGain, 0.479),
			m("DenseNet-121 backward gain", "frac", bwdGain, 0.154),
			m("DenseNet-121 memory-access reduction", "frac",
				1-float64(bnff.TotalDRAMBytes())/float64(base.TotalDRAMBytes()), 0.191),
			m("ReLU share of baseline accesses", "frac",
				float64(relu)/float64(base.TotalDRAMBytes()), 0.168),
			m("ResNet-50 overall gain", "frac", 1-rBNFF.Total()/rBase.Total(), 0.161),
			m("baseline non-CONV time share", "frac", func() float64 {
				c, nc := base.ConvSplit()
				return nc / (c + nc)
			}(), 0.589),
		},
	}
	return e, nil
}

// Ablation takes BNFF's DenseNet-121 gain apart on the Skylake model (the
// ablations DESIGN.md §6 lists): fission and fusion without MVF's
// single-sweep statistics, and the gain's sensitivity to ComputeEff, the
// main calibration constant, swept from 0.6 to 1.0.
func Ablation(batch int) (*Experiment, error) {
	gain := func(opts core.Options, mach memsim.Machine) (float64, error) {
		base, err := simulate("densenet121", batch, core.Options{}, mach)
		if err != nil {
			return 0, err
		}
		r, err := simulate("densenet121", batch, opts, mach)
		if err != nil {
			return 0, err
		}
		return 1 - r.Total()/base.Total(), nil
	}
	bnff, err := gain(core.BNFF.Options(), memsim.Skylake())
	if err != nil {
		return nil, err
	}
	noMVF, err := gain(core.Options{RCF: true, Fission: true}, memsim.Skylake())
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:    "ablation",
		Title: "BNFF gain ablations (DenseNet-121, Skylake)",
		Notes: "Not in the paper. MVF off keeps RCF and fission; the CONV-efficiency sweep reprices baseline and BNFF on the same machine.",
		Metrics: []Metric{
			noPaper("densenet121 BNFF gain without MVF", "frac", noMVF),
			noPaper("densenet121 MVF contribution to BNFF gain", "frac", bnff-noMVF),
		},
	}
	effs := [2]float64{0.6, 1.0}
	var at [2]float64
	for i, eff := range effs {
		mach := memsim.Skylake()
		mach.ComputeEff = eff
		if at[i], err = gain(core.BNFF.Options(), mach); err != nil {
			return nil, err
		}
		e.Metrics = append(e.Metrics, noPaper(fmt.Sprintf("BNFF gain at CONV efficiency %.1f", eff), "frac", at[i]))
	}
	e.Metrics = append(e.Metrics, noPaper("BNFF gain spread, CONV efficiency 0.6-1.0", "frac", at[1]-at[0]))
	return e, nil
}

// experimentTable is every experiment in the order All runs them. ByID
// looks ids up in the same table, so the list and the lookup cannot drift.
var experimentTable = []struct {
	id  string
	run func(batch int) (*Experiment, error)
}{
	{"table1", func(int) (*Experiment, error) { return Table1(), nil }},
	{"fig1", Figure1},
	{"fig2", Figure2},
	{"fig3", Figure3},
	{"fig5", Figure5},
	{"fig4", Figure4},
	{"fig6", func(int) (*Experiment, error) { return Figure6() }},
	{"fig7", Figure7},
	{"fig8", Figure8},
	{"gpu", GPUResults},
	{"headline", Headline},
	{"ablation", Ablation},
	{"structure", func(int) (*Experiment, error) { return StructureChecks() }},
}

// All runs every experiment at the given batch size (0 → DefaultBatch).
func All(batch int) ([]*Experiment, error) {
	if batch <= 0 {
		batch = DefaultBatch
	}
	out := make([]*Experiment, 0, len(experimentTable))
	for _, ex := range experimentTable {
		e, err := ex.run(batch)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// IDs returns every experiment id in the order All runs them.
func IDs() []string {
	ids := make([]string, len(experimentTable))
	for i, ex := range experimentTable {
		ids[i] = ex.id
	}
	return ids
}

// ByID runs a single experiment by its identifier.
func ByID(id string, batch int) (*Experiment, error) {
	if batch <= 0 {
		batch = DefaultBatch
	}
	for _, ex := range experimentTable {
		if ex.id == id {
			return ex.run(batch)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %s)", id, strings.Join(IDs(), ", "))
}
