package bnff

// One benchmark per paper table/figure (regenerating it through the
// analytical model and reporting its key quantity as a custom metric), plus
// real-kernel benchmarks comparing baseline and fused numeric execution, and
// the ablation benchmarks DESIGN.md §6 calls out.
//
// Run: go test -bench=. -benchmem

import (
	"runtime"
	"testing"
	"time"

	"bnff/internal/cachesim"
	"bnff/internal/core"
	"bnff/internal/experiments"
	"bnff/internal/graph"
	"bnff/internal/kernels"
	"bnff/internal/layers"
	"bnff/internal/memplan"
	"bnff/internal/memsim"
	"bnff/internal/models"
	"bnff/internal/tensor"
	"bnff/internal/train"
	"bnff/internal/workload"
)

// ---------------------------------------------------------------------------
// Paper tables and figures (analytical model).
// ---------------------------------------------------------------------------

func metricOf(b *testing.B, e *experiments.Experiment, name, unit string) {
	b.Helper()
	for _, mt := range e.Metrics {
		if mt.Name == name {
			b.ReportMetric(mt.Measured, unit)
			return
		}
	}
	b.Fatalf("experiment %s has no metric %q", e.ID, name)
}

func BenchmarkTable1Machines(b *testing.B) {
	var e *experiments.Experiment
	for i := 0; i < b.N; i++ {
		e = experiments.Table1()
	}
	if len(e.Metrics) != 6 {
		b.Fatal("table1 incomplete")
	}
}

func BenchmarkFigure1Breakdown(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.Figure1(experiments.DefaultBatch); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "densenet121 CONV/FC time share", "conv-share")
}

func BenchmarkFigure2Structure(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.Figure2(experiments.DefaultBatch); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "composite layers", "CPLs")
}

func BenchmarkFigure5SweepCollapse(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.Figure5(experiments.DefaultBatch); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "forward sweeps, BNFF", "sweeps")
}

func BenchmarkExtensionMobileNet(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.MobileNetExtension(experiments.DefaultBatch); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "mobilenet BNFF overall gain", "gain")
}

func BenchmarkFigure3BandwidthTrace(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.Figure3(experiments.DefaultBatch); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "peak CONV bandwidth", "GB/s")
}

func BenchmarkFigure4InfiniteBW(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.Figure4(experiments.DefaultBatch); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "speedup", "x")
}

func BenchmarkFigure6Architectures(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "max/min per-image time ratio", "x")
}

func BenchmarkFigure7Scenarios(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.Figure7(experiments.DefaultBatch); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "densenet121 BNFF overall gain", "gain")
}

func BenchmarkFigure8HalfBandwidth(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.Figure8(experiments.DefaultBatch); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "BNFF gain @115.2GB/s", "gain")
}

func BenchmarkGPUCutlass(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.GPUResults(28); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "densenet121 BNFF gain", "gain")
}

func BenchmarkHeadline(b *testing.B) {
	var e *experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		if e, err = experiments.Headline(experiments.DefaultBatch); err != nil {
			b.Fatal(err)
		}
	}
	metricOf(b, e, "DenseNet-121 overall gain", "gain")
}

// ---------------------------------------------------------------------------
// Real-kernel benchmarks: the numeric fused kernels vs their baseline
// composition on one CONV-BN-ReLU-CONV window. At cache-resident laptop
// scale the win is fewer tensor materializations (see allocs/op and B/op);
// the DRAM-traffic win is what the analytical model prices at full scale.
// ---------------------------------------------------------------------------

type window struct {
	conv1, conv2 layers.Conv2D
	bn           layers.BatchNorm
	x, w1, w2    *tensor.Tensor
	gamma, beta  *tensor.Tensor
}

func newWindow() *window {
	const n, cin, cmid, cout, hw = 4, 16, 32, 16, 16
	rng := tensor.NewRNG(1)
	w := &window{
		conv1: layers.NewConv2D(cin, cmid, 3, 1, 1),
		conv2: layers.NewConv2D(cmid, cout, 3, 1, 1),
		bn:    layers.NewBatchNorm(cmid),
	}
	w.x = tensor.New(n, cin, hw, hw)
	w.w1 = tensor.New(w.conv1.WeightShape()...)
	w.w2 = tensor.New(w.conv2.WeightShape()...)
	w.gamma = tensor.New(cmid)
	w.beta = tensor.New(cmid)
	rng.FillNormal(w.x, 0, 1)
	rng.FillHe(w.w1, cin*9)
	rng.FillHe(w.w2, cmid*9)
	rng.FillUniform(w.gamma, 0.5, 1.5)
	rng.FillUniform(w.beta, -0.3, 0.3)
	return w
}

func BenchmarkKernelBaselineWindowForward(b *testing.B) {
	w := newWindow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, err := w.conv1.Forward(w.x, w.w1)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := w.bn.ComputeStats(u)
		if err != nil {
			b.Fatal(err)
		}
		v, _, err := w.bn.Normalize(u, stats, w.gamma, w.beta)
		if err != nil {
			b.Fatal(err)
		}
		z := layers.ReLUForward(v)
		if _, err := w.conv2.Forward(z, w.w2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelFusedWindowForward(b *testing.B) {
	w := newWindow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, stats, err := kernels.ConvForwardStats(w.conv1, w.x, w.w1)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := kernels.FusedBNReLUConvForward(w.conv2, w.bn, u, stats, w.gamma, w.beta, w.w2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelBaselineWindowBackward(b *testing.B) {
	w := newWindow()
	u, _ := w.conv1.Forward(w.x, w.w1)
	stats, _ := w.bn.ComputeStats(u)
	v, xhat, _ := w.bn.Normalize(u, stats, w.gamma, w.beta)
	z := layers.ReLUForward(v)
	y, _ := w.conv2.Forward(z, w.w2)
	dy := tensor.New(y.Shape()...)
	tensor.NewRNG(2).FillUniform(dy, -1, 1)
	ctx := &layers.BNContext{XHat: xhat, Stats: stats}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dz, _, err := w.conv2.Backward(dy, z, w.w2)
		if err != nil {
			b.Fatal(err)
		}
		dv, err := layers.ReLUBackward(dz, z)
		if err != nil {
			b.Fatal(err)
		}
		du, _, _, err := w.bn.Backward(dv, ctx, w.gamma)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := w.conv1.Backward(du, w.x, w.w1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelFusedWindowBackward(b *testing.B) {
	w := newWindow()
	u, stats, _ := kernels.ConvForwardStats(w.conv1, w.x, w.w1)
	y, xhat, _ := kernels.FusedBNReLUConvForward(w.conv2, w.bn, u, stats, w.gamma, w.beta, w.w2)
	dy := tensor.New(y.Shape()...)
	tensor.NewRNG(2).FillUniform(dy, -1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dv, _, dgamma, dbeta, err := kernels.FusedConvBackwardReLUBNReduce(w.conv2, w.bn, dy, xhat, w.gamma, w.beta, w.w2)
		if err != nil {
			b.Fatal(err)
		}
		du, err := w.bn.BackwardInput(dv, xhat, w.gamma, stats, dgamma, dbeta)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := w.conv1.Backward(du, w.x, w.w1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Training-step benchmarks: end-to-end numeric executor, baseline vs BNFF.
// ---------------------------------------------------------------------------

func benchTrainStep(b *testing.B, s core.Scenario) {
	g, err := models.TinyCNN(8, 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	if err := core.Restructure(g, s.Options()); err != nil {
		b.Fatal(err)
	}
	exec, err := core.NewExecutor(g, core.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	data, err := workload.New(workload.Config{Classes: 4, Channels: 3, Size: 8, Noise: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := train.NewTrainer(exec, data, train.WithBatchSize(8), train.WithOptimizer(train.NewSGD(0.01, 0.9, 1e-4)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainStepBaseline(b *testing.B) { benchTrainStep(b, core.Baseline) }
func BenchmarkTrainStepBNFF(b *testing.B)     { benchTrainStep(b, core.BNFF) }

// ---------------------------------------------------------------------------
// Parallel-executor benchmarks: fwd+bwd through the DenseNet-121-shaped
// model (tiny-densenet keeps its dense-block/transition topology at a size
// that executes numerically) with the executor's worker pool vs serial.
// ---------------------------------------------------------------------------

func parallelBenchSetup(b *testing.B, workers int) (*core.Executor, *tensor.Tensor, *tensor.Tensor) {
	b.Helper()
	g, err := models.TinyDenseNet(16)
	if err != nil {
		b.Fatal(err)
	}
	if err := core.Restructure(g, core.BNFF.Options()); err != nil {
		b.Fatal(err)
	}
	exec, err := core.NewExecutor(g, core.WithSeed(1), core.WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	in := tensor.New(g.Nodes[0].OutShape...)
	tensor.NewRNG(2).FillNormal(in, 0, 1)
	out, err := exec.Forward(in)
	if err != nil {
		b.Fatal(err)
	}
	dOut := tensor.New(out.Shape()...)
	tensor.NewRNG(3).FillUniform(dOut, -1, 1)
	return exec, in, dOut
}

func benchParallelFwdBwd(b *testing.B, workers int) {
	exec, in, dOut := parallelBenchSetup(b, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Forward(in); err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Backward(dOut); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseNetFwdBwdSerial(b *testing.B) { benchParallelFwdBwd(b, 1) }
func BenchmarkDenseNetFwdBwdParallel(b *testing.B) {
	benchParallelFwdBwd(b, runtime.GOMAXPROCS(0))
}

// BenchmarkParallelSpeedup times serial vs WithWorkers(GOMAXPROCS) fwd+bwd
// directly, verifies the pooled forward is bit-identical to the serial one,
// and reports the speedup factor. On a single-core runner the factor hovers
// around 1 (the pooled goroutines multiplex one thread); on ≥4 cores the
// sample-split layers should clear 1.5×.
func BenchmarkParallelSpeedup(b *testing.B) {
	serial, in, dOut := parallelBenchSetup(b, 1)
	pooled, _, _ := parallelBenchSetup(b, runtime.GOMAXPROCS(0))
	if err := pooled.CopyParamsFrom(serial); err != nil {
		b.Fatal(err)
	}
	outS, err := serial.Forward(in)
	if err != nil {
		b.Fatal(err)
	}
	outP, err := pooled.Forward(in)
	if err != nil {
		b.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(outS, outP); d != 0 {
		b.Fatalf("pooled forward differs from serial by %v (must be bit-identical)", d)
	}
	var tSerial, tPooled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := serial.Forward(in); err != nil {
			b.Fatal(err)
		}
		if _, err := serial.Backward(dOut); err != nil {
			b.Fatal(err)
		}
		tSerial += time.Since(t0)

		t0 = time.Now()
		if _, err := pooled.Forward(in); err != nil {
			b.Fatal(err)
		}
		if _, err := pooled.Backward(dOut); err != nil {
			b.Fatal(err)
		}
		tPooled += time.Since(t0)
	}
	if tPooled > 0 {
		b.ReportMetric(tSerial.Seconds()/tPooled.Seconds(), "speedup")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §6).
// ---------------------------------------------------------------------------

// MVF sweep ablation: two-pass vs single-pass float32 statistics over the
// same activations (precision: TestMVFNumerics in internal/layers).
func benchStats(b *testing.B, f func(layers.BatchNorm, *tensor.Tensor) (*layers.BNStats, error)) {
	bn := layers.NewBatchNorm(32)
	x := tensor.New(16, 32, 16, 16)
	tensor.NewRNG(3).FillNormal(x, 0.5, 1.5)
	b.SetBytes(x.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f(bn, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStatsTwoPass(b *testing.B) {
	benchStats(b, func(bn layers.BatchNorm, x *tensor.Tensor) (*layers.BNStats, error) {
		return bn.ComputeStats(x)
	})
}

func BenchmarkAblationStatsMVF32(b *testing.B) {
	benchStats(b, func(bn layers.BatchNorm, x *tensor.Tensor) (*layers.BNStats, error) {
		return bn.ComputeStatsMVF(x)
	})
}

// Fission-without-MVF ablation: how much of BNFF's analytical gain comes
// from the single-sweep statistics vs the fusions themselves.
func BenchmarkAblationBNFFWithoutMVF(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		base, err := simulateDenseNet(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		noMVF, err := simulateDenseNet(core.Options{RCF: true, Fission: true})
		if err != nil {
			b.Fatal(err)
		}
		gain = 1 - noMVF.Total()/base.Total()
	}
	b.ReportMetric(gain, "gain-no-mvf")
}

// Conv-efficiency sensitivity ablation: the headline gain as the machine's
// CONV compute efficiency varies (the main calibration constant).
func BenchmarkAblationConvEffSensitivity(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		var lo, hi float64
		for _, eff := range []float64{0.6, 1.0} {
			m := memsim.Skylake()
			m.ComputeEff = eff
			base, err := simulateDenseNetOn(core.Options{}, m)
			if err != nil {
				b.Fatal(err)
			}
			bnff, err := simulateDenseNetOn(core.BNFF.Options(), m)
			if err != nil {
				b.Fatal(err)
			}
			g := 1 - bnff.Total()/base.Total()
			if eff == 0.6 {
				lo = g
			} else {
				hi = g
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "gain-spread")
}

// On-chip capacity sensitivity: at what batch size does BN spill? Reports
// the gain at a small batch (partially cached) for contrast with batch 120.
func BenchmarkAblationSmallBatchGain(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		g1, err := models.DenseNet121(8)
		if err != nil {
			b.Fatal(err)
		}
		g2, err := models.DenseNet121(8)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.Restructure(g2, core.BNFF.Options()); err != nil {
			b.Fatal(err)
		}
		base, err := memsim.Simulate(g1, memsim.Skylake())
		if err != nil {
			b.Fatal(err)
		}
		bnff, err := memsim.Simulate(g2, memsim.Skylake())
		if err != nil {
			b.Fatal(err)
		}
		gain = 1 - bnff.Total()/base.Total()
	}
	b.ReportMetric(gain, "gain-batch8")
}

func simulateDenseNet(opts core.Options) (*memsim.Report, error) {
	return simulateDenseNetOn(opts, memsim.Skylake())
}

func simulateDenseNetOn(opts core.Options, m memsim.Machine) (*memsim.Report, error) {
	g, err := models.DenseNet121(experiments.DefaultBatch)
	if err != nil {
		return nil, err
	}
	if err := core.Restructure(g, opts); err != nil {
		return nil, err
	}
	return memsim.Simulate(g, m)
}

// Footprint extension: liveness analysis of the full DenseNet-121 graph.
func BenchmarkExtensionFootprint(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		base, err := models.DenseNet121(32)
		if err != nil {
			b.Fatal(err)
		}
		bnff, err := models.DenseNet121(32)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.Restructure(bnff, core.BNFF.Options()); err != nil {
			b.Fatal(err)
		}
		pBase, err := memplan.PlanTraining(base)
		if err != nil {
			b.Fatal(err)
		}
		pBNFF, err := memplan.PlanTraining(bnff)
		if err != nil {
			b.Fatal(err)
		}
		saving = 1 - float64(pBNFF.PeakBytes)/float64(pBase.PeakBytes)
	}
	b.ReportMetric(saving, "peak-mem-saving")
}

// Cross-validation benchmark: full trace replay of a training iteration
// through the cache simulator.
func BenchmarkCacheReplayValidation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		g, err := models.TinyDenseNet(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.Restructure(g, core.BNFF.Options()); err != nil {
			b.Fatal(err)
		}
		var sweeps int64
		costs, err := g.TrainingCosts()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range costs {
			for _, sw := range c.Sweeps {
				if sw.Kind == graph.SweepFeatureMap {
					sweeps += sw.Bytes
				}
			}
		}
		cache, err := cachesim.New(1<<20, 64, 16)
		if err != nil {
			b.Fatal(err)
		}
		if err := cachesim.ReplayTraining(cache, g); err != nil {
			b.Fatal(err)
		}
		ratio = float64(cache.Stats().DRAMBytes(64)) / float64(sweeps)
	}
	b.ReportMetric(ratio, "replay/sweeps")
}

// Sanity benchmark: pricing one full DenseNet-121 iteration (graph build +
// restructure + simulate) — the unit of work behind every figure.
func BenchmarkSimulateDenseNet121BNFF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := simulateDenseNet(core.BNFF.Options())
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Total()
	}
}

// Keep graph referenced so the import stays meaningful if metrics change.
var _ = graph.Forward
