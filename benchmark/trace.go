package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"bnff/internal/core"
	"bnff/internal/ddp"
	"bnff/internal/graph"
	"bnff/internal/kernels"
	"bnff/internal/layers"
	"bnff/internal/memplan"
	"bnff/internal/memsim"
	"bnff/internal/obs"
	"bnff/internal/tensor"
	"bnff/internal/train"
)

// tracedRounds is how many interleaved rounds of (untraced block, traced
// block) per restructuring the traced run makes.
const tracedRounds = 2

// modules are the Chrome-trace tracks, one per layer of the repo the
// benchmark calls into; a span's category is its module.
var modules = []string{"benchmark", "workload", "core", "layers", "kernels", "train", "parallel", "ddp", "serve", "fleet"}

// tracedBench is a bench whose calls into each layer are wrapped in spans.
// Spans carry an id, their parent's id, the round and the restructuring, stay
// in memory while the run lasts and are written out at exit.
type tracedBench struct {
	*bench
	tr     *obs.Tracer
	nextID float64
	round  int
	rep    *report

	// unitNs is 1 % of -seconds; every budget of the traced run is a
	// multiple of it, so the run scales with -seconds like the measured one.
	unitNs int64
}

// span is an open span: End needs where it began and who caused it.
type span struct {
	id, parent float64
	start      int64
}

func (x *tracedBench) begin(parent span) span {
	x.nextID++
	return span{id: x.nextID, parent: parent.id, start: x.tr.Begin()}
}

// end closes the span and returns its duration in nanoseconds.
func (x *tracedBench) end(s span, name, module string, r int) int64 {
	tid := 0
	for i, m := range modules {
		if m == module {
			tid = i + 1
		}
	}
	dur := x.clock() - s.start
	x.tr.EndArgs(name, module, "", tid, s.start, map[string]float64{
		"id": s.id, "parent": s.parent, "round": float64(x.round), "restructuring": float64(r),
	})
	return dur
}

// timed runs fn under a span and returns its duration.
func (x *tracedBench) timed(parent span, name, module string, fn func() error) (int64, error) {
	s := x.begin(parent)
	err := fn()
	return x.end(s, name, module, -1), err
}

// repeated runs fn under a span again and again for about budgetNs (at least
// three times) and returns the median duration in milliseconds.
func (x *tracedBench) repeated(parent span, name, module string, budgetNs int64, fn func() error) (float64, error) {
	var ms []float64
	for start := x.clock(); len(ms) < 3 || x.clock()-start < budgetNs; {
		ns, err := x.timed(parent, name, module, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ms = append(ms, float64(ns)/1e6)
	}
	return median(ms), nil
}

// repeatedPair is repeated for two calls taken in turns, so that drift and
// outside noise hit both alike and their difference means something.
func (x *tracedBench) repeatedPair(parent span, nameA, nameB, module string, budgetNs int64, a, b func() error) (msA, msB float64, err error) {
	var as, bs []float64
	for start := x.clock(); len(as) < 3 || x.clock()-start < budgetNs; {
		nsA, err := x.timed(parent, nameA, module, a)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", nameA, err)
		}
		nsB, err := x.timed(parent, nameB, module, b)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", nameB, err)
		}
		as, bs = append(as, float64(nsA)/1e6), append(bs, float64(nsB)/1e6)
	}
	return median(as), median(bs), nil
}

func (x *tracedBench) add(name string, value float64, unit string) { x.rep.add(name, value, unit, "") }

// tracedRun is the separate run that prints every per-layer metric and writes
// the spans. End-to-end numbers never come from it.
func tracedRun(cfg *workloadConfig, o options, clock func() int64, stdout io.Writer) (*report, error) {
	t := &tally{}
	x := &tracedBench{tr: obs.NewTracer(clock), rep: &report{}, unitNs: int64(o.seconds * 1e7)}
	root := span{}
	var err error
	if _, err = x.timed(root, "benchmark.setup", "benchmark", func() error {
		x.bench, err = setUp(cfg, o.seed, clock, t)
		return err
	}); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer x.close()

	// One cycle of the measured protocol, untraced, for the throughput and
	// latency metrics BENCHMARK.json lists per layer instead of end to end: a
	// quarter of the samples the untraced run prints them from.
	s := x.begin(root)
	m, err := x.runCycles(1, planFor(o.seconds), &heapWatch{})
	x.end(s, "benchmark.cycle", "benchmark", -1)
	if err != nil {
		return nil, err
	}
	m.addTimings(x.rep, cfg, false)

	for _, phase := range []struct {
		name string
		run  func(parent span) error
	}{
		{"benchmark.train", x.trainLayers},
		{"benchmark.core", x.coreLayers},
		{"benchmark.kernels", x.kernelLayers},
		{"benchmark.models", x.modelLayers},
		{"benchmark.scale", x.scaleLayers},
		{"benchmark.obs", x.obsLayers},
		{"benchmark.serve", x.serveLayers},
		{"benchmark.fleet", x.fleetLayers},
	} {
		s := x.begin(root)
		err := phase.run(s)
		x.end(s, phase.name, "benchmark", -1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", phase.name, err)
		}
	}

	dir := o.traceDir
	if dir == "" {
		dir = traceDir
	}
	path := filepath.Join(dir, "trace-"+cfg.Name+".json")
	if err := writeTrace(path, x.tr.Spans()); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "trace %s (%d spans; open in chrome://tracing or ui.perfetto.dev)\n", path, x.tr.Len())
	t.finish(x.rep)
	return x.rep, nil
}

func writeTrace(path string, spans []obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans, 1); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStep is Trainer.Step taken apart into its five public parts, each
// under its own span: Dataset.Batch, Executor.Forward, SoftmaxCrossEntropy,
// Executor.Backward, SGD.Step.
func (x *tracedBench) tracedStep(parent span) func(r int) (float64, error) {
	return func(r int) (float64, error) {
		tr := x.trainers[r]
		step := x.begin(parent)
		defer func() { x.end(step, "train.step", "train", r) }()

		s := x.begin(step)
		in, labels, err := tr.Data.Batch(tr.BatchSize)
		x.end(s, "workload.batch", "workload", r)
		if err != nil {
			return 0, err
		}
		s = x.begin(step)
		logits, err := tr.Exec.Forward(in)
		x.end(s, "core.fwd", "core", r)
		if err != nil {
			return 0, err
		}
		s = x.begin(step)
		loss, dlogits, err := layers.SoftmaxCrossEntropy(logits, labels)
		x.end(s, "layers.softmax", "layers", r)
		if err != nil {
			return 0, err
		}
		if _, err := layers.Accuracy(logits, labels); err != nil { // Step computes it too; keep the work equal
			return 0, err
		}
		s = x.begin(step)
		grads, err := tr.Exec.Backward(dlogits)
		x.end(s, "core.bwd", "core", r)
		if err != nil {
			return 0, err
		}
		s = x.begin(step)
		err = tr.Opt.Step(tr.Exec.Params, grads)
		x.end(s, "train.opt", "train", r)
		x.countStep(r, loss)
		return loss, err
	}
}

// spanMs returns the median duration in milliseconds of the spans with the
// given name, of restructuring r (any when r < 0).
func (x *tracedBench) spanMs(name string, r int) float64 {
	var ms []float64
	for _, s := range x.tr.Spans() {
		if s.Name == name && (r < 0 || s.Args["restructuring"] == float64(r)) {
			ms = append(ms, float64(s.Dur)/1e6)
		}
	}
	return median(ms)
}

// trainLayers interleaves, per round and restructuring, one untraced block of
// Trainer.Step and one traced block of its parts. workload, core, tensor and
// train metrics and the cost of tracing itself come from the pairs.
func (x *tracedBench) trainLayers(parent span) error {
	n := len(restructurings)
	speedup := make([][]float64, n)
	var tracedOverUntraced []float64
	mallocs, allocBytes, steps := make([]uint64, n), make([]uint64, n), make([]int, n)
	var gcPauseNs uint64
	var blockNs int64
	for x.round = 0; x.round < tracedRounds; x.round++ {
		var baseline float64
		for r := range restructurings {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s := x.begin(parent)
			plain, err := x.trainBlock(r, x.cfg.BlockSteps, x.step)
			x.end(s, "train.block", "train", r)
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			mallocs[r] += after.Mallocs - before.Mallocs
			allocBytes[r] += after.TotalAlloc - before.TotalAlloc
			steps[r] += plain.steps
			gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
			blockNs += plain.elapsedNs

			s = x.begin(parent)
			traced, err := x.trainBlock(r, x.cfg.BlockSteps, x.tracedStep(s))
			x.end(s, "train.block.traced", "train", r)
			if err != nil {
				return err
			}
			tracedOverUntraced = append(tracedOverUntraced, traced.samplesPerS()/plain.samplesPerS())
			if r == 0 {
				baseline = plain.samplesPerS()
			}
			speedup[r] = append(speedup[r], plain.samplesPerS()/baseline)
		}
	}
	x.round = 0

	x.add("workload.batch_ms", x.spanMs("workload.batch", -1), "ms")
	for r, rs := range restructurings {
		x.add("core.fwd_ms."+rs.name, x.spanMs("core.fwd", r), "ms")
		x.add("core.bwd_ms."+rs.name, x.spanMs("core.bwd", r), "ms")
	}
	for r, rs := range restructurings[1:] {
		x.add("core.speedup."+rs.name, median(speedup[r+1]), "ratio")
	}
	x.add("layers.softmax_ms", x.spanMs("layers.softmax", -1), "ms")
	for r, rs := range restructurings {
		st := x.trainers[r].Exec.ArenaStats()
		x.add("tensor.arena_peak_mib."+rs.name, float64(st.PeakBytes)/(1<<20), "MiB")
		x.add("tensor.arena_hit_share."+rs.name, float64(st.Hits)/float64(st.Hits+st.Misses), "share")
		x.add("tensor.allocs_per_step."+rs.name, float64(mallocs[r])/float64(steps[r]), "count")
		x.add("tensor.alloc_kib_per_step."+rs.name, float64(allocBytes[r])/float64(steps[r])/1024, "KiB")
	}
	x.add("train.opt_ms", x.spanMs("train.opt", -1), "ms")
	x.add("train.gc_share", float64(gcPauseNs)/float64(blockNs), "share")
	x.add("obs.trace_overhead_share", 1-median(tracedOverUntraced), "share")
	return nil
}

// coreLayers times what core does outside a step: building, checkpointing,
// folding, and the folded forward pass at the serving batch sizes.
func (x *tracedBench) coreLayers(parent span) error {
	for r, rs := range restructurings {
		x.add("core.build_ms."+rs.name, float64(x.buildNs[r])/1e6, "ms")
	}
	x.add("core.ckpt_save_ms", float64(x.saveNs)/1e6, "ms")
	g, err := x.cfg.build(x.cfg.Batch)
	if err != nil {
		return err
	}
	fresh, err := core.NewExecutor(g, core.WithSeed(x.seed+9), core.WithWorkers(1))
	if err != nil {
		return err
	}
	loadNs, err := x.timed(parent, "core.ckpt_load", "core", func() error { return fresh.Load(bytes.NewReader(x.ckpt)) })
	if err != nil {
		return err
	}
	x.add("core.ckpt_load_ms", float64(loadNs)/1e6, "ms")
	x.add("core.ckpt_bytes", float64(len(x.ckpt)), "bytes")

	unfolded, err := x.inferenceExecutor(1, false)
	if err != nil {
		return err
	}
	foldNs, err := x.timed(parent, "core.fold", "core", unfolded.FoldBN)
	if err != nil {
		return err
	}
	x.add("core.fold_ms", float64(foldNs)/1e6, "ms")

	for k := 1; k <= 2; k++ {
		exec, err := x.inferenceExecutor(k, serveFoldBN)
		if err != nil {
			return err
		}
		in := tensor.New(exec.G.Nodes[0].OutShape...)
		for i := 0; i < k; i++ {
			copy(in.Data[i*len(x.images[i]):], x.images[i])
		}
		ms, err := x.repeated(parent, fmt.Sprintf("core.infer.b%d", k), "core", x.unitNs, func() error {
			_, err := exec.Forward(in)
			return err
		})
		if err != nil {
			return err
		}
		x.add(fmt.Sprintf("core.infer_ms.b%d", k), ms, "ms")
	}
	return nil
}

// kernelLayers times the unfused layers calls and the fused kernels calls on
// the same shapes: the model's largest BN input that feeds ReLU → CONV, and
// that CONV (workloads.json lists them).
func (x *tracedBench) kernelLayers(parent span) error {
	budget := x.unitNs / 2
	rng := tensor.NewRNG(x.seed + 4)
	shape := x.cfg.LayerBNInput
	n, c, h, w := shape[0], shape[1], shape[2], shape[3]
	conv := x.cfg.LayerConv.conv()
	bn := layers.NewBatchNorm(c)

	in := tensor.New(shape...)
	rng.FillNormal(in, 0, 1)
	gamma, beta := tensor.New(c), tensor.New(c)
	rng.FillUniform(gamma, 0.5, 1.5)
	rng.FillNormal(beta, 0, 0.1)
	weights := tensor.New(conv.WeightShape()...)
	rng.FillHe(weights, conv.InChannels*conv.KernelH*conv.KernelW)

	// Unfused: BN → ReLU → CONV forward, then their backward passes.
	var normed, rect, out *tensor.Tensor
	var ctx *layers.BNContext
	var err error
	bnFwd, err := x.repeated(parent, "layers.bn_fwd", "layers", budget, func() error {
		normed, ctx, err = bn.Forward(in, gamma, beta)
		return err
	})
	if err != nil {
		return err
	}
	reluFwd, _ := x.repeated(parent, "layers.relu_fwd", "layers", budget, func() error {
		rect = layers.ReLUForward(normed)
		return nil
	})
	convFwd, err := x.repeated(parent, "layers.conv_fwd", "layers", budget, func() error {
		out, err = conv.Forward(rect, weights)
		return err
	})
	if err != nil {
		return err
	}
	dout := tensor.New(out.Shape()...)
	rng.FillNormal(dout, 0, 1)
	var drect, dnormed *tensor.Tensor
	convBwd, err := x.repeated(parent, "layers.conv_bwd", "layers", budget, func() error {
		drect, _, err = conv.Backward(dout, rect, weights)
		return err
	})
	if err != nil {
		return err
	}
	reluBwd, err := x.repeated(parent, "layers.relu_bwd", "layers", budget, func() error {
		dnormed, err = layers.ReLUBackward(drect, normed)
		return err
	})
	if err != nil {
		return err
	}
	bnBwd, err := x.repeated(parent, "layers.bn_bwd", "layers", budget, func() error {
		_, _, _, err = bn.Backward(dnormed, ctx, gamma)
		return err
	})
	if err != nil {
		return err
	}
	x.add("layers.conv_fwd_ms", convFwd, "ms")
	x.add("layers.conv_bwd_ms", convBwd, "ms")
	x.add("layers.conv_gflops", float64(conv.FLOPs(n, h, w))/(convFwd*1e6), "GFLOP/s") // computed FLOPs
	x.add("layers.bn_fwd_ms", bnFwd, "ms")
	x.add("layers.bn_bwd_ms", bnBwd, "ms")
	// Computed, not measured, bytes: one read of x, one write each of y and x̂.
	x.add("layers.bn_gbps", float64(3*4*in.Shape().NumElems())/(bnFwd*1e6), "GB/s")
	x.add("layers.relu_fwd_ms", reluFwd, "ms")
	x.add("layers.relu_bwd_ms", reluBwd, "ms")

	// Fused: the kernels BNFF and RCF substitute for those calls.
	convStats, err := x.repeated(parent, "kernels.conv_stats_fwd", "kernels", budget, func() error {
		_, _, err := kernels.ConvForwardStats(conv, rect, weights)
		return err
	})
	if err != nil {
		return err
	}
	reluConv, err := x.repeated(parent, "kernels.relu_conv_fwd", "kernels", budget, func() error {
		_, err := kernels.ReLUConvForward(conv, normed, weights)
		return err
	})
	if err != nil {
		return err
	}
	var stats *layers.BNStats
	statsMs, err := x.repeated(parent, "kernels.stats_mvf", "kernels", budget, func() error {
		stats, err = bn.ComputeStatsMVF(in)
		return err
	})
	if err != nil {
		return err
	}
	var xhat *tensor.Tensor
	fusedFwd, err := x.repeated(parent, "kernels.bn_relu_conv_fwd", "kernels", budget, func() error {
		_, xhat, err = kernels.FusedBNReLUConvForward(conv, bn, in, stats, gamma, beta, weights)
		return err
	})
	if err != nil {
		return err
	}
	var dv, dgamma, dbeta *tensor.Tensor
	fusedBwd, err := x.repeated(parent, "kernels.fused_bwd", "kernels", budget, func() error {
		dv, _, dgamma, dbeta, err = kernels.FusedConvBackwardReLUBNReduce(conv, bn, dout, xhat, gamma, beta, weights)
		return err
	})
	if err != nil {
		return err
	}
	inputBwd, err := x.repeated(parent, "kernels.bn_input_bwd", "kernels", budget, func() error {
		_, err := bn.BackwardInput(dv, xhat, gamma, stats, dgamma, dbeta)
		return err
	})
	if err != nil {
		return err
	}
	x.add("kernels.conv_stats_fwd_ms", convStats, "ms")
	x.add("kernels.relu_conv_fwd_ms", reluConv, "ms")
	x.add("kernels.bn_relu_conv_fwd_ms", fusedFwd, "ms")
	x.add("kernels.fused_bwd_ms", fusedBwd, "ms")
	// Fused time over the layers calls it replaces: statistics + fused
	// normalize-ReLU-CONV over BN + ReLU + CONV, and likewise backward.
	x.add("kernels.fused_over_unfused.fwd", (statsMs+fusedFwd)/(bnFwd+reluFwd+convFwd), "ratio")
	x.add("kernels.fused_over_unfused.bwd", (fusedBwd+inputBwd)/(convBwd+reluBwd+bnBwd), "ratio")
	return nil
}

// modelLayers reports what the analytical layers say about the same graphs:
// counts that repeat exactly, set beside the measured numbers above.
func (x *tracedBench) modelLayers(parent span) error {
	totals := make([]float64, len(restructurings))
	for r, rs := range restructurings {
		g := x.trainers[r].Exec.G
		planned, err := memplan.PlanTraining(g)
		if err != nil {
			return err
		}
		sim, err := memsim.Simulate(g, memsim.Skylake())
		if err != nil {
			return err
		}
		totals[r] = sim.Total()
		x.add("memplan.planned_peak_mib."+rs.name, float64(planned.PeakBytes)/(1<<20), "MiB")
		x.add("memsim.dram_mib_per_step."+rs.name, float64(sim.TotalDRAMBytes())/(1<<20), "MiB")
	}
	x.add("memsim.modeled_speedup.bnff", totals[0]/totals[2], "ratio")
	sum, err := x.trainers[0].Exec.G.Summarize()
	if err != nil {
		return err
	}
	x.add("graph.gflop_per_step", float64(sum.TrainingFLOPs)/1e9, "GFLOP")
	return nil
}

// scaleLayers runs one extra bnff block with two workers and one with two
// sync-BN replicas. Both use both cores, so on a 2-CPU box they compete with
// the collector and the numbers are diagnostic.
func (x *tracedBench) scaleLayers(parent span) error {
	const bnff = 2
	one, err := x.trainBlock(bnff, x.cfg.BlockSteps, x.step)
	if err != nil {
		return err
	}
	exec := x.trainers[bnff].Exec
	exec.SetWorkers(2)
	s := x.begin(parent)
	two, err := x.trainBlock(bnff, x.cfg.BlockSteps, x.step)
	x.end(s, "parallel.block.workers2", "parallel", bnff)
	exec.SetWorkers(1)
	if err != nil {
		return err
	}
	x.add("parallel.scale2", two.samplesPerS()/one.samplesPerS(), "ratio")

	primary, err := x.trainingExecutor(bnff)
	if err != nil {
		return err
	}
	data, err := x.dataset(primary.G, 1)
	if err != nil {
		return err
	}
	tr, err := train.NewTrainer(primary, data, train.WithBatchSize(x.cfg.Batch),
		train.WithReplicas(2), train.WithBNStrategy(ddp.BNSync))
	if err != nil {
		return err
	}
	ddpStep := func(r int) (float64, error) {
		res, err := tr.Step()
		x.countStep(r, res.Loss)
		return res.Loss, err
	}
	if _, err := ddpStep(bnff); err != nil { // warm the replicas' arenas
		return err
	}
	before := tr.Group().ReduceBytes()
	s = x.begin(parent)
	both, err := x.trainBlock(bnff, x.cfg.BlockSteps, ddpStep)
	x.end(s, "ddp.block.replicas2", "ddp", bnff)
	if err != nil {
		return err
	}
	x.add("ddp.scale2", both.samplesPerS()/one.samplesPerS(), "ratio")
	x.add("ddp.reduce_kib_per_step", float64(tr.Group().ReduceBytes()-before)/float64(both.steps)/1024, "KiB")
	return nil
}

// obsLayers runs one step of each restructuring under the tracer the product
// already ships (core.WithTracer's spans) and reports its layer-class shares:
// the measured side of the measured-vs-modeled comparison.
func (x *tracedBench) obsLayers(parent span) error {
	for r, rs := range restructurings {
		inner := obs.NewTracer(x.clock)
		exec := x.trainers[r].Exec
		exec.SetTracer(inner)
		_, err := x.step(r)
		exec.SetTracer(nil)
		if err != nil {
			return err
		}
		if r == 0 {
			x.add("obs.spans_per_step", float64(inner.Len()), "count")
		}
		shares := obs.LayerBreakdown(inner.Spans())
		conv := shares.ShareOf(graph.ClassConv.String())
		bn := shares.ShareOf(graph.ClassBN.String())
		relu := shares.ShareOf(graph.ClassReLU.String())
		x.add("obs.class_share.conv."+rs.name, conv, "share")
		x.add("obs.class_share.bn."+rs.name, bn, "share")
		x.add("obs.class_share.relu."+rs.name, relu, "share")
		x.add("obs.class_share.other."+rs.name, 1-conv-bn-relu, "share")
	}
	return nil
}
