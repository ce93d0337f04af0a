// Package bnff reproduces "Restructuring Batch Normalization to Accelerate
// CNN Training" (Jung et al., SysML/MLSys 2019) as a pure-Go library: the
// BN Fission-n-Fusion graph restructuring (internal/core), the numeric layer
// and fused-kernel substrates it rewrites between (internal/layers,
// internal/kernels), the shared worker-pool runtime that parallelizes both
// (internal/parallel), the CNN model zoo the paper evaluates
// (internal/models), the analytical memory/timing machine model standing in
// for the paper's Skylake/KNL/GPU testbed (internal/memsim), and one
// experiment generator per table and figure, plus the ablations of BNFF's
// gain (internal/experiments).
//
// # Configuration
//
// Execution is configured with functional options at construction. An
// executor owns its worker pool, its statistics/inference modes, and a
// private activation arena that recycles every per-pass buffer along the
// live intervals internal/memplan computes (bit-identical to plain
// allocation; there is no switch):
//
//	exec, err := core.NewExecutor(g,
//	        core.WithSeed(42),
//	        core.WithWorkers(runtime.GOMAXPROCS(0)), // parallel layer execution
//	)
//
// and a trainer composes on top:
//
//	tr, err := train.NewTrainer(exec, data,
//	        train.WithBatchSize(32),
//	        train.WithOptimizer(train.NewSGD(0.1, 0.9, 1e-4)),
//	        train.WithWorkers(runtime.GOMAXPROCS(0)))
//
// Parallel execution is deterministic: forward passes are bit-identical to
// serial execution and backward passes stay within float32 round-off (see
// internal/parallel for the contract). Configuration is options-only
// (core.With*, train.With*); no hot path reads a global.
//
// The convolution is written once per direction, as a per-sample window
// (internal/layers/window.go): fill the ifmap tile, convolve the sample, take
// its Σx/Σx² partials going forward; regenerate the tile, run the sample's
// backward, mask and take its dγ/dβ partials going back. The baseline layer,
// RCF, both BNFF fusions and the folded-bias inference conv are field choices
// of one layers.ConvWindow the executor fills in from the node. Every MVF
// statistic is per-sample moments plus one close, and the window hands its
// moments back unclosed: the executor closes them, or under ddp sync-BN its
// StatsHook folds every replica's, so no statistic sweeps a finished ofmap.
//
// # Serving
//
// internal/serve and cmd/bnff-serve deploy a checkpoint behind HTTP with
// dynamic micro-batching: single-image POST /predict requests coalesce into
// mini-batches (when MaxBatch are queued or MaxWait expires) dispatched to a
// pool of replica inference executors — one per replica, answering every
// batch size, since an executor takes its batch size from its input — with
// bounded queueing and explicit load shedding (429). Replicas are built
// core.WithInference and, by default, core.WithFoldedBN — an inference-time
// compile pass that rewrites every CONV→BN pair where the BN is the conv's
// sole consumer into a single CONV with per-channel scaled weights and a
// folded bias, so those BNs cost
// zero feature-map sweeps at serving time; unfoldable BNs (after concat,
// pooling, EWS, or fan-out) keep the element-wise normalize path on running
// statistics. Inference has no cross-sample reductions, so a request's
// logits are bit-identical regardless of the batch it is coalesced into.
// GET /healthz and GET /stats complete the ops surface; latency quantiles
// come from the one deterministic power-of-two histogram /metrics exports,
// fed by an injected clock.
//
// internal/fleet and cmd/bnff-proxy scale that to a fleet: a front proxy
// routes POST /predict across N bnff-serve backends under a deterministic
// policy (rendezvous hashing with a mix64 finalizer by default, or
// least-loaded / round-robin — all pure functions of key and membership), a
// control plane registers, probes, drains, ejects, and readmits backends on
// an injected clock, and POST /fleet/reload rolls a new checkpoint through
// the fleet one drained backend at a time via serve's atomic-generation
// Reload, keeping capacity at N-1 throughout. Bit-deterministic inference
// makes zero-downtime testable: during a roll every answer must bit-match
// exactly one checkpoint generation, and afterwards only the new one
// (asserted end to end, over real processes and sockets, by
// scripts/fleet-smoke.sh, and in-process by internal/fleet's
// TestEngineFleetRollingReload).
//
// # Observability
//
// internal/obs instruments real runs the same way internal/memsim predicts
// them: a span tracer (injected monotonic clock, never a library wall-clock
// read) records per-node forward/backward spans, pool dispatch/drain spans,
// and per-step envelopes through core.WithTracer / train.WithTracer; a
// counter/gauge/histogram registry with deterministic text exposition backs
// GET /metrics on bnff-serve; and a report layer aggregates spans into the
// paper's Figure-1-style per-class time breakdown (CONV vs BN vs ReLU vs
// other, forward/backward split). Both tracer and registry are nil-safe and
// allocation-free when disabled, so the instrumented hot paths cost nothing
// unless a tool opts in. cmd/bnff-profile drives a traced training run per
// restructuring scenario and prints measured-vs-modeled breakdowns; memsim's
// modeled trace goes through the same Chrome-trace writer, so measured and
// modeled traces load side by side in chrome://tracing. Under an injected
// step clock the traces are byte-identical run to run.
//
// # Data-parallel training
//
// internal/ddp scales the mini-batch across N replica executors without
// giving up replayability: each step shards the batch into contiguous
// zero-copy views, runs forward/backward per replica on the parallel pool,
// and averages gradients through a fixed-order binary-tree all-reduce
// (det.TreePlan — combine order is a pure function of replica index, never
// of goroutine scheduling). BN statistics follow one of two strategies
// (train.WithReplicas / train.WithBNStrategy, scenario fields Replicas /
// BNStrategy, flags -replicas / -bn-strategy): local, where each replica
// normalizes over its own shard (ghost-batch BN), and sync, where replicas
// exchange single-sweep (Σx, Σx², count) moments so every shard normalizes
// with whole-batch statistics — exactly one extra all-reduce per BN layer,
// the paper's MVF form paying off a second time. Sync forward statistics are
// bit-identical to a single executor running the undivided batch. Replicas
// run the primary's own graph: an executor takes its batch size from its
// input, so a shard is just a smaller input. One replica is the plain
// trainer; a group needs at least two.
//
// # Static analysis
//
// The determinism contracts are enforced structurally by an in-tree,
// stdlib-only static-analysis suite (internal/analysis; driver
// cmd/bnff-lint; `make lint`, folded into `make check` and CI). Six
// analyzers cover the regression classes that would invalidate the paper's
// comparisons: poolonly (no goroutines, sync.WaitGroup, or channels outside
// the allowlisted concurrency domains internal/parallel, internal/serve,
// internal/obs, internal/ddp, and internal/fleet — all compute fan-out
// dispatches through the executor's pool),
// maporder (no float accumulation, appends, or work-spawning inside a range
// over a map; iterate det.SortedKeys instead), noglobals (no package-level
// mutable state in the hot-path packages), detreduce (every cross-partition
// float combine after a pool dispatch reduces in partition order under a
// `// det-reduce:` marker), and seededrand (math/rand and time.Now are
// confined to internal/tensor/rand.go, internal/obs/clock.go, and cmd/).
// Deliberate exceptions are suppressed inline with
// `//lint:ignore <analyzer> <reason>`. See the "Static analysis" section
// of README.md.
//
// The root package holds only this overview. Every modeled number comes
// from one internal/experiments entry, printed by `bnff-profile paper` and
// asserted in its tests; benchmarks live beside the packages they time, and
// the repository benchmark (benchmark/) measures end to end. See README.md
// for the map and EXPERIMENTS.md for paper-vs-measured results.
package bnff
