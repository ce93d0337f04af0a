// Package obs is the runtime observability subsystem: a span tracer, a
// metrics registry, and a report layer that turns recorded spans into the
// paper's Figure-1-style layer-time breakdown.
//
// The repo's analytical models (internal/memsim, internal/cachesim) can only
// *predict* where a training iteration spends its time; this package
// instruments a real run so the BNFF/RCF/MVF speedups can be attributed per
// layer and validated against the model. cmd/bnff-profile drives both sides
// and prints the measured-vs-modeled comparison.
//
// Design constraints, inherited from the module's contracts:
//
//   - No wall-clock reads in library code (the seededrand contract): every
//     Tracer takes an injected monotonic clock, mirroring serve.Config.Clock.
//     WallClock (in clock.go, the one sanctioned wall-clock site) builds one
//     for cmd/ use; StepClock builds a deterministic fake for tests and for
//     reproducible traces.
//   - Deterministic output: registry snapshots and text exposition iterate
//     metrics in sorted-name order (internal/det), and Chrome-trace JSON is
//     emitted in recording order with sorted args, so two runs under the same
//     injected clock serialize byte-identically.
//   - Free when disabled: every Tracer and Registry method is safe on a nil
//     receiver and returns immediately without allocating, so instrumented
//     hot paths (core.Executor, parallel.Pool) cost two predictable branches
//     when observability is off.
//
// The Chrome-trace export is also what memsim's ChromeTrace writes through
// (event fields name, cat, ph "X", ts/dur in microseconds, pid, tid, args),
// so a measured trace and a modeled trace load side by side in
// chrome://tracing or ui.perfetto.dev.
package obs
