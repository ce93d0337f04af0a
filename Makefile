GO ?= go

.PHONY: build test vet race lint bench smoke fleet-smoke profile-smoke exp-smoke ddp-smoke alloc-guard bce nofma fuzz loc check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race run exercises the worker-pool paths (the serial-vs-parallel
# equivalence test runs every tiny model at workers > 1) and is part of the
# tier-1 verification for any change touching internal/parallel or a layer
# dispatch.
race:
	$(GO) test -race ./...

# bnff-lint is the repo's own static-analysis suite (internal/analysis). It
# enforces the determinism, pool-dispatch, and numerics contracts the README
# "Static analysis" section documents: no ad-hoc goroutines or channels
# outside the allowlisted concurrency domains internal/parallel,
# internal/serve, internal/obs, and internal/ddp (poolonly), no
# order-sensitive sinks in map
# ranges (maporder), no package-level mutable state in the hot-path packages
# (noglobals), det-reduce markers on every cross-partition combine loop
# (detreduce), all randomness through the seeded tensor RNG and all library
# timing through injected clocks (seededrand), arena buffers released or
# detached on every path (arenaown), tracer spans ended on every path
# (spanpair), and no heap-allocating constructs inside "hot-path:" functions
# or pool-dispatched closures (hotalloc). Suppress individual findings with
# "//lint:ignore <analyzer> <reason>" on or directly above the line; a
# suppression whose finding disappears is itself flagged (staleignore).
lint:
	$(GO) run ./cmd/bnff-lint ./...

# Package-level benchmarks live next to their packages (layers, kernels,
# parallel, ...), so bench sweeps the whole module, not just the root.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# End-to-end check of cmd/bnff-serve: build, self-train, serve, exercise
# /predict /healthz /stats, and verify graceful SIGTERM shutdown.
smoke:
	./scripts/serve-smoke.sh

# End-to-end check of the serving fleet: bnff-proxy over two bnff-serve
# backends on the real wire — rolling checkpoint reload under load (zero
# non-200, answers bit-match a fresh single-process folded reference),
# SIGKILL one backend mid-traffic (zero accepted-request loss, control-plane
# ejection), clean SIGTERM shutdown.
fleet-smoke:
	./scripts/fleet-smoke.sh

# End-to-end check of cmd/bnff-profile: traced training step per scenario
# under the deterministic step clock, JSON-valid Chrome traces, byte-identical
# across runs.
profile-smoke:
	./scripts/profile-smoke.sh

# Smoke run of the paper-grade experiment harness: build cmd/bnff-exp, run
# the committed grid's smoke subset with repeats, validate the emitted
# BENCH_train.json (embedded checks must all pass), prove its canonical form
# is byte-deterministic across two runs, and compare every digest with the
# committed file.
exp-smoke:
	./scripts/paper/run_all.sh -smoke

# End-to-end check of data-parallel training through cmd/bnff-train: 2-replica
# sync-BN and ghost-batch runs are byte-deterministic across repeats, the two
# strategies produce different checkpoints, and -replicas 1 matches the plain
# trainer byte for byte.
ddp-smoke:
	./scripts/ddp-smoke.sh

# Allocation-regression guard: steady-state per-step heap allocations must
# stay within the committed budget
# (internal/core/testdata/arena_alloc_budget.txt) and at least 10x below the
# same executor on plain allocation; the blocked kernels and both convolution
# window bodies must allocate nothing; a serve replica's executor must recycle
# its activations across same-size batches. Runs without -race: the race
# runtime inflates AllocsPerRun, so the budget test skips itself there (see
# raceEnabled in internal/core).
alloc-guard:
	$(GO) test ./internal/core/ -run TestArenaForwardAllocBudget -count=1 -v
	$(GO) test ./internal/layers/ -run TestBlockedKernelsAllocFree -count=1 -v
	$(GO) test ./internal/serve/ -run TestReplicaExecutorRecyclesActivations -count=1 -v

# Bounds-check budget for the blocked compute core: the compiler's own list of
# the index and slice checks it could not prove away in
# internal/layers/blocked.go (the convolution tiles, quads and points that
# every conv and FC runs — every function there is hot) must not grow past the
# committed count (internal/layers/testdata/bce_budget.txt). A check inside a
# tap loop costs a compare and a branch per load, so one that creeps into an
# inner loop shows here before it shows in a benchmark. The count is what the
# image's toolchain (go1.24) proves; lower the file when a hoist removes checks.
bce:
	@n=$$($(GO) build -gcflags=-d=ssa/check_bce ./internal/layers 2>&1 | grep -c 'blocked\.go:.*Found Is\(Slice\)\?InBounds'); \
	budget=$$(cat internal/layers/testdata/bce_budget.txt); \
	echo "internal/layers/blocked.go: $$n bounds checks, budget $$budget"; \
	[ "$$n" -le "$$budget" ]

# No fused multiply-add in the numeric packages. Go may fuse acc += a*b into
# one FMA — one rounding instead of two — on arm64 (and on amd64 at
# GOAMD64=v3), which would change every digest and break the AVX2 lanes'
# bit-identity with the scalar bodies. Every such site is written
# acc += float32(a*b), whose explicit conversion the Go spec says forbids the
# fusion. This cross-compiles layers, core, tensor and train for arm64 and
# fails on any fused instruction in their assembly listing.
nofma:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags='-S' ./internal/layers ./internal/core ./internal/tensor ./internal/train 2>&1) || { echo "$$out"; exit 1; }; \
	fused=$$(echo "$$out" | grep -E '\b(FMADD|FMSUB|FNMADD|FNMSUB)'); \
	if [ -n "$$fused" ]; then echo "$$fused"; exit 1; fi; \
	echo "layers, core, tensor, train: no fused multiply-add (arm64)"

# Native fuzzing, 30 s per target. FuzzConvWindow (internal/layers): random
# geometries, ConvWindow configurations and values, non-finite ones included,
# checked bitwise against the unfused composition in both directions.
# FuzzCheckpointLoad (internal/core): arbitrary bytes into Executor.Load, which
# must not panic, must change nothing when it fails, and must re-Save to the
# same bytes when it succeeds. Plain `go test` replays only the seeds.
fuzz:
	$(GO) test ./internal/layers/ -run '^$$' -fuzz '^FuzzConvWindow$$' -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzCheckpointLoad$$' -fuzztime 30s

# Non-test Go lines per top-level directory (and the total): the number
# ROADMAP's "less code" targets are quoted against.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' | xargs wc -l | \
		awk '$$2 != "total" { split($$2, p, "/"); n[p[2]] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

check: vet race lint smoke fleet-smoke profile-smoke exp-smoke ddp-smoke alloc-guard bce nofma
