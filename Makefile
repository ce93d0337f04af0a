GO ?= go

.PHONY: build test vet race lint bench smoke fleet-smoke profile-smoke ddp-smoke alloc-guard poison bce nofma fuzz loc check

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

# Benchmarks live next to their packages (layers, kernels, core, ddp,
# parallel, ...); the modeled numbers are experiments, printed by
# `bnff-profile paper` and asserted in internal/experiments, not benchmarks.
# bench sweeps the whole module and runs every benchmark body once and no
# tests (make test runs those), so a body that no longer compiles or fails
# shows on every PR (CI's check job).
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x ./...

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
# across runs; then every paper experiment, and the graph and cache verbs.
profile-smoke:
	./scripts/profile-smoke.sh

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

# Use-after-release instrument: with the arenapoison build tag, every range
# the arena takes back (Put, PutFloats, Detach) is overwritten with a NaN
# pattern. Arena ranges are shared across sizes, so a read after release
# would otherwise silently read a neighbouring buffer's values; under the
# tag it turns into NaNs and a failed digest or bit-identity test. Get still
# zeroes, so every golden value holds when nothing reads after release.
# Besides the arena, the layers and the executor's own packages, train
# (Trainer.Step replays the training intervals with the optimizer in the
# loop) and fleet (replicas served behind the proxy) run under it.
poison:
	$(GO) test -tags arenapoison ./internal/tensor ./internal/core ./internal/scenario ./internal/serve ./internal/ddp ./internal/layers ./internal/train ./internal/fleet

# Bounds-check budgets for the compute core: the compiler's own list of the
# index and slice checks it could not prove away in internal/layers/blocked.go
# (the convolution tiles, quads and points that every conv and FC runs — every
# function there is hot) and in internal/layers/lanes.go (the Go drivers of the
# lane kernels: the block loops, the channel-lane pixel walks, the transposes
# and the sweeps' tails) must not grow past each file's committed count
# (internal/layers/testdata/bce_budget.txt and bce_budget_lanes.txt). A check
# inside a tap loop costs a compare and a branch per load, so one that creeps
# into an inner loop shows here before it shows in a benchmark. The counts are
# what the image's toolchain (go1.24) proves; lower a file when a hoist removes
# checks.
bce:
	@checks=$$($(GO) build -gcflags=-d=ssa/check_bce ./internal/layers 2>&1); \
	for f in blocked:bce_budget lanes:bce_budget_lanes; do \
		n=$$(echo "$$checks" | grep -c "$${f%%:*}\.go:.*Found Is\(Slice\)\?InBounds"); \
		budget=$$(cat internal/layers/testdata/$${f#*:}.txt); \
		echo "internal/layers/$${f%%:*}.go: $$n bounds checks, budget $$budget"; \
		[ "$$n" -le "$$budget" ] || exit 1; \
	done

# No fused multiply-add in the numeric packages. Go may fuse acc += a*b into
# one FMA — one rounding instead of two — on arm64 and ppc64le, which
# would change every digest and break the AVX2 lanes' bit-identity with the
# scalar bodies. (go1.24 does not fuse on amd64, not even at GOAMD64=v3:
# `acc += a[i]*b[i]` compiles to MULSS + ADDSS there, and only math.FMA
# becomes VFMADD231SD.) Every such site is written acc += float32(a*b),
# whose explicit conversion the Go spec says forbids the fusion. This
# cross-compiles layers, core, tensor and train for arm64 and fails on any
# fused instruction in their assembly listing, and fails on any fused
# instruction in the hand-written lane kernels (internal/layers/*_amd64.s),
# which no compiler listing covers.
nofma:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags='-S' ./internal/layers ./internal/core ./internal/tensor ./internal/train 2>&1) || { echo "$$out"; exit 1; }; \
	fused=$$(echo "$$out" | grep -E '\b(FMADD|FMSUB|FNMADD|FNMSUB)'); \
	if [ -n "$$fused" ]; then echo "$$fused"; exit 1; fi; \
	echo "layers, core, tensor, train: no fused multiply-add (arm64)"; \
	fused=$$(grep -nE 'VFMADD|VFMSUB|VFNMADD|VFNMSUB' internal/layers/*_amd64.s); \
	if [ -n "$$fused" ]; then echo "$$fused"; exit 1; fi; \
	echo "internal/layers/*_amd64.s: no fused multiply-add"

# Native fuzzing, 30 s per target. FuzzConvWindow (internal/layers): random
# geometries, ConvWindow configurations and values, non-finite ones included,
# checked bitwise against the unfused composition in both directions.
# FuzzCheckpointLoad (internal/core): arbitrary bytes into Executor.Load, which
# must not panic, must change nothing when it fails, and must re-Save to the
# same bytes when it succeeds. FuzzArena (internal/tensor): arbitrary
# Get/Floats/Put/PutFloats/Detach/stray-Put sequences against the range
# allocator — no overlap, zeroed Gets, exact byte counts, replayable layout.
# Plain `go test` replays only the seeds.
fuzz:
	$(GO) test ./internal/layers/ -run '^$$' -fuzz '^FuzzConvWindow$$' -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzCheckpointLoad$$' -fuzztime 30s
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz '^FuzzArena$$' -fuzztime 30s

# Non-test Go lines per top-level directory (and the total): the number
# ROADMAP's "less code" targets are quoted against. Then the hand-written
# assembly of the lane kernels, on a row of its own outside the Go total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' | xargs wc -l | \
		awk '$$2 != "total" { split($$2, p, "/"); n[p[2]] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
	@cat internal/layers/*.s | wc -l | awk '{ printf "%7d asm (internal/layers)\n", $$1 }'

check: vet race lint smoke fleet-smoke profile-smoke ddp-smoke alloc-guard poison bce nofma
