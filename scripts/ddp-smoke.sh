#!/usr/bin/env bash
# Smoke test for data-parallel training (internal/ddp) through cmd/bnff-train:
#
#   1. A 2-replica sync-BN self-train run is byte-deterministic: two runs from
#      the same seed produce byte-identical checkpoints (the exchanger's
#      replica-order folds and the fixed-order tree all-reduce leave no
#      scheduling noise in the trained parameters).
#   2. Same for the ghost-batch (local) strategy at 2 replicas.
#   3. The two strategies genuinely differ: sync normalizes with whole-batch
#      statistics, local with per-shard ones, so their checkpoints must not
#      collide.
#   4. -replicas 1 is the plain trainer and matches a run without the flag.
#
# Run from the repository root (make ddp-smoke / CI).
set -euo pipefail

DIR="$(mktemp -d)"
BIN="$DIR/bnff-train"
trap 'rm -rf "$DIR"' EXIT

go build -o "$BIN" ./cmd/bnff-train

run() { # run <out.ckpt> <extra flags...>
    local out="$1"; shift
    "$BIN" -model tiny-cnn -restructure bnff -batch 8 -steps 6 -log-every 6 \
        -save "$out" "$@" >/dev/null
}

run "$DIR/sync-a.ckpt" -replicas 2 -bn-strategy sync
run "$DIR/sync-b.ckpt" -replicas 2 -bn-strategy sync
cmp "$DIR/sync-a.ckpt" "$DIR/sync-b.ckpt" \
    || { echo "2-replica sync-BN training is not byte-deterministic" >&2; exit 1; }
echo "ok: 2-replica sync-BN run is byte-deterministic"

run "$DIR/local-a.ckpt" -replicas 2 -bn-strategy local
run "$DIR/local-b.ckpt" -replicas 2 -bn-strategy local
cmp "$DIR/local-a.ckpt" "$DIR/local-b.ckpt" \
    || { echo "2-replica ghost-batch training is not byte-deterministic" >&2; exit 1; }
echo "ok: 2-replica ghost-batch run is byte-deterministic"

if cmp -s "$DIR/sync-a.ckpt" "$DIR/local-a.ckpt"; then
    echo "sync and local checkpoints are identical; the BN strategy is not taking effect" >&2
    exit 1
fi
echo "ok: sync and ghost-batch checkpoints differ"

run "$DIR/one.ckpt" -replicas 1
run "$DIR/plain.ckpt"
cmp "$DIR/one.ckpt" "$DIR/plain.ckpt" \
    || { echo "-replicas 1 diverged from the plain trainer" >&2; exit 1; }
echo "ok: -replicas 1 matches the plain trainer byte for byte"

echo "ddp smoke passed"
