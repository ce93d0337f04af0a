#!/usr/bin/env bash
# Paper-grade experiment runner: build cmd/bnff-exp, execute the committed
# grid (scripts/paper/experiments.json), validate the emitted
# BENCH_train.json, prove the byte-determinism contract on its non-timing
# fields, and compare every scenario's digest with the committed file. Run
# from the repository root:
#
#   scripts/paper/run_all.sh              # full grid -> BENCH_train.json in repo root
#   scripts/paper/run_all.sh -smoke       # the grid's smoke subset (CI)
#
# BNFF_BENCH_OUT, when set, chooses the output directory so CI can upload
# BENCH_train.json as a workflow artifact. That the committed grid is what
# `bnff-exp -write-grid` renders is checked by go test (cmd/bnff-exp).
set -euo pipefail

SMOKE=""
if [ "${1:-}" = "-smoke" ]; then
    SMOKE="-smoke"
    shift
fi
[ $# -eq 0 ] || { echo "usage: $0 [-smoke]" >&2; exit 2; }

GRID="scripts/paper/experiments.json"
OUT="${BNFF_BENCH_OUT:-.}"
BENCH="BENCH_train.json"
BIN="$(mktemp -d)/bnff-exp"
mkdir -p "$OUT"

# The committed BENCH file is the digest reference; snapshot it first,
# because with OUT=. the run below overwrites it.
REF="$(mktemp -d)"
cp "$BENCH" "$REF/"

go build -o "$BIN" ./cmd/bnff-exp

echo "== bnff-exp $SMOKE (run 1) =="
"$BIN" -grid "$GRID" -out "$OUT" $SMOKE

# The file must exist, revalidate from disk, and parse as plain JSON.
[ -f "$OUT/$BENCH" ] || { echo "missing $OUT/$BENCH" >&2; exit 1; }
python3 -m json.tool "$OUT/$BENCH" >/dev/null || { echo "invalid JSON: $OUT/$BENCH" >&2; exit 1; }
"$BIN" -validate "$OUT/$BENCH"

# Determinism: a second run's canonical (timing-stripped) form must be
# byte-identical to the first's.
echo "== bnff-exp $SMOKE (run 2, determinism) =="
OUT2="$(mktemp -d)"
"$BIN" -grid "$GRID" -out "$OUT2" $SMOKE >/dev/null
"$BIN" -canon "$OUT/$BENCH" > "$OUT2/$BENCH.canon1"
"$BIN" -canon "$OUT2/$BENCH" > "$OUT2/$BENCH.canon2"
cmp -s "$OUT2/$BENCH.canon1" "$OUT2/$BENCH.canon2" || {
    echo "non-timing fields differ across runs: $BENCH" >&2
    diff "$OUT2/$BENCH.canon1" "$OUT2/$BENCH.canon2" >&2 || true
    exit 1
}
echo "canonical BENCH form byte-identical across runs"

# Trajectory gate: a scenario's digest is a pure function of its spec and the
# numeric code, so a fresh digest that differs from the committed one is a
# behaviour change — the exact, non-timing half of a perf-trajectory diff. A
# deliberate change passes once the regenerated file in $OUT is committed.
python3 - "$REF/$BENCH" "$OUT/$BENCH" <<'PY'
import json, sys
ref, out = sys.argv[1:3]
want = {s["name"]: s["digest"] for s in json.load(open(ref))["scenarios"]}
bad = 0
for s in json.load(open(out))["scenarios"]:
    if want.get(s["name"]) != s["digest"]:
        print(f"{s['name']}: digest {s['digest']}, committed {want.get(s['name'], 'absent')}", file=sys.stderr)
        bad += 1
sys.exit(1 if bad else 0)
PY
echo "every scenario digest matches the committed BENCH file"
echo "paper run OK ($BENCH in $OUT)"
