#!/usr/bin/env bash
# Paper-grade experiment runner: build cmd/bnff-exp, execute the committed
# grid (scripts/paper/experiments.json), validate the emitted BENCH files,
# prove the byte-determinism contract on the non-timing fields, and compare
# every scenario's digest with the committed BENCH files. Run from the
# repository root:
#
#   scripts/paper/run_all.sh              # full grid -> BENCH files in repo root
#   scripts/paper/run_all.sh -smoke       # the grid's smoke subset (CI)
#
# BNFF_BENCH_OUT, when set, chooses the output directory so CI can upload
# BENCH_train.json / BENCH_serve.json as workflow artifacts.
set -euo pipefail

SMOKE=""
if [ "${1:-}" = "-smoke" ]; then
    SMOKE="-smoke"
    shift
fi
[ $# -eq 0 ] || { echo "usage: $0 [-smoke]" >&2; exit 2; }

GRID="scripts/paper/experiments.json"
OUT="${BNFF_BENCH_OUT:-.}"
BIN="$(mktemp -d)/bnff-exp"
mkdir -p "$OUT"

# The committed BENCH files are the digest reference; snapshot them first,
# because with OUT=. the run below overwrites them.
REF="$(mktemp -d)"
cp BENCH_train.json BENCH_serve.json "$REF/"

go build -o "$BIN" ./cmd/bnff-exp

# The committed grid must be exactly what -write-grid would regenerate;
# a drifted checkin would silently change what "the paper's grid" means.
TMPGRID="$(mktemp -d)/experiments.json"
"$BIN" -write-grid -grid "$TMPGRID" >/dev/null
cmp -s "$GRID" "$TMPGRID" || {
    echo "$GRID is stale: regenerate with 'go run ./cmd/bnff-exp -write-grid'" >&2
    exit 1
}
echo "grid up to date: $GRID"

echo "== bnff-exp $SMOKE (run 1) =="
"$BIN" -grid "$GRID" -out "$OUT" $SMOKE

# Both files must exist, revalidate from disk, and parse as plain JSON.
for f in "$OUT/BENCH_train.json" "$OUT/BENCH_serve.json"; do
    [ -f "$f" ] || { echo "missing $f" >&2; exit 1; }
    python3 -m json.tool "$f" >/dev/null || { echo "invalid JSON: $f" >&2; exit 1; }
done
"$BIN" -validate "$OUT/BENCH_train.json,$OUT/BENCH_serve.json"

# Determinism: a second run's canonical (timing-stripped) form must be
# byte-identical to the first's.
echo "== bnff-exp $SMOKE (run 2, determinism) =="
OUT2="$(mktemp -d)"
"$BIN" -grid "$GRID" -out "$OUT2" $SMOKE >/dev/null
for name in BENCH_train.json BENCH_serve.json; do
    "$BIN" -canon "$OUT/$name" > "$OUT2/$name.canon1"
    "$BIN" -canon "$OUT2/$name" > "$OUT2/$name.canon2"
    cmp -s "$OUT2/$name.canon1" "$OUT2/$name.canon2" || {
        echo "non-timing fields differ across runs: $name" >&2
        diff "$OUT2/$name.canon1" "$OUT2/$name.canon2" >&2 || true
        exit 1
    }
done
echo "canonical BENCH forms byte-identical across runs"

# Trajectory gate: a scenario's digest is a pure function of its spec and the
# numeric code, so a fresh digest that differs from the committed one is a
# behaviour change — the exact, non-timing half of a perf-trajectory diff. A
# deliberate change passes once the regenerated files in $OUT are committed.
python3 - "$REF" "$OUT" <<'PY'
import json, sys
ref, out = sys.argv[1:3]
bad = 0
for name in ("BENCH_train.json", "BENCH_serve.json"):
    want = {s["name"]: s["digest"] for s in json.load(open(f"{ref}/{name}"))["scenarios"]}
    for s in json.load(open(f"{out}/{name}"))["scenarios"]:
        if want.get(s["name"]) != s["digest"]:
            print(f"{name}: {s['name']}: digest {s['digest']}, committed {want.get(s['name'], 'absent')}", file=sys.stderr)
            bad += 1
sys.exit(1 if bad else 0)
PY
echo "every scenario digest matches the committed BENCH files"
echo "paper run OK (BENCH files in $OUT)"
