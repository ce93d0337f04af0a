#!/usr/bin/env bash
# Smoke test for cmd/bnff-profile: run a traced training step of a tiny model
# under the deterministic step clock, check the breakdown output, validate
# that every emitted Chrome trace is well-formed JSON, and verify the
# measured traces are byte-identical across two runs (the determinism
# contract of the injected clock). Then run each analytical verb once: paper
# over every experiment (the ablation included), graph and cache; set -e fails
# the script on a non-zero exit. Run from the repository root
# (make profile-smoke / CI).
#
# BNFF_PROFILE_OUT, when set, keeps the traces in that directory so CI can
# upload them as a workflow artifact.
set -euo pipefail

MODEL="${BNFF_PROFILE_MODEL:-tiny-densenet}"
OUT="${BNFF_PROFILE_OUT:-$(mktemp -d)}"
BIN="$(mktemp -d)/bnff-profile"
mkdir -p "$OUT"

go build -o "$BIN" ./cmd/bnff-profile

run() { # run <prefix>
    "$BIN" -model "$MODEL" -batch 4 -steps 1 -clock step -trace "$OUT/$1"
}

echo "== bnff-profile $MODEL (run 1) =="
run run1 | tee "$OUT/breakdown.txt"

# The summary must report the headline comparison.
grep -q "non-CONV share:" "$OUT/breakdown.txt" || {
    echo "breakdown output missing the non-CONV share summary" >&2
    exit 1
}

# Every scenario must have produced a measured and a modeled trace, and each
# must parse as JSON.
traces=("$OUT"/run1.*.trace.json)
[ "${#traces[@]}" -ge 10 ] || {
    echo "expected >=10 trace files (measured+modeled x 5 scenarios), got ${#traces[@]}" >&2
    exit 1
}
for t in "${traces[@]}"; do
    python3 -m json.tool "$t" >/dev/null || { echo "invalid JSON: $t" >&2; exit 1; }
done
echo "all ${#traces[@]} traces parse as JSON"

# Determinism: a second run under the same step clock must emit byte-identical
# measured traces.
echo "== bnff-profile $MODEL (run 2, determinism) =="
run run2 >/dev/null
for t in "$OUT"/run1.*.trace.json; do
    cmp -s "$t" "${t/run1/run2}" || { echo "trace differs across runs: $t" >&2; exit 1; }
done
rm -f "$OUT"/run2.*.trace.json
echo "traces byte-identical across runs"

echo "== bnff-profile paper / graph / cache =="
"$BIN" paper >/dev/null
"$BIN" graph -model densenet121 -summary >/dev/null
"$BIN" cache -model tiny-cnn -batch 4 >/dev/null
echo "analytical verbs OK"
echo "profile smoke OK (traces in $OUT)"
