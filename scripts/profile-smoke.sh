#!/usr/bin/env bash
# Smoke test for cmd/bnff-profile: run a traced training step of a tiny model
# under the deterministic step clock, check the breakdown output, validate
# that every emitted Chrome trace is well-formed JSON, and verify the
# measured traces are byte-identical across two runs (the determinism
# contract of the injected clock). Then run each analytical verb once: paper
# over every experiment (the ablation included), graph and cache; set -e fails
# the script on a non-zero exit. tiny-cnn's swept-byte and FLOP totals under
# baseline and BNFF must read non-zero, and the BNFF+ICF profile table and a
# one-step `bnff-train -restructure bnff+icf` must each say the executor ran
# BNFF. Run from the repository root
# (make profile-smoke / CI).
#
# BNFF_PROFILE_OUT, when set, keeps the traces in that directory so CI can
# upload them as a workflow artifact.
set -euo pipefail

MODEL="${BNFF_PROFILE_MODEL:-tiny-densenet}"
OUT="${BNFF_PROFILE_OUT:-$(mktemp -d)}"
BINDIR="$(mktemp -d)"
BIN="$BINDIR/bnff-profile"
trap 'rm -rf "$BINDIR"' EXIT
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

# The executor has no ICF: its BNFF+ICF run is a BNFF run, and both the
# profile and the trainer must say so under the BNFF+ICF heading.
ICF_NOTE="the executor runs BNFF+ICF as BNFF; ICF is priced by the cost model only"
[ "$(grep -A1 -x '== BNFF+ICF ==' "$OUT/breakdown.txt" | tail -n 1)" = "$ICF_NOTE" ] || {
    echo "bnff-profile's BNFF+ICF table does not say it ran as BNFF" >&2
    exit 1
}
go run ./cmd/bnff-train -model tiny-cnn -restructure bnff+icf -steps 1 -workers 1 >"$OUT/train-icf.txt"
[ "$(sed -n 2p "$OUT/train-icf.txt")" = "$ICF_NOTE" ] || {
    echo "bnff-train -restructure bnff+icf does not say it ran as BNFF" >&2
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
for sc in baseline bnff; do
    read -r total flops < <("$BIN" graph -model tiny-cnn -restructure "$sc" -batch 16 -summary | awk '$1 == "total" {print $2, $5}')
    echo "tiny-cnn $sc: $total MB swept, $flops GFLOPs per iteration"
    awk -v t="$total" 'BEGIN { exit !(t + 0 > 0) }' \
        || { echo "tiny-cnn $sc swept total '$total' is not positive" >&2; exit 1; }
    awk -v t="$flops" 'BEGIN { exit !(t + 0 > 0) }' \
        || { echo "tiny-cnn $sc FLOP total '$flops' is not positive" >&2; exit 1; }
done
echo "analytical verbs OK"
echo "profile smoke OK (traces in $OUT)"
