#!/usr/bin/env bash
# Smoke test for cmd/bnff-serve: build the daemon, start it on a self-trained
# tiny-cnn, exercise /healthz, /predict, and /stats, check that a second
# daemon on the same port fails without announcing a listener, then verify
# the first exits cleanly on SIGTERM. Run from the repository root
# (make smoke / CI).
set -euo pipefail

ADDR="${BNFF_SMOKE_ADDR:-127.0.0.1:18431}"
BINDIR="$(mktemp -d)"
BIN="$BINDIR/bnff-serve"
LOG="$(mktemp)"
trap 'kill "${PID:-}" 2>/dev/null || true; rm -rf "$BINDIR" "$LOG"' EXIT

go build -o "$BIN" ./cmd/bnff-serve

"$BIN" -model tiny-cnn -train-steps 10 -addr "$ADDR" >"$LOG" 2>&1 &
PID=$!

# Wait for the listener (self-training takes a moment).
for i in $(seq 1 60); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "bnff-serve died during startup:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.5
done
curl -sf "http://$ADDR/healthz" >/dev/null || { echo "healthz never came up" >&2; cat "$LOG" >&2; exit 1; }

# tiny-cnn takes 3x8x8 = 192 floats.
payload="{\"image\":[$(awk 'BEGIN{for(i=0;i<192;i++)printf "%s0.5",(i?",":"")}')]}"
predict=$(curl -sf -X POST -d "$payload" "http://$ADDR/predict")
echo "predict: $predict"
echo "$predict" | grep -q '"logits"' || { echo "no logits in predict reply" >&2; exit 1; }
echo "$predict" | grep -q '"class"' || { echo "no class in predict reply" >&2; exit 1; }

# A wrong-sized image must be a 400, not a server error.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"image":[1,2,3]}' "http://$ADDR/predict")
[ "$code" = "400" ] || { echo "bad image returned HTTP $code, want 400" >&2; exit 1; }

stats=$(curl -sf "http://$ADDR/stats")
echo "stats: $stats"
echo "$stats" | grep -q '"requests":1' || { echo "stats did not count the request" >&2; exit 1; }

# /metrics must scrape as Prometheus text exposition and count the request.
metrics=$(curl -sf "http://$ADDR/metrics")
echo "$metrics" | grep -q '^# TYPE bnff_serve_requests_total counter' \
    || { echo "metrics missing requests_total TYPE line" >&2; exit 1; }
echo "$metrics" | grep -q '^bnff_serve_requests_total 1$' \
    || { echo "metrics did not count the request" >&2; exit 1; }
echo "$metrics" | grep -q '^bnff_serve_latency_ns_count 1$' \
    || { echo "metrics latency histogram did not observe the request" >&2; exit 1; }

# A second daemon on the same port must fail on the bind, before it
# announces a listener.
LOG2="$(mktemp)"
status=0
timeout 30 "$BIN" -model tiny-cnn -train-steps 1 -addr "$ADDR" >"$LOG2" 2>&1 || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ] || ! grep -q "address already in use" "$LOG2" \
        || grep -q "listening on" "$LOG2"; then
    echo "second bnff-serve on $ADDR: exit $status, want a bind error and no listening line" >&2
    cat "$LOG2" >&2
    rm -f "$LOG2"
    exit 1
fi
rm -f "$LOG2"
echo "second daemon on the same port refused with a bind error, no listening line"

# Graceful shutdown: SIGTERM must produce a clean exit.
kill -TERM "$PID"
if ! wait "$PID"; then
    echo "bnff-serve exited non-zero on SIGTERM:" >&2
    cat "$LOG" >&2
    exit 1
fi
echo "serve smoke OK"
