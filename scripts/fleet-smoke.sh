#!/usr/bin/env bash
# Smoke test for the serving fleet: bnff-proxy fronting two bnff-serve
# backends over the real wire. Proves the fleet's four contracts end to end:
#
#   1. Rolling reload under load: POST /fleet/reload hot-swaps a new
#      checkpoint into one backend at a time, each staying in rotation,
#      while client traffic keeps flowing — zero non-200 answers, and every
#      answer bit-matches a fresh single-process folded reference of either
#      the old or the new checkpoint (no blended generations). Afterwards
#      both backends report generation 2 and answers bit-match only the new
#      reference.
#   2. Backend crash with failover: SIGKILL one backend mid-traffic — every
#      accepted request is still answered 200 with bit-identical logits
#      (zero accepted-request loss), and the control plane ejects the corpse.
#   3. A roll covers every member: with the killed backend still registered
#      (ejected), POST /fleet/reload answers 502 naming it; after
#      /fleet/deregister the roll succeeds on the survivor alone.
#   4. Clean shutdown: proxy and surviving backend exit cleanly on SIGTERM.
#
# First, a proxy started with -probe-interval 0 must exit non-zero with an
# error naming the interval, not panic, and must not announce a listener.
#
# Run from the repository root (make fleet-smoke / CI).
set -euo pipefail

PROXY_ADDR="${BNFF_FLEET_PROXY_ADDR:-127.0.0.1:18440}"
B0_ADDR="${BNFF_FLEET_B0_ADDR:-127.0.0.1:18441}"
B1_ADDR="${BNFF_FLEET_B1_ADDR:-127.0.0.1:18442}"
REF_ADDR="${BNFF_FLEET_REF_ADDR:-127.0.0.1:18443}"

DIR="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT

go build -o "$DIR/bnff-train" ./cmd/bnff-train
go build -o "$DIR/bnff-serve" ./cmd/bnff-serve
go build -o "$DIR/bnff-proxy" ./cmd/bnff-proxy

status=0
timeout 10 "$DIR/bnff-proxy" -addr "$PROXY_ADDR" -probe-interval 0 >"$DIR/zero.log" 2>&1 || status=$?
if [ "$status" -eq 0 ] || ! grep -q "probe interval 0s must be positive" "$DIR/zero.log" \
        || grep -q "panic:" "$DIR/zero.log" || grep -q "proxy listening" "$DIR/zero.log"; then
    echo "bnff-proxy -probe-interval 0: exit $status, want an error naming the interval and no listening line" >&2
    cat "$DIR/zero.log" >&2
    exit 1
fi
echo "bnff-proxy -probe-interval 0 refused with an error, no panic, no listening line"

# Two checkpoints of the baseline tiny-cnn graph: A is what the fleet boots
# from, B is what the rolling reload swaps in.
"$DIR/bnff-train" -model tiny-cnn -restructure baseline -steps 8 -seed 42 \
    -save "$DIR/ckptA" >/dev/null
"$DIR/bnff-train" -model tiny-cnn -restructure baseline -steps 8 -seed 43 \
    -save "$DIR/ckptB" >/dev/null

wait_ready() { # url name pid
    for _ in $(seq 1 120); do
        curl -sf "$1" >/dev/null 2>&1 && return 0
        kill -0 "$3" 2>/dev/null || { echo "$2 died during startup" >&2; return 1; }
        sleep 0.25
    done
    echo "$2 never became ready at $1" >&2
    return 1
}

"$DIR/bnff-serve" -model tiny-cnn -checkpoint "$DIR/ckptA" -addr "$B0_ADDR" >"$DIR/b0.log" 2>&1 &
B0=$!
"$DIR/bnff-serve" -model tiny-cnn -checkpoint "$DIR/ckptA" -addr "$B1_ADDR" >"$DIR/b1.log" 2>&1 &
B1=$!
wait_ready "http://$B0_ADDR/readyz" b0 "$B0"
wait_ready "http://$B1_ADDR/readyz" b1 "$B1"

"$DIR/bnff-proxy" -addr "$PROXY_ADDR" -backends "http://$B0_ADDR,http://$B1_ADDR" \
    -probe-interval 250ms >"$DIR/proxy.log" 2>&1 &
PROXY=$!
wait_ready "http://$PROXY_ADDR/readyz" proxy "$PROXY"

# tiny-cnn takes 3x8x8 = 192 floats.
payload="{\"image\":[$(awk 'BEGIN{for(i=0;i<192;i++)printf "%s0.5",(i?",":"")}')]}"

# Fresh single-process folded references: what a standalone engine answers
# for this image under each checkpoint. These are the bit-match oracles.
"$DIR/bnff-serve" -model tiny-cnn -checkpoint "$DIR/ckptA" -addr "$REF_ADDR" >"$DIR/ref.log" 2>&1 &
REF=$!
wait_ready "http://$REF_ADDR/readyz" refA "$REF"
refA=$(curl -sf -X POST -d "$payload" "http://$REF_ADDR/predict")
kill -TERM "$REF" && wait "$REF"
"$DIR/bnff-serve" -model tiny-cnn -checkpoint "$DIR/ckptB" -addr "$REF_ADDR" >"$DIR/ref.log" 2>&1 &
REF=$!
wait_ready "http://$REF_ADDR/readyz" refB "$REF"
refB=$(curl -sf -X POST -d "$payload" "http://$REF_ADDR/predict")
kill -TERM "$REF" && wait "$REF"
[ -n "$refA" ] && [ -n "$refB" ] && [ "$refA" != "$refB" ] \
    || { echo "reference logits empty or checkpoints indistinct" >&2; exit 1; }

# Baseline: proxied answers bit-match the single-process reference.
for i in $(seq 1 8); do
    got=$(curl -sf -X POST -H "X-Route-Key: key-$i" -d "$payload" "http://$PROXY_ADDR/predict")
    [ "$got" = "$refA" ] || { echo "pre-reload answer differs from reference: $got" >&2; exit 1; }
done
echo "fleet answers bit-match the single-process reference"

# Rolling reload under load: client traffic in the background, reload in the
# foreground. Every answer must be 200 and bit-match exactly one generation.
: >"$DIR/codes"; : >"$DIR/bodies"
(
    for i in $(seq 1 40); do
        curl -s -o >(cat >>"$DIR/bodies"; echo >>"$DIR/bodies") -w '%{http_code}\n' \
            -X POST -H "X-Route-Key: roll-$i" -d "$payload" \
            "http://$PROXY_ADDR/predict" >>"$DIR/codes"
    done
) &
TRAFFIC=$!
gens=$(curl -sf -X POST --data-binary "@$DIR/ckptB" "http://$PROXY_ADDR/fleet/reload")
wait "$TRAFFIC"
echo "rolling reload: $gens"
echo "$gens" | grep -q '"b0":2' || { echo "b0 not at generation 2" >&2; exit 1; }
echo "$gens" | grep -q '"b1":2' || { echo "b1 not at generation 2" >&2; exit 1; }
bad=$(grep -cv '^200$' "$DIR/codes" || true)
[ "$bad" = "0" ] || { echo "$bad non-200 answers during rolling reload" >&2; sort "$DIR/codes" | uniq -c >&2; exit 1; }
while IFS= read -r body; do
    [ -z "$body" ] && continue
    [ "$body" = "$refA" ] || [ "$body" = "$refB" ] \
        || { echo "mid-reload answer matches neither generation: $body" >&2; exit 1; }
done <"$DIR/bodies"
echo "zero non-200 answers during the roll; every answer bit-matched one generation"

# Post-reload: the whole fleet answers from the new checkpoint.
for i in $(seq 1 8); do
    got=$(curl -sf -X POST -H "X-Route-Key: post-$i" -d "$payload" "http://$PROXY_ADDR/predict")
    [ "$got" = "$refB" ] || { echo "post-reload answer differs from new reference: $got" >&2; exit 1; }
done
echo "post-reload answers bit-match the fresh single-process reference"

# Backend crash with failover: SIGKILL b1 mid-traffic; every request must
# still come back 200 with the reference logits — zero accepted-request loss.
for i in $(seq 1 30); do
    [ "$i" = 10 ] && { kill -9 "$B1" && wait "$B1"; } 2>/dev/null || true
    got=$(curl -s -w '\n%{http_code}' -X POST -H "X-Route-Key: crash-$i" -d "$payload" \
        "http://$PROXY_ADDR/predict")
    code=${got##*$'\n'}
    body=${got%$'\n'*}
    body=${body%$'\n'} # the JSON encoder newline-terminates the body
    [ "$code" = "200" ] || { echo "request $i lost after backend kill: HTTP $code" >&2; exit 1; }
    [ "$body" = "$refB" ] || { echo "request $i logits differ after failover" >&2; exit 1; }
done
echo "backend kill mid-traffic: zero accepted-request loss, answers still bit-identical"

# The control plane must eject the corpse after consecutive probe failures.
ejected=""
for _ in $(seq 1 40); do
    if curl -sf "http://$PROXY_ADDR/fleet/status" | grep -q '"state":"ejected"'; then
        ejected=yes
        break
    fi
    sleep 0.25
done
[ "$ejected" = yes ] || { echo "dead backend never ejected" >&2; curl -sf "http://$PROXY_ADDR/fleet/status" >&2; exit 1; }
echo "dead backend ejected by the control plane"

# A roll covers every registered backend, ejected ones too: with b1 dead it
# stops at b1 with 502 and an error naming it; once b1 is deregistered the
# roll succeeds on b0 alone (b0 reloaded in the failed roll too: gen 3, 4).
got=$(curl -s -w '\n%{http_code}' -X POST --data-binary "@$DIR/ckptB" "http://$PROXY_ADDR/fleet/reload")
code=${got##*$'\n'}
body=${got%$'\n'*}
if [ "$code" != 502 ] || ! echo "$body" | grep -q "reloading b1"; then
    echo "roll over dead b1: HTTP $code, body $body; want 502 naming b1" >&2
    exit 1
fi
curl -sf -X POST "http://$PROXY_ADDR/fleet/deregister?name=b1" >/dev/null
gens=$(curl -sf -X POST --data-binary "@$DIR/ckptB" "http://$PROXY_ADDR/fleet/reload")
[ "$gens" = '{"b0":4}' ] || { echo "roll after deregistering b1: $gens, want {\"b0\":4}" >&2; exit 1; }
echo "roll over dead b1 refused with 502 naming it; after deregistering b1 it succeeds on b0"

# Clean SIGTERM shutdown for the proxy and the surviving backend.
kill -TERM "$PROXY"
wait "$PROXY" || { echo "proxy exited non-zero on SIGTERM" >&2; cat "$DIR/proxy.log" >&2; exit 1; }
kill -TERM "$B0"
wait "$B0" || { echo "b0 exited non-zero on SIGTERM" >&2; cat "$DIR/b0.log" >&2; exit 1; }
echo "fleet smoke OK"
