#!/bin/sh
# Trace smoke test: boot a 2-shard seerd pointed at a real rumord,
# drive mixed traffic through the closed-loop load harness, scrape an
# exemplar trace id off /metrics, and stitch that trace across both
# daemons with `seerctl trace` — failing if any expected hop (gateway
# root, retry attempt layer, shard stage, rumor client hop, rumord
# server hop, body write) is missing from the rendered tree. This is
# the black-box proof that one request is reconstructable end to end
# from a bucket exemplar, using only the built binaries (DESIGN.md §17).
set -eu

BIN=${BIN:-bin/seerd}
RUMORBIN=${RUMORBIN:-bin/rumord}
CTLBIN=${CTLBIN:-bin/seerctl}
LOADBIN=${LOADBIN:-bin/seerload}
ADDR=${ADDR:-127.0.0.1:7397}
RUMOR_ADDR=${RUMOR_ADDR:-127.0.0.1:7398}
WORK=$(mktemp -d)
PID=""
RPID=""
# Wait for the daemons to exit before removing their files: a SIGTERM
# drains every shard to a final checkpoint first.
trap 'kill $PID $RPID 2>/dev/null && wait $PID $RPID 2>/dev/null; rm -rf "$WORK"' EXIT INT TERM

wait_up() {
    i=0
    until curl -fsS "http://$1/healthz" > /dev/null 2>&1; do
        i=$((i + 1))
        if [ $i -gt 50 ]; then
            echo "daemon on $1 never came up; log:" >&2
            cat "$2" >&2
            exit 1
        fi
        sleep 0.2
    done
}

"$RUMORBIN" -listen "$RUMOR_ADDR" > "$WORK/rumord.log" 2>&1 &
RPID=$!
wait_up "$RUMOR_ADDR" "$WORK/rumord.log"

"$BIN" -shards 2 -shard-dir "$WORK/shards" -listen "$ADDR" \
    -rumor-url "http://$RUMOR_ADDR/rumor" > "$WORK/seerd.log" 2>&1 &
PID=$!
wait_up "$ADDR" "$WORK/seerd.log"

# Mixed /plan + /hoard + /miss traffic with per-user seed events, so
# the hoard path renders real contents and syncs them upstream.
"$LOADBIN" -target "http://$ADDR" -clients 8 -users 4 -seed 1 \
    -seed-events 50 -start-rps 40 -step-rps 0 -steps 1 -step-dur 2s \
    -q -o "$WORK/load.json"

curl -fsS "http://$ADDR/metrics" > "$WORK/metrics.txt"

# At least one OpenMetrics exemplar must be present, and the hoard
# endpoint's exemplar hands us a trace id whose request crossed every
# layer: gateway -> attempt -> shard hoard -> rumor sync -> rumord,
# and then the body write under the gateway root.
if ! grep -q '# {trace_id=' "$WORK/metrics.txt"; then
    echo "MISSING exemplars on /metrics" >&2
    exit 1
fi
TID=$(sed -n 's/.*endpoint="hoard".*# {trace_id="\([0-9a-f]*\)".*/\1/p' \
    "$WORK/metrics.txt" | head -1)
if [ -z "$TID" ]; then
    echo "MISSING hoard exemplar on seer_gateway_request_seconds" >&2
    grep 'trace_id' "$WORK/metrics.txt" >&2 || true
    exit 1
fi

"$CTLBIN" -addr "http://$ADDR,http://$RUMOR_ADDR" trace "$TID" > "$WORK/trace.txt"
echo "--- seerctl trace $TID ---"
cat "$WORK/trace.txt"

status=0
for hop in 'gateway:hoard' 'attempt' 'hoard' 'rumor:' 'master:' '^  write .*bytes='; do
    if ! grep -q "$hop" "$WORK/trace.txt"; then
        echo "MISSING hop in stitched trace: $hop" >&2
        status=1
    fi
done
if [ $status -ne 0 ]; then
    echo "--- /debug/traces (seerd) ---" >&2
    curl -fsS "http://$ADDR/debug/traces?trace=$TID" >&2 || true
    echo "--- /debug/traces (rumord) ---" >&2
    curl -fsS "http://$RUMOR_ADDR/debug/traces?trace=$TID" >&2 || true
    exit $status
fi

# The SLO surface answers with both decision objectives.
"$CTLBIN" -addr "http://$ADDR" slo > "$WORK/slo.txt"
for obj in plan hoard; do
    if ! grep -q "^$obj " "$WORK/slo.txt"; then
        echo "MISSING SLO objective: $obj" >&2
        cat "$WORK/slo.txt" >&2
        exit 1
    fi
done

echo "trace smoke: exemplar trace $TID stitched across seerd + rumord; all hops present"
