#!/bin/sh
# Metrics smoke test: start a real one-slot seerd against a small
# strace sample, curl /metrics, and check the core series are exposed. This is the
# black-box counterpart of TestTraceFollowsBatchToPlan — it proves the
# built binary, not just the test harness, serves the exposition.
set -eu

BIN=${BIN:-bin/seerd}
ADDR=${ADDR:-127.0.0.1:7199}
DEBUG_ADDR=${DEBUG_ADDR:-127.0.0.1:7198}
WORK=$(mktemp -d)
trap 'kill $PID 2>/dev/null || true; rm -rf "$WORK"' EXIT INT TERM

# A handful of valid strace lines so the daemon has events to learn.
i=0
while [ $i -lt 20 ]; do
    printf '100  12:00:%02d.000000 openat(AT_FDCWD, "/home/u/proj/f%03d.c", O_RDONLY) = 3\n' \
        $i $i >> "$WORK/seer.strace"
    i=$((i + 1))
done

"$BIN" -strace "$WORK/seer.strace" -listen "$ADDR" -debug-addr "$DEBUG_ADDR" \
    -rumor > "$WORK/seerd.log" 2>&1 &
PID=$!

# Wait for the listener.
i=0
until curl -fsS "http://$ADDR/healthz" > /dev/null 2>&1; do
    i=$((i + 1))
    if [ $i -gt 50 ]; then
        echo "seerd never came up; log:" >&2
        cat "$WORK/seerd.log" >&2
        exit 1
    fi
    sleep 0.2
done

# A plan request populates the clustering and hoard series.
curl -fsS "http://$ADDR/plan" > /dev/null
curl -fsS "http://$ADDR/metrics" > "$WORK/metrics.txt"

status=0
for series in \
    seer_events_ingested_total \
    seer_cluster_duration_seconds_bucket \
    seer_hoard_misses_total \
    seer_plans_built_total \
    seer_queue_depth \
    seer_stage_restarts_total \
    seer_health_state \
    seer_rumor_files; do
    if ! grep -q "^$series" "$WORK/metrics.txt"; then
        echo "MISSING series: $series" >&2
        status=1
    fi
done

# The debug listener serves the same health document and the /shards
# view.
if ! curl -fsS "http://$DEBUG_ADDR/healthz" | grep -q '"name": "shards"'; then
    echo "MISSING shards probe on the debug /healthz" >&2
    status=1
fi
if ! curl -fsS "http://$DEBUG_ADDR/shards" | grep -q '"shards"'; then
    echo "MISSING /shards on the debug listener" >&2
    status=1
fi

# Recent spans are inspectable.
if ! curl -fsS "http://$ADDR/debug/traces" | grep -q '"stage"'; then
    echo "MISSING spans at /debug/traces" >&2
    status=1
fi

if [ $status -ne 0 ]; then
    echo "--- /metrics ---" >&2
    cat "$WORK/metrics.txt" >&2
    exit $status
fi
echo "metrics smoke: all core series present"
