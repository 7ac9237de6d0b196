#!/bin/sh
# Load smoke test: run the closed-loop capacity harness (seerload)
# against a real seerd twice — one slot with the replication master
# enabled, then a 4-shard gateway — with a short ramp each, and
# prove the whole capacity pipeline end to end: overload-free steps,
# a USL fit, BENCH_load.json emission through benchcmp, and the -check
# path against the just-recorded baseline. Budgeted to finish well
# under 60s; CI runs it on every push.
#
# Env knobs:
#   BIN, LOADBIN          seerd / seerload binaries (default bin/…)
#   STEPS, STEP_DUR       ramp shape (default 3 × 1s)
#   CLIENTS, START_RPS, STEP_RPS
#                         pool size and offered-load ramp; `make
#                         load-bench` raises these until the daemon
#                         saturates so the USL fit means something
#   BASELINE_OUT          also copy the merged BENCH_load.json here
set -eu

BIN=${BIN:-bin/seerd}
LOADBIN=${LOADBIN:-bin/seerload}
ADDR=${ADDR:-127.0.0.1:7297}
SHARD_ADDR=${SHARD_ADDR:-127.0.0.1:7298}
STEPS=${STEPS:-3}
STEP_DUR=${STEP_DUR:-1s}
CLIENTS=${CLIENTS:-16}
START_RPS=${START_RPS:-40}
STEP_RPS=${STEP_RPS:-40}
WORK=$(mktemp -d)
PID=""
# Wait for seerd to exit before removing its shard dir: a SIGTERM drains
# every shard to a final checkpoint first.
trap 'kill $PID 2>/dev/null && wait $PID 2>/dev/null; rm -rf "$WORK"' EXIT INT TERM

BASE="$WORK/BENCH_load.json"

wait_up() {
    i=0
    until curl -fsS "http://$1/healthz" > /dev/null 2>&1; do
        i=$((i + 1))
        if [ $i -gt 50 ]; then
            echo "seerd on $1 never came up; log:" >&2
            cat "$2" >&2
            exit 1
        fi
        sleep 0.2
    done
}

# --- Phase 1: one-slot seerd + rumor master ----------------------------
# A strace fixture gives the one-slot daemon a reference history so
# /plan and /miss exercise real clustering work.
i=0
while [ $i -lt 200 ]; do
    printf '100  12:00:%02d.%06d openat(AT_FDCWD, "/home/u/proj/f%03d.c", O_RDONLY) = 3\n' \
        $((i / 60 % 60)) $((i % 1000000)) $((i % 400)) >> "$WORK/seer.strace"
    i=$((i + 1))
done

"$BIN" -strace "$WORK/seer.strace" -listen "$ADDR" -rumor \
    > "$WORK/seerd.log" 2>&1 &
PID=$!
wait_up "$ADDR" "$WORK/seerd.log"

echo "== one-slot seerd ramp (with rumor sync ops) =="
"$LOADBIN" -target "http://$ADDR" -rumor "http://$ADDR/rumor" \
    -clients "$CLIENTS" -seed 1 -start-rps "$START_RPS" -step-rps "$STEP_RPS" \
    -steps "$STEPS" -step-dur "$STEP_DUR" -sync-files 32 \
    -prefix Load -record "$BASE" -o "$WORK/load_plain.json"

# The recorded baseline must carry per-step throughput/latency/error
# entries plus the peak.
for name in 'Load/peak_rps' 'Load/step0'; do
    if ! grep -q "\"$name\"" "$BASE"; then
        echo "MISSING baseline entry: $name" >&2
        cat "$BASE" >&2
        exit 1
    fi
done

# The -check path against the baseline we just recorded: a generous
# tolerance absorbs run-to-run noise; what's being proven is that the
# compare path loads the baseline and passes on a healthy re-run.
echo "== one-slot seerd re-check =="
"$LOADBIN" -target "http://$ADDR" -rumor "http://$ADDR/rumor" \
    -clients "$CLIENTS" -seed 2 -start-rps "$START_RPS" -step-rps "$STEP_RPS" \
    -steps "$STEPS" -step-dur "$STEP_DUR" -sync-files 32 \
    -prefix Load -check "$BASE" -rps-tolerance 0.8 -p99-tolerance 20

kill $PID
wait $PID 2>/dev/null || true

# --- Phase 2: 4-shard gateway ------------------------------------------
"$BIN" -shards 4 -listen "$SHARD_ADDR" -shard-dir "$WORK/shards" \
    > "$WORK/seerd_shards.log" 2>&1 &
PID=$!
wait_up "$SHARD_ADDR" "$WORK/seerd_shards.log"

echo "== 4-shard gateway ramp =="
"$LOADBIN" -target "http://$SHARD_ADDR" \
    -clients "$CLIENTS" -users 8 -seed 1 -seed-events 100 \
    -start-rps "$START_RPS" -step-rps "$STEP_RPS" \
    -steps "$STEPS" -step-dur "$STEP_DUR" \
    -prefix Load/shards4 -record "$BASE" -o "$WORK/load_shards.json"

# Both prefixes must now coexist in the merged baseline.
for name in 'Load/peak_rps' 'Load/shards4/peak_rps' 'Load/shards4/step0'; do
    if ! grep -q "\"$name\"" "$BASE"; then
        echo "MISSING merged baseline entry: $name" >&2
        cat "$BASE" >&2
        exit 1
    fi
done

kill $PID
wait $PID 2>/dev/null || true

# --- Phase 3: tracing overhead bound -----------------------------------
# The same sharded ramp with span recording off, then on, from fresh
# daemons each time. Tracing is advertised as cheap enough to leave on
# in production (DESIGN.md §17); hold it to a <=5% peak-RPS cost here
# so a regression in the span hot path fails the smoke, not a user.
"$BIN" -shards 4 -listen "$SHARD_ADDR" -shard-dir "$WORK/shards_off" \
    -tracing=false > "$WORK/seerd_off.log" 2>&1 &
PID=$!
wait_up "$SHARD_ADDR" "$WORK/seerd_off.log"

echo "== tracing-off ramp =="
"$LOADBIN" -target "http://$SHARD_ADDR" \
    -clients "$CLIENTS" -users 8 -seed 1 -seed-events 100 \
    -start-rps "$START_RPS" -step-rps "$STEP_RPS" \
    -steps "$STEPS" -step-dur "$STEP_DUR" \
    -prefix Load/trace_off -record "$BASE" -o "$WORK/load_off.json"

kill $PID
wait $PID 2>/dev/null || true

"$BIN" -shards 4 -listen "$SHARD_ADDR" -shard-dir "$WORK/shards_on" \
    > "$WORK/seerd_on.log" 2>&1 &
PID=$!
wait_up "$SHARD_ADDR" "$WORK/seerd_on.log"

echo "== tracing-on ramp =="
"$LOADBIN" -target "http://$SHARD_ADDR" \
    -clients "$CLIENTS" -users 8 -seed 1 -seed-events 100 \
    -start-rps "$START_RPS" -step-rps "$STEP_RPS" \
    -steps "$STEPS" -step-dur "$STEP_DUR" \
    -prefix Load/trace_on -record "$BASE" -o "$WORK/load_on.json"

peak() {
    awk -v n="\"$1\"" '
        index($0, n) { f = 1 }
        f && /"rps"/ { gsub(/,/, ""); print $2; exit }' "$BASE"
}
OFF=$(peak Load/trace_off/peak_rps)
ON=$(peak Load/trace_on/peak_rps)
if [ -z "$OFF" ] || [ -z "$ON" ]; then
    echo "MISSING tracing-ramp peaks (off=$OFF on=$ON)" >&2
    exit 1
fi
if ! awk -v on="$ON" -v off="$OFF" 'BEGIN { exit !(on >= 0.95 * off) }'; then
    echo "TRACING OVERHEAD over bound: peak $ON rps on vs $OFF rps off (>5% drop)" >&2
    exit 1
fi
echo "tracing overhead OK: peak $ON rps on vs $OFF rps off"

if [ -n "${BASELINE_OUT:-}" ]; then
    cp "$BASE" "$BASELINE_OUT"
    echo "baseline written to $BASELINE_OUT"
fi

echo "load smoke OK"
