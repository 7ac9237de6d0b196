# Development targets. `make check` is the gate for every change: it
# vets, builds, and race-tests the whole tree (the daemon's concurrent
# paths — HTTP handlers vs. the tailing goroutine — only misbehave
# under the race detector).

GO ?= go

# Benchmark regression gate. `make bench` re-records the committed
# baselines; `make bench-check` reruns the same benchmarks and fails on
# >BENCH_TOLERANCE ns/op growth (or >BENCH_ALLOC_TOLERANCE allocs/op
# growth) against them. allocs/op is machine-independent, so its
# tolerance stays tight even where wall-clock comparisons need slack
# (CI runs with BENCH_TOLERANCE=2.0 for that reason).
BENCH_TOLERANCE ?= 0.15
BENCH_ALLOC_TOLERANCE ?= 0.15
BENCH_TIME ?= 5x
BENCH_CLUSTER = BenchmarkCluster2k$$|BenchmarkCluster20k$$|BenchmarkHoardPlan$$|BenchmarkFeedEvent$$|BenchmarkClusterIncremental20k$$|BenchmarkClusterIncremental200k$$|BenchmarkClusterIncremental1M$$
BENCH_SIM = BenchmarkFigure3$$|BenchmarkTable3$$|BenchmarkWorkloadGenerate$$|BenchmarkSemanticDistance$$

.PHONY: check vet build test test-race fuzz fuzz-strace chaos flake-check shard-chaos rumor-chaos metrics-smoke reload-smoke trace-smoke metrics-lint unlinked-check bench bench-check load-smoke load-bench benchmark-test

check: vet build test-race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Short fuzz pass over the snapshot loader; extend -fuzztime for a
# deeper run.
fuzz:
	$(GO) test -fuzz=FuzzLoad -fuzztime=30s ./internal/core/

# Fuzz the strace line parser (escape decoding, fd tracking, timestamp
# rollover all chew on untrusted text). CI runs this briefly on every
# push; extend -fuzztime locally for a deeper run.
FUZZTIME_STRACE ?= 10s
fuzz-strace:
	$(GO) test -fuzz=FuzzParseLine -fuzztime=$(FUZZTIME_STRACE) -run '^$$' ./internal/strace/

# Chaos gate: run a real seerd pipeline under injected faults (stage
# panics, stalled tail reads, failing checkpoints, wedged clustering)
# with the race detector on, plus the supervisor and fault-injector unit
# suites backing it. CHAOS_COUNT repeats the run to shake out timing
# flakes.
CHAOS_COUNT ?= 1
chaos: vet
	$(GO) test -race -count=$(CHAOS_COUNT) \
		-run 'TestChaosPipeline|TestBootstrapStopsWhenFeederFails|TestFollowFailureMatrix|TestAdmissionChaosShedAndRecover|TestReloadRaceUnderLoad|TestSLOBreachDegradesHealthAndCapturesFlight' \
		./cmd/seerd/
	$(GO) test -race -count=$(CHAOS_COUNT) ./internal/supervise/ ./internal/fault/

# Flake gate: repeat timing-sensitive tests many times, at one and four
# CPUs, under the race detector, so a test that passes once by luck
# fails here: the config watcher's tests, and the property test pinning
# each shard's published /plan and /hoard to a render under the lock
# while feeds, misses, reloads and reads race.
flake-check:
	$(GO) test -race -count=20 -cpu=1,4 -run TestWatcher ./internal/supervise/
	$(GO) test -race -count=20 -cpu=1,4 -run TestPublishedBodyMatchesLockedRender ./internal/shard/

# Metrics smoke: run a built seerd against a sample strace file and
# verify /metrics exposes the core series, the debug listener serves
# the health document and /shards, and /debug/traces answers. Needs
# curl.
metrics-smoke:
	$(GO) build -o bin/seerd ./cmd/seerd
	sh scripts/metrics_smoke.sh

# Reload smoke: run a built seerd with a watched config file, hot-apply
# a valid edit, confirm a structural edit is rejected without moving the
# active generation, and check the reload counters — all with zero
# stage restarts. Needs curl.
reload-smoke:
	$(GO) build -o bin/seerd ./cmd/seerd
	sh scripts/reload_smoke.sh

# Trace smoke: a 2-shard seerd syncing hoards to a real rumord under
# load-harness traffic; scrape an exemplar trace id off /metrics and
# stitch it across both daemons with `seerctl trace`, failing if any
# hop (gateway, attempt, shard, rumor client, rumord server) is
# missing (DESIGN.md §17). Needs curl.
trace-smoke:
	$(GO) build -o bin/seerd ./cmd/seerd
	$(GO) build -o bin/rumord ./cmd/rumord
	$(GO) build -o bin/seerctl ./cmd/seerctl
	$(GO) build -o bin/seerload ./cmd/seerload
	sh scripts/trace_smoke.sh

# Metrics-catalogue lint: every metric family registered in the source
# must have a row in DESIGN.md §12's catalogue table whose Type column
# matches how the source registers it, so the catalogue cannot silently
# rot as instruments are added or change kind.
metrics-lint:
	sh scripts/metrics_lint.sh

# Dead-code gate: build every cmd, example and benchmark/seerbench with
# inlining off, list the functions none of them links, and fail when
# that listing differs from scripts/unlinked.keep: a newly unlinked
# function must be deleted or kept under a stated reason, and a keep
# entry that is linked again or gone must be pruned.
unlinked-check:
	$(GO) run scripts/unlinked.go -keep scripts/unlinked.keep

# Shard-isolation chaos gate: 8 shards behind the gateway under
# concurrent /plan + /events load while one shard at a time takes a
# panic, a wedged correlator, or a corrupt SEERDB — every other shard
# must keep answering 200 with zero cross-shard stage restarts, a
# mid-traffic drain/migrate must replay a byte-identical plan with zero
# event loss, and a hung rumor master must hold no shard's /hoard past
# its deadline (DESIGN.md §15). Race detector on; CHAOS_COUNT repeats.
shard-chaos: vet
	$(GO) test -race -count=$(CHAOS_COUNT) \
		-run 'TestChaosShardIsolation|TestGatewayRetryAcrossDrain|TestTraceRetryAcrossDrain|TestGatewayHonorsAdmission|TestDrainReplayByteIdentical|TestApplyRuntimeOnlyWhileServing|TestQueueResizeRacesShedOldest|TestCheckpointFailureDegradesOnlyItsShard|TestHungRumorBlocksNoHoardPastDeadline' \
		./internal/shard/ ./internal/supervise/

# Replication chaos gate: the networked CheapRumor substrate under 30%
# injected request loss and repeated partitions must converge to the
# same hoard contents and conflict counts as the in-memory reference,
# with zero lost dirty updates — under the race detector.
rumor-chaos: vet
	$(GO) test -race -count=$(CHAOS_COUNT) \
		-run 'TestRemoteRumor' ./internal/replic/
	$(GO) test -race -count=$(CHAOS_COUNT) \
		-run 'TestRefillSyncOverRemote' ./internal/hoard/

# Capacity smoke: the closed-loop harness (cmd/seerload) ramps mixed
# /plan + /hoard + /miss + rumor-sync load against a real seerd (one
# slot with -rumor, then -shards 4), records BENCH_load.json through
# benchcmp, and re-checks a second ramp against it — the whole capacity
# pipeline, black-box, in well under a minute. DESIGN.md §16.
load-smoke:
	$(GO) build -o bin/seerd ./cmd/seerd
	$(GO) build -o bin/seerload ./cmd/seerload
	sh scripts/load_smoke.sh

# Re-record the committed capacity baseline with a longer, harder ramp
# (6 steps × 3s, offered load climbing to several thousand req/s) so
# the daemon actually saturates and the USL fit means something — a
# ramp that never pushes Little's-law concurrency past 1 has no
# contention signal and produces no ceiling entry. Capacity is
# machine-dependent: re-record on the machine that checks.
load-bench:
	$(GO) build -o bin/seerd ./cmd/seerd
	$(GO) build -o bin/seerload ./cmd/seerload
	BASELINE_OUT=BENCH_load.json STEPS=6 STEP_DUR=3s \
		CLIENTS=64 START_RPS=500 STEP_RPS=700 sh scripts/load_smoke.sh

# The end-to-end benchmark's own tests (benchmark/ is a module of its
# own, so `go test ./...` at the root skips it): the strace encoder
# round trip, the metric catalogue, and TestSmoke, which runs all four
# workloads at toy size against a built seerd and rumord with every
# output check on, the twin and byte-identity checks included.
benchmark-test:
	cd benchmark && $(GO) test ./...

bench:
	$(GO) build -o bin/benchcmp ./cmd/benchcmp
	$(GO) test -run '^$$' -bench '$(BENCH_CLUSTER)' -benchmem -benchtime=$(BENCH_TIME) . \
		| bin/benchcmp -record BENCH_cluster.json
	$(GO) test -run '^$$' -bench '$(BENCH_SIM)' -benchmem -benchtime=1x . \
		| bin/benchcmp -record BENCH_sim.json

bench-check:
	$(GO) build -o bin/benchcmp ./cmd/benchcmp
	$(GO) test -run '^$$' -bench '$(BENCH_CLUSTER)' -benchmem -benchtime=$(BENCH_TIME) . \
		| bin/benchcmp -check BENCH_cluster.json \
			-tolerance $(BENCH_TOLERANCE) -alloc-tolerance $(BENCH_ALLOC_TOLERANCE)
	$(GO) test -run '^$$' -bench '$(BENCH_SIM)' -benchmem -benchtime=1x . \
		| bin/benchcmp -check BENCH_sim.json \
			-tolerance $(BENCH_TOLERANCE) -alloc-tolerance $(BENCH_ALLOC_TOLERANCE)
