package shard

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/fault"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/supervise"
)

// testLine renders one valid strace openat line with a distinct path.
func testLine(i int) string {
	return fmt.Sprintf(`100  12:00:%02d.%06d openat(AT_FDCWD, "/home/u/proj/f%03d.c", O_RDONLY) = 3`,
		i/60%60, i%1_000_000, i%400)
}

// testLines renders n distinct lines starting at off.
func testLines(off, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = testLine(off + i)
	}
	return out
}

// fastSupervisor is a backoff policy tight enough for tests.
func fastSupervisor() supervise.Config {
	return supervise.Config{
		Backoff:    supervise.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.1},
		BreakAfter: 50,
		Window:     time.Minute,
	}
}

// testConfig returns a shard Config with fast knobs.
func testConfig(t *testing.T, id int, dir string) Config {
	t.Helper()
	params := config.Defaults()
	return Config{
		ID:              id,
		Dir:             dir,
		Params:          params,
		Seed:            1,
		QueueCap:        256,
		QueueBlock:      10 * time.Millisecond,
		BudgetBytes:     1 << 20,
		CheckpointEvery: time.Hour, // periodic checkpoints off; drains still save
		Supervisor:      fastSupervisor(),
	}
}

// waitFor polls cond for up to 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ingest pushes lines into s and waits until the feeder has applied
// them all.
func ingest(t *testing.T, s *Shard, lines []string) {
	t.Helper()
	before := s.Events()
	n, err := s.IngestLines(context.Background(), lines)
	if err != nil {
		t.Fatalf("IngestLines: %v", err)
	}
	if n != len(lines) {
		t.Fatalf("ingested %d of %d lines", n, len(lines))
	}
	waitFor(t, "events fed", func() bool { return s.Events() >= before+uint64(len(lines)) })
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	r1, r2 := NewRing(8, 0), NewRing(8, 0)
	counts := make([]int, 8)
	for i := 0; i < 4000; i++ {
		u := fmt.Sprintf("user-%d", i)
		s := r1.Slot(u)
		if s != r2.Slot(u) {
			t.Fatalf("ring not deterministic for %q", u)
		}
		if s < 0 || s >= 8 {
			t.Fatalf("slot %d out of range", s)
		}
		counts[s]++
	}
	for slot, c := range counts {
		// 4000 users over 8 slots ≈ 500 each; vnode balance should keep
		// every slot within a loose 4x band.
		if c < 125 || c > 2000 {
			t.Errorf("slot %d badly balanced: %d of 4000 users", slot, c)
		}
	}
}

func TestShardLifecycleAndPlan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Open(ctx, testConfig(t, 0, t.TempDir()))
	defer s.Close()
	if got := s.State(); got != Serving {
		t.Fatalf("state after Open = %s, want serving", got)
	}
	ingest(t, s, testLines(0, 12))
	body, stale, err := s.Plan(context.Background())
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if stale {
		t.Error("first plan marked stale")
	}
	if len(body) == 0 {
		t.Error("plan body empty after 12 events")
	}
}

func TestDrainReplayByteIdentical(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	s := Open(ctx, testConfig(t, 3, dir))
	ingest(t, s, testLines(0, 30))
	want, _, err := s.Plan(context.Background())
	if err != nil {
		t.Fatalf("pre-drain Plan: %v", err)
	}
	events := s.Events()

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := s.State(); got != Closed {
		t.Fatalf("state after Drain = %s, want closed", got)
	}
	// Closed shard refuses everything with transient errors.
	if _, err := s.IngestLines(context.Background(), testLines(100, 1)); !IsTransient(err) {
		t.Errorf("ingest on closed shard: err = %v, want transient", err)
	}

	// Replay on the target: a replacement in the same slot restores the
	// final checkpoint and must answer with the byte-identical plan.
	repl := Open(ctx, testConfig(t, 3, dir))
	defer repl.Close()
	if got := repl.Events(); got != events {
		t.Fatalf("replacement replayed %d events, want %d (zero loss)", got, events)
	}
	got, _, err := repl.Plan(context.Background())
	if err != nil {
		t.Fatalf("replacement Plan: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("replayed plan differs from pre-drain plan:\n--- want\n%s--- got\n%s", want, got)
	}
}

func TestDrainServesStaleReads(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Open(ctx, testConfig(t, 0, t.TempDir()))
	ingest(t, s, testLines(0, 10))
	if _, _, err := s.Plan(context.Background()); err != nil {
		t.Fatalf("warm Plan: %v", err)
	}
	// Flip to draining by hand (mid-drain window) and verify reads fall
	// back to the cache while writes bounce transient.
	if !s.state.CompareAndSwap(int32(Serving), int32(Draining)) {
		t.Fatal("CAS to draining failed")
	}
	body, stale, err := s.Plan(context.Background())
	if err != nil || !stale || len(body) == 0 {
		t.Fatalf("draining Plan = (%d bytes, stale=%v, err=%v), want stale cache hit",
			len(body), stale, err)
	}
	if _, err := s.IngestLines(context.Background(), testLines(50, 1)); err != ErrDraining {
		t.Fatalf("draining ingest err = %v, want ErrDraining", err)
	}
	s.state.Store(int32(Serving))
	s.Close()
}

func TestRestoreSnapshotLadder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-000.db")
	log := obs.NewLogger(io.Discard)

	// Build a checkpoint mid-stream, then Close: the final drain
	// checkpoint rotates the mid-stream one into .bak, leaving the
	// primary with all 12 events and the backup with the first 8.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Open(ctx, testConfig(t, 0, dir))
	ingest(t, s, testLines(0, 8))
	if err := s.save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	ingest(t, s, testLines(8, 4))
	events := s.Events()
	s.Close()

	params := config.Defaults()
	opts := core.Options{Params: &params, Seed: 1}
	// Ladder rung 1: pristine primary restores everything.
	if got := RestoreSnapshot(path, opts, log).Events(); got != events {
		t.Fatalf("primary restore: %d events, want %d", got, events)
	}
	// Ladder rung 2: corrupt primary falls back to .bak.
	if err := os.WriteFile(path, []byte("garbage, not a SEERDB"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := RestoreSnapshot(path, opts, log)
	if got := c.Events(); got == 0 || got >= events {
		t.Fatalf(".bak restore: %d events, want the older checkpoint (0 < n < %d)", got, events)
	}
	// Ladder rung 3: both corrupt starts fresh, never fails.
	if err := os.WriteFile(path+bakSuffix, []byte("also garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := RestoreSnapshot(path, opts, log).Events(); got != 0 {
		t.Fatalf("fresh restore: %d events, want 0", got)
	}
}

// A SEERDB v1 file (the seed release's format) is an unusable snapshot:
// next to a v2 .bak the ladder restores the backup, and alone it
// starts fresh. Both log why.
func TestRestoreSnapshotRefusesV1(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-000.db")
	s := Open(context.Background(), testConfig(t, 0, dir))
	ingest(t, s, testLines(0, 8))
	events := s.Events()
	s.Close()
	v2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), v2...)
	v1[7] = 1 // the version varint follows the 1-byte length + 6-byte magic
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+bakSuffix, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	params := config.Defaults()
	opts := core.Options{Params: &params, Seed: 1}

	var logs strings.Builder
	if got := RestoreSnapshot(path, opts, obs.NewLogger(&logs)).Events(); got != events {
		t.Fatalf("v1 primary beside a v2 .bak restored %d events, want %d", got, events)
	}
	for _, want := range []string{"snapshot unusable", "unsupported database version 1",
		"recovered from backup"} {
		if !strings.Contains(logs.String(), want) {
			t.Fatalf("log lacks %q:\n%s", want, logs.String())
		}
	}

	if err := os.Remove(path + bakSuffix); err != nil {
		t.Fatal(err)
	}
	logs.Reset()
	if got := RestoreSnapshot(path, opts, obs.NewLogger(&logs)).Events(); got != 0 {
		t.Fatalf("v1 file alone restored %d events, want a fresh start", got)
	}
	for _, want := range []string{"snapshot unusable", "starting with a fresh database"} {
		if !strings.Contains(logs.String(), want) {
			t.Fatalf("log lacks %q:\n%s", want, logs.String())
		}
	}
}

// A reload that lands while a drain's replacement opens reaches the
// replacement. The old shard is closed by then, so the manager's push
// skips it; the drain must catch the replacement up. The reload lands
// shortly after the old shard closes, inside the replacement's replay
// of a 200-file snapshot (about a millisecond). A round can miss that
// window either way, so the test takes eight; the race detector also
// flags an unlocked read of the manager's runtime.
func TestReloadDuringDrainReachesReplacement(t *testing.T) {
	for round := 0; round < 8; round++ {
		base := config.DefaultRuntime()
		base.Daemon.QueueCap = 256
		mgr := NewManager(context.Background(), ManagerConfig{
			Shards: 1, Dir: t.TempDir(), Runtime: base, Seed: 1,
			Supervisor: fastSupervisor(), CheckpointEvery: time.Hour,
		})
		old := mgr.Shard(0)
		ingest(t, old, testLines(0, 200))
		next := base
		next.Daemon.QueueCap = 777
		reloaded := make(chan struct{})
		go func() {
			defer close(reloaded)
			for old.State() != Closed {
				runtime.Gosched()
			}
			time.Sleep(200 * time.Microsecond)
			mgr.ApplyRuntime(next)
		}()
		if err := mgr.Drain(context.Background(), 0); err != nil {
			t.Fatalf("round %d: Drain: %v", round, err)
		}
		<-reloaded
		if got := mgr.Shard(0).queue.Cap(); got != 777 {
			t.Fatalf("round %d: replacement queue cap %d, want the reloaded 777", round, got)
		}
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Satellite regression: a reload landing while a shard drains must not
// resurrect it or apply new Params to a closed shard — ApplyRuntime is
// a no-op outside the serving state.
func TestApplyRuntimeOnlyWhileServing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Open(ctx, testConfig(t, 0, t.TempDir()))
	ingest(t, s, testLines(0, 6))

	rt := config.DefaultRuntime()
	rt.Daemon.QueueCap = 99
	rt.Params.KNear = 7

	// Serving: applied.
	if !s.ApplyRuntime(rt) {
		t.Fatal("ApplyRuntime refused a serving shard")
	}
	if got := s.queue.Cap(); got != 99 {
		t.Fatalf("queue cap after serving reload = %d, want 99", got)
	}
	if got := s.corr.Params().KNear; got != 7 {
		t.Fatalf("KNear after serving reload = %d, want 7", got)
	}

	// Draining: refused, nothing touched, state untouched.
	if !s.state.CompareAndSwap(int32(Serving), int32(Draining)) {
		t.Fatal("CAS to draining failed")
	}
	rt2 := rt
	rt2.Daemon.QueueCap = 123
	rt2.Params.KNear = 9
	if s.ApplyRuntime(rt2) {
		t.Error("ApplyRuntime accepted a draining shard")
	}
	if got := s.queue.Cap(); got != 99 {
		t.Errorf("queue cap changed on a draining shard: %d", got)
	}
	if got := s.corr.Params().KNear; got != 7 {
		t.Errorf("Params applied to a draining shard: KNear = %d", got)
	}
	if got := s.State(); got != Draining {
		t.Errorf("reload resurrected a draining shard: state = %s", got)
	}

	// Closed: same guarantee.
	s.state.Store(int32(Serving))
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if s.ApplyRuntime(rt2) {
		t.Error("ApplyRuntime accepted a closed shard")
	}
	if got := s.State(); got != Closed {
		t.Errorf("reload resurrected a closed shard: state = %s", got)
	}
	if got := s.corr.Params().KNear; got != 7 {
		t.Errorf("Params applied to a closed shard: KNear = %d", got)
	}
}

// The params double-check inside ApplyRuntime: a drain that flips the
// state after the initial Serving test but before the lock is acquired
// must still not see new Params.
func TestApplyRuntimeDrainRace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Open(ctx, testConfig(t, 0, t.TempDir()))
	defer s.Close()
	ingest(t, s, testLines(0, 6))

	old := paramApplyTimeout
	paramApplyTimeout = 200 * time.Millisecond
	defer func() { paramApplyTimeout = old }()

	// Hold the correlator lock, start the reload (it will pass the
	// Serving check then block on the lock), flip to draining, release.
	s.lock()
	done := make(chan bool)
	rt := config.DefaultRuntime()
	rt.Params.KNear = 11
	go func() { done <- s.ApplyRuntime(rt) }()
	time.Sleep(20 * time.Millisecond) // let ApplyRuntime reach lockCtx
	s.state.Store(int32(Draining))
	s.unlock()
	<-done
	if got := s.corr.Params().KNear; got == 11 {
		t.Error("Params applied under a racing drain")
	}
	s.state.Store(int32(Serving))
}

func TestTransientClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{ErrDraining, true},
		{ErrClosed, true},
		{ErrOpening, true},
		{ErrNoPlan, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("wrapped: %w", ErrDraining), true},
	} {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{Opening: "opening", Serving: "serving", Draining: "draining", Closed: "closed"}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), name)
		}
	}
	if !strings.Contains(State(42).String(), "42") {
		t.Error("unknown state should render its number")
	}
}

// A shard whose disk fails keeps serving but turns degraded, naming its
// checkpoint probe; healing the disk restores it, and every neighbour
// stays healthy throughout — the bulkhead contract for a broken disk.
func TestCheckpointFailureDegradesOnlyItsShard(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mgr := NewManager(ctx, ManagerConfig{
		Shards:          3,
		Dir:             t.TempDir(),
		Runtime:         config.DefaultRuntime(),
		Seed:            1,
		Supervisor:      fastSupervisor(),
		CheckpointEvery: 5 * time.Millisecond,
	})
	defer mgr.Close()
	const victim = 1
	var sink fault.Sink
	mgr.Shard(victim).SetSaveWrapper(sink.Do)

	// checkNeighbours fails the test if any other slot left healthy.
	checkNeighbours := func() {
		t.Helper()
		for i, info := range mgr.Report() {
			if i != victim && info.Health != "healthy" {
				t.Fatalf("neighbour shard %d is %s: %v", i, info.Health, info.Problems)
			}
		}
	}
	checkNeighbours()

	sink.Break()
	waitFor(t, "victim degraded", func() bool {
		checkNeighbours()
		return mgr.Health() == supervise.Degraded
	})
	info := mgr.Report()[victim]
	if info.Health != "degraded" || len(info.Problems) == 0 ||
		!strings.HasPrefix(info.Problems[0], "checkpoint: consecutive_failures=") {
		t.Fatalf("victim report = %s %q, want degraded naming its checkpoint probe",
			info.Health, info.Problems)
	}

	sink.Heal()
	waitFor(t, "victim healthy again", func() bool {
		checkNeighbours()
		return mgr.Health() == supervise.Healthy
	})
	if p := mgr.Report()[victim].Problems; len(p) != 0 {
		t.Fatalf("healed victim still reports %q", p)
	}
}

// A fresh /hoard refreshes the paper-§5 gauges as per-shard series.
func TestHoardRefreshesShardGauges(t *testing.T) {
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mgr := NewManager(ctx, ManagerConfig{
		Shards:     1,
		Runtime:    config.DefaultRuntime(),
		Seed:       1,
		Metrics:    reg,
		Supervisor: fastSupervisor(),
	})
	defer mgr.Close()
	ts := httptest.NewServer(NewGateway(mgr, Policy{}).Handler())
	defer ts.Close()

	ingest(t, mgr.Shard(0), testLines(0, 20))
	resp, err := http.Get(ts.URL + "/hoard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/hoard: HTTP %d", resp.StatusCode)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := obs.ParseProm(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`seer_hoard_missfree_bytes{shard="0"}`,
		`seer_hoard_unhoardable_files{shard="0"}`,
		`seer_hoard_files{shard="0"}`,
		`seer_hoard_bytes{shard="0"}`,
		`seer_queue_depth{shard="0"}`,
		`seer_queue_capacity{shard="0"}`,
		`seer_queue_shed_total{shard="0"}`,
	} {
		if _, ok := vals[series]; !ok {
			t.Errorf("%s missing after /hoard:\n%s", series, buf.String())
		}
	}
	if got := vals[`seer_hoard_files{shard="0"}`]; got == 0 {
		t.Errorf(`seer_hoard_files{shard="0"} = 0 after a fresh hoard of 20 files`)
	}
}
