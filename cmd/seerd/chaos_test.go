package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fmg/seer/internal/daemon"
	"github.com/fmg/seer/internal/fault"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/supervise"
	"github.com/fmg/seer/internal/trace"
)

// chaosLine renders one valid strace openat line with a unique path so
// every append is a distinct learnable event.
func chaosLine(i int) string {
	return fmt.Sprintf(`100  12:00:%02d.%06d openat(AT_FDCWD, "/home/u/proj/f%03d.c", O_RDONLY) = 3`+"\n",
		i/60%60, i%1_000_000, i%500)
}

// appendLine appends s to path.
func appendLine(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// httpGet fetches url, returning status, headers, and body.
func httpGet(t *testing.T, client *http.Client, url string) (int, http.Header, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, string(body)
}

// healthReport fetches and decodes /healthz.
func healthReport(t *testing.T, client *http.Client, base string) (int, supervise.Report) {
	t.Helper()
	code, _, body := httpGet(t, client, base+"/healthz")
	var rep supervise.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad /healthz JSON: %v\n%s", err, body)
	}
	return code, rep
}

// waitHealth polls /healthz until the aggregate state matches.
func waitHealth(t *testing.T, client *http.Client, base, want string) supervise.Report {
	t.Helper()
	return waitHealthWithin(t, client, base, want, 10*time.Second)
}

// waitHealthWithin is waitHealth with an explicit deadline.
func waitHealthWithin(t *testing.T, client *http.Client, base, want string, d time.Duration) supervise.Report {
	t.Helper()
	deadline := time.Now().Add(d)
	var rep supervise.Report
	for time.Now().Before(deadline) {
		_, rep = healthReport(t, client, base)
		if rep.State == want {
			return rep
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("health never reached %s; last report: %+v", want, rep)
	return rep
}

// stageState returns the named stage's state from a report.
func stageState(rep supervise.Report, name string) string {
	for _, st := range rep.Stages {
		if st.Name == name {
			return st.State
		}
	}
	return "missing"
}

// probeDetail returns the named probe's detail from a report.
func probeDetail(rep supervise.Report, name string) string {
	for _, pr := range rep.Probes {
		if pr.Name == name {
			return pr.Detail
		}
	}
	return "missing"
}

// TestChaosPipeline runs a real supervised one-slot seerd while faults
// are injected — feeder panics, tailer panics up to a tripped breaker,
// a stalled tail read, corrupt trace lines, failing checkpoints, and a
// wedged correlator — asserting the daemon answers /plan throughout,
// health transitions track the injected faults (healthy → degraded →
// healthy), recovery lands within the backoff budget, and ≥10 induced
// stage restarts leak no goroutines.
func TestChaosPipeline(t *testing.T) {
	oldPoll := followPoll
	followPoll = 5 * time.Millisecond
	// Cleanup, not defer: registered before startTestPipeline's cleanup,
	// so the tailer has stopped before the global is restored.
	t.Cleanup(func() { followPoll = oldPoll })

	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	appendLine(t, path, "bootstrap noise before follow\n")

	tailPanic := fault.NewPanicAfter(0) // disarmed
	feedPanic := fault.NewPanicAfter(0)
	var sink fault.Sink
	var stall atomic.Pointer[fault.StallReader]

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	rt.Daemon.ShardDir = dir
	rt.Daemon.QueueCap = 128
	rt.Daemon.QueueBlockMS = 5
	// The whole-request deadline: a plan that cannot be built within it
	// falls back to the last-good plan.
	rt.Daemon.GatewayTimeoutMS = 300
	p, stop := startTestPipeline(t, pipelineConfig{
		Options: daemon.Options{Runtime: rt, Supervisor: supervise.Config{
			Backoff:    supervise.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.1},
			BreakAfter: 6,
			Window:     time.Minute,
			ResetAfter: 50 * time.Millisecond,
		}},
		checkpointEvery: 20 * time.Millisecond,
	}, func(p *pipeline) {
		p.wrapTail = func(r io.Reader) io.Reader {
			sr := fault.NewStallReader(&fault.PanicReader{R: r, After: tailPanic})
			stall.Store(sr)
			return sr
		}
		s0 := p.mgr.Shard(0)
		s0.SetFeedHook(func(trace.Event) { feedPanic.Hit() })
		s0.SetSaveWrapper(sink.Do)
	})
	defer stop()
	s0 := p.mgr.Shard(0)
	// restarts counts induced restarts across the process tree and the
	// slot's own tree.
	restarts := func() uint64 { return p.Sup.Restarts() + s0.Restarts() }

	base := "http://" + p.Addr()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	// ---- Phase 0: baseline. Feed a few events, get a fresh plan. ----
	next := 0
	feedN := func(n int) {
		for i := 0; i < n; i++ {
			appendLine(t, path, chaosLine(next))
			next++
		}
	}
	time.Sleep(30 * time.Millisecond) // tailer seeks to end first
	feedN(5)
	waitEvents(t, p, 3)
	if code, hdr, body := httpGet(t, client, base+"/plan"); code != 200 || hdr.Get(shard.StaleHeader) != "" || body == "" {
		t.Fatalf("baseline /plan: code=%d stale=%q body=%q", code, hdr.Get(shard.StaleHeader), body)
	}
	waitHealth(t, client, base, "healthy")
	client.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	baselineGoroutines := runtime.NumGoroutine()

	// ---- Phase 1: feeder panics. Each armed panic kills the slot's
	// feeder mid-event; its supervisor restarts it and ingestion
	// resumes. ----
	for i := 0; i < 5; i++ {
		before := s0.Restarts()
		feedPanic.Arm(1)
		feedN(1)
		waitFor(t, "feeder restart", func() bool { return s0.Restarts() > before })
		if code, _, _ := httpGet(t, client, base+"/plan"); code != 200 {
			t.Fatalf("/plan during feeder chaos: code=%d", code)
		}
	}
	feedPanic.Arm(0)
	feedN(2)
	// 5 baseline + 5 chaos lines (each armed panic loses exactly one
	// in-flight event) + 2 after disarming = at least 7 learned.
	waitEvents(t, p, 7)
	waitHealth(t, client, base, "healthy")

	// ---- Phase 2: corrupt trace lines. Garbage must be skipped, and
	// valid lines behind it still learned. ----
	appendLine(t, path, "!!corrupt!! \x00\x01 not strace at all\n")
	appendLine(t, path, strings.Repeat("z", 2048)+"\n")
	beforeCorrupt := events(p)
	feedN(2)
	waitFor(t, "valid lines after corruption", func() bool { return events(p) > beforeCorrupt })

	// ---- Phase 3: stalled tail. A hung read must not stop /plan or
	// health from answering. ----
	if sr := stall.Load(); sr != nil {
		sr.Stall()
		for i := 0; i < 3; i++ {
			if code, _, _ := httpGet(t, client, base+"/plan"); code != 200 {
				t.Fatalf("/plan during stall: code=%d", code)
			}
		}
		if code, _ := healthReport(t, client, base); code != 200 {
			t.Fatal("/healthz failed during tail stall")
		}
		sr.Release()
	}

	// ---- Phase 4: checkpoint failures. The sink breaks; consecutive
	// failures degrade the slot through its checkpoint probe, which the
	// process report names; healing it recovers. /plan serves fresh
	// plans the whole time. ----
	sink.Break()
	rep := waitHealth(t, client, base, "degraded")
	if d := probeDetail(rep, "shards"); !strings.Contains(d, "checkpoint: consecutive_failures=") {
		t.Fatalf("shards probe %q does not name the checkpoint probe during sink break", d)
	}
	if code, hdr, _ := httpGet(t, client, base+"/plan"); code != 200 || hdr.Get(shard.StaleHeader) != "" {
		t.Fatalf("/plan during checkpoint faults: code=%d stale=%q", code, hdr.Get(shard.StaleHeader))
	}
	sink.Heal()
	waitHealth(t, client, base, "healthy")

	// ---- Phase 5: tailer panic loop to a tripped breaker. Failures
	// within the window trip the circuit; the stage reports broken and
	// health degrades instead of crash-looping; after ResetAfter with
	// the fault cleared, the stage recovers. ----
	tailPanic.Arm(1)
	armKeeper := make(chan struct{})
	keeperDone := make(chan struct{})
	go func() {
		// Keep re-arming so every restarted tailer panics immediately,
		// until the breaker trips.
		defer close(keeperDone)
		for {
			select {
			case <-armKeeper:
				return
			case <-time.After(time.Millisecond):
				tailPanic.Arm(1)
			}
		}
	}()
	rep = func() supervise.Report {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			_, r := healthReport(t, client, base)
			if stageState(r, "tailer") == "broken" {
				return r
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("tailer breaker never tripped")
		return supervise.Report{}
	}()
	close(armKeeper)
	<-keeperDone // the keeper must be gone before disarming sticks
	tailPanic.Arm(0)
	if rep.State != "degraded" {
		t.Fatalf("health with broken tailer = %s, want degraded", rep.State)
	}
	if code, _, _ := httpGet(t, client, base+"/plan"); code != 200 {
		t.Fatal("/plan refused while tailer broken")
	}
	// Recovery within the backoff budget: ResetAfter (50ms) + one clean
	// run; give it the 10s waitHealth budget at most.
	waitHealth(t, client, base, "healthy")
	time.Sleep(30 * time.Millisecond) // restarted tailer seeks to end first
	beforeRecov := events(p)
	feedN(2)
	waitFor(t, "tailing after breaker recovery", func() bool { return events(p) > beforeRecov })

	// ---- Phase 6: wedged correlator. A feed that hangs holds the
	// correlator lock past the request deadline; /plan falls back to the
	// last-good plan, marked stale, and repeated failures degrade the
	// slot's plan probe. Releasing the wedge restores fresh plans. ----
	wedge, entered := make(chan struct{}), make(chan struct{}, 1)
	s0.SetFeedHook(func(trace.Event) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-wedge
	})
	feedN(1)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("feeder never reached the wedge")
	}
	for i := 0; i < 2; i++ {
		code, hdr, body := httpGet(t, client, base+"/plan")
		if code != 200 || hdr.Get(shard.StaleHeader) != "true" || body == "" {
			t.Fatalf("wedged /plan: code=%d stale=%q len=%d", code, hdr.Get(shard.StaleHeader), len(body))
		}
	}
	rep = waitHealth(t, client, base, "degraded")
	if d := probeDetail(rep, "shards"); !strings.Contains(d, "plan: consecutive_failures=") {
		t.Fatalf("shards probe %q does not name the plan probe while wedged", d)
	}
	s0.SetFeedHook(nil)
	close(wedge)
	if code, hdr, _ := httpGet(t, client, base+"/plan"); code != 200 || hdr.Get(shard.StaleHeader) != "" {
		t.Fatalf("post-wedge /plan: code=%d stale=%q", code, hdr.Get(shard.StaleHeader))
	}
	waitHealth(t, client, base, "healthy")

	// ---- Invariants: enough induced restarts, and no goroutine leak
	// across them. ----
	if got := restarts(); got < 10 {
		t.Errorf("induced restarts = %d, want >= 10", got)
	}

	// ---- Scrape after chaos: the registry must still render valid
	// Prometheus text, and its func-backed series must agree exactly
	// with the pipeline's own state. ----
	vals := scrapeMetrics(t, client, base)
	var restartSum float64
	for k, v := range vals {
		if strings.HasPrefix(k, "seer_stage_restarts_total{") {
			restartSum += v
		}
	}
	if want := float64(p.Sup.Restarts()); restartSum != want {
		t.Errorf("sum of seer_stage_restarts_total = %v, supervisor says %v", restartSum, want)
	}
	if got, want := vals[`seer_shard_restarts_total{shard="0"}`], float64(s0.Restarts()); got != want {
		t.Errorf("seer_shard_restarts_total = %v, shard says %v", got, want)
	}
	if _, _, drops := s0.QueueStats(); vals[`seer_queue_shed_total{shard="0"}`] != float64(drops) {
		t.Errorf("seer_queue_shed_total = %v, queue says %v", vals[`seer_queue_shed_total{shard="0"}`], drops)
	}
	if got, want := vals["seer_events_ingested_total"], float64(events(p)); got != want {
		t.Errorf("seer_events_ingested_total = %v, correlator says %v", got, want)
	}
	if got := vals["seer_stale_plans_served_total"]; got < 2 {
		t.Errorf("seer_stale_plans_served_total = %v, want >= 2 (wedged phase)", got)
	}
	if got := vals["seer_health_state"]; got != 0 {
		t.Errorf("seer_health_state = %v after recovery, want 0 (healthy)", got)
	}
	client.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	slack := 8 // http keep-alives and timer goroutines come and go
	for runtime.NumGoroutine() > baselineGoroutines+slack && time.Now().Before(leakDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baselineGoroutines+slack {
		t.Errorf("goroutines grew %d -> %d across %d restarts", baselineGoroutines, now, restarts())
	}
}

// TestBootstrapStopsWhenFeederFails panics the slot's feeder in the
// middle of a bootstrap batch. The supervisor restarts it, but the event
// it was feeding is gone, so the batch can never be caught up: bootstrap
// must stop promptly with an error counting the unfed event instead of
// waiting for a signal.
func TestBootstrapStopsWhenFeederFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	writeTrace(t, path, 40)
	rt := testRuntime(path)
	rt.Daemon.Listen = ""
	rt.Daemon.QueueCap = 16
	p := newPipeline(pipelineConfig{Options: daemon.Options{Runtime: rt, Base: rt, Supervisor: testSupervisorConfig()}})
	defer p.close()
	s0 := p.mgr.Shard(0)
	feedPanic := fault.NewPanicAfter(5)
	s0.SetFeedHook(func(trace.Event) { feedPanic.Hit() })

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan error, 1)
	go func() { done <- p.bootstrap(context.Background(), f) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "1 events unfed") {
			t.Fatalf("bootstrap err = %v, want the one lost event reported", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bootstrap still waiting 10s after the feeder lost an event")
	}
	if s0.Restarts() == 0 {
		t.Error("feeder never restarted")
	}
	// The first batch (one queue's worth) minus the lost event was fed;
	// nothing after it was read.
	if got := s0.Events(); got != 15 {
		t.Errorf("fed %d events, want 15", got)
	}
}

// waitFor polls cond until it holds or a deadline passes.
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
