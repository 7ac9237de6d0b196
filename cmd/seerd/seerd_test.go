package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/daemon"
	"github.com/fmg/seer/internal/strace"
	"github.com/fmg/seer/internal/supervise"
)

// testSupervisorConfig is a backoff policy tight enough for tests.
func testSupervisorConfig() supervise.Config {
	return supervise.Config{
		Backoff:    supervise.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.1},
		BreakAfter: 50,
		Window:     time.Minute,
	}
}

// testRuntime returns a one-slot runtime reading strace from path and
// serving on an ephemeral port.
func testRuntime(path string) config.Runtime {
	rt := config.DefaultRuntime()
	rt.Daemon.Strace = path
	rt.Daemon.Listen = "127.0.0.1:0"
	return rt
}

// startTestPipeline builds a pipeline from cfg (a zero base defaults to
// cfg.rt, a zero supervisor to testSupervisorConfig), lets prep install
// test hooks, bootstraps a single slot from its strace file, and serves
// until the returned stop runs — at the latest when the test ends. stop
// halts the process stages, then drains every shard to its final
// checkpoint.
func startTestPipeline(t *testing.T, cfg pipelineConfig, prep func(*pipeline)) (*pipeline, func()) {
	t.Helper()
	if cfg.Base == (config.Runtime{}) {
		cfg.Base = cfg.Runtime
	}
	if cfg.Supervisor.Window == 0 {
		cfg.Supervisor = testSupervisorConfig()
	}
	p := newPipeline(cfg)
	if prep != nil {
		prep(p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if d := cfg.Runtime.Daemon; d.Shards == 1 && d.Strace != "-" {
		f, err := os.Open(d.Strace)
		if err != nil {
			t.Fatal(err)
		}
		err = p.bootstrap(ctx, f)
		f.Close()
		if err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
	}
	p.Sup.Start(ctx)
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		done := make(chan struct{})
		go func() {
			p.Sup.Wait()
			p.close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("pipeline did not stop within 10s")
		}
	}
	t.Cleanup(stop)
	// Wait for the listener so tests can hit HTTP endpoints.
	deadline := time.Now().Add(5 * time.Second)
	for p.Addr() == "" && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if p.Addr() == "" {
		t.Fatal("pipeline listener never came up")
	}
	return p, stop
}

// events returns how many events the single slot has fed.
func events(p *pipeline) uint64 { return p.mgr.Shard(0).Events() }

// waitEvents polls until the single slot has fed at least n events.
func waitEvents(t *testing.T, p *pipeline, n uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d events fed", n), func() bool { return events(p) >= n })
}

// writeTrace writes lines chaosLine(0..n-1) to a fresh file at path.
func writeTrace(t *testing.T, path string, n int) {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(chaosLine(i))
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestFeedLinesDeliversAll(t *testing.T) {
	var got []string
	err := feedLines(context.Background(), strings.NewReader("a\nbb\nccc"), 100, func(s string) {
		got = append(got, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "bb", "ccc"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFeedLinesSkipsOversized(t *testing.T) {
	// An oversized line between two normal ones is skipped, not fatal —
	// the bufio.Scanner this replaced died with ErrTooLong here.
	huge := strings.Repeat("x", 300)
	in := "before\n" + huge + "\nafter\n"
	var got []string
	if err := feedLines(context.Background(), strings.NewReader(in), 100, func(s string) {
		got = append(got, s)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "before" || got[1] != "after" {
		t.Fatalf("got %v, want [before after]", got)
	}
}

func TestFeedLinesSkipsOversizedTail(t *testing.T) {
	huge := strings.Repeat("x", 300)
	var got []string
	if err := feedLines(context.Background(), strings.NewReader("ok\n"+huge), 100, func(s string) {
		got = append(got, s)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "ok" {
		t.Fatalf("got %v, want [ok]", got)
	}
}

// oneShot runs what a one-shot seerd does around rt: open the shards,
// bootstrap the trace, and close (the drain writes the final
// checkpoint). It returns the slot's event count before the close.
func oneShot(t *testing.T, rt config.Runtime) uint64 {
	t.Helper()
	p := newPipeline(pipelineConfig{Options: daemon.Options{Runtime: rt, Base: rt}})
	defer p.close()
	f, err := os.Open(rt.Daemon.Strace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := p.bootstrap(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	return events(p)
}

// restoredEvents opens the shards over rt's shard-dir and reports how
// many events slot 0 restored.
func restoredEvents(rt config.Runtime) uint64 {
	p := newPipeline(pipelineConfig{Options: daemon.Options{Runtime: rt, Base: rt}})
	defer p.close()
	return events(p)
}

// The snapshot ladder end to end through seerd: every run's final
// drain rotates the previous shard-000.db to .bak; a corrupt primary
// recovers from the backup, and a corrupt pair starts a fresh database
// rather than failing.
func TestSnapshotRotationAndRecoveryLadder(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(filepath.Join(dir, "seer.strace"))
	rt.Daemon.Listen = ""
	rt.Daemon.ShardDir = filepath.Join(dir, "shards")
	if err := os.MkdirAll(rt.Daemon.ShardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	db := filepath.Join(rt.Daemon.ShardDir, "shard-000.db")
	writeTrace(t, rt.Daemon.Strace, 6)

	// First run: primary only.
	first := oneShot(t, rt)
	if first != 6 {
		t.Fatalf("first run fed %d events, want 6", first)
	}
	if _, err := os.Stat(db + ".bak"); !os.IsNotExist(err) {
		t.Fatal("backup exists after the first checkpoint")
	}
	// Second run restores the first and learns the trace again; its
	// checkpoint rotates the first to .bak.
	second := oneShot(t, rt)
	if second != 2*first {
		t.Fatalf("second run holds %d events, want %d", second, 2*first)
	}
	if _, err := os.Stat(db + ".bak"); err != nil {
		t.Fatal("no backup after the second checkpoint")
	}

	// Corrupt primary: the ladder falls back to the backup.
	data, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte{}, data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := os.WriteFile(db, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := restoredEvents(rt); got != first {
		t.Fatalf("backup recovery restored %d events, want %d", got, first)
	}

	// Corrupt both: a fresh database, not a crash.
	for _, path := range []string{db, db + ".bak"} {
		if err := os.WriteFile(path, corrupt[:len(corrupt)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := restoredEvents(rt); got != 0 {
		t.Fatalf("fresh database has %d events", got)
	}
}

func TestSaveDBThenRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(filepath.Join(dir, "seer.strace"))
	rt.Daemon.Listen = ""
	rt.Daemon.ShardDir = dir
	writeTrace(t, rt.Daemon.Strace, 12)
	want := oneShot(t, rt)
	if got := restoredEvents(rt); got != want {
		t.Fatalf("restored %d events, want %d", got, want)
	}
	// No leftover temp file.
	if _, err := os.Stat(filepath.Join(dir, "shard-000.db.tmp")); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
}

// A one-shot run whose final checkpoint fails exits 1: learned state
// was lost, and a supervisor or script must be able to tell. The same
// run over a writable shard-dir exits 0.
func TestRunExitStatusReportsFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	rt := testRuntime(filepath.Join(dir, "seer.strace"))
	rt.Daemon.Listen = ""
	rt.Daemon.ShardDir = filepath.Join(dir, "shards")
	writeTrace(t, rt.Daemon.Strace, 12)
	// A directory where the snapshot's temp file goes fails every save.
	blocker := filepath.Join(rt.Daemon.ShardDir, "shard-000.db.tmp")
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if code := run(pipelineConfig{Options: daemon.Options{Runtime: rt, Base: rt}}, io.Discard); code != 1 {
		t.Errorf("run = %d with a failing final checkpoint, want 1", code)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if code := run(pipelineConfig{Options: daemon.Options{Runtime: rt, Base: rt}}, io.Discard); code != 0 {
		t.Errorf("run = %d with a writable shard-dir, want 0", code)
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// One-shot mode prints the hoard in plan order, so the same trace
// prints the same bytes on every run. A change to the hoard listing
// shows here; rerun with -update to accept it.
func TestOneShotHoardGolden(t *testing.T) {
	rt := testRuntime(filepath.Join("..", "..", "internal", "strace", "testdata", "golden.strace"))
	rt.Daemon.Listen = ""
	var out bytes.Buffer
	if code := run(pipelineConfig{Options: daemon.Options{Runtime: rt, Base: rt}}, &out); code != 0 {
		t.Fatalf("one-shot run = %d", code)
	}
	golden := filepath.Join("testdata", "oneshot_hoard.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("one-shot hoard differs from %s:\n got:\n%s\nwant:\n%s", golden, out.Bytes(), want)
	}
}

// Slot 0's /plan after a bootstrap is exactly what a standalone parser
// and correlator render over the same trace: the one-slot deployment
// adds supervision, not behaviour. A queue far smaller than the trace
// forces the bootstrap through its backpressure loop, which must shed
// nothing.
func TestBootstrapPlanMatchesStandaloneCorrelator(t *testing.T) {
	const golden = "../../internal/strace/testdata/golden.strace"
	rt := testRuntime(golden)
	rt.Daemon.QueueCap = 4
	p, _ := startTestPipeline(t, pipelineConfig{Options: daemon.Options{Runtime: rt}}, nil)

	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	parser := strace.NewParser()
	c := core.New(core.Options{Seed: 1})
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if ev, ok := parser.ParseLine(sc.Text()); ok {
			c.Feed(ev)
		}
	}
	plan, err := c.PlanContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i, e := range plan.Entries {
		fmt.Fprintf(&want, "%5d %8s %10d %12d %s\n", i, e.Reason, e.File.Size, e.Cum, e.File.Path)
	}
	if plan.Entries == nil {
		t.Fatal("standalone plan is empty; the golden trace should cluster")
	}

	if got := events(p); got != c.Events() {
		t.Fatalf("slot 0 fed %d events, standalone %d", got, c.Events())
	}
	if _, _, drops := p.mgr.Shard(0).QueueStats(); drops != 0 {
		t.Fatalf("bootstrap shed %d events", drops)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	code, _, got := httpGet(t, client, "http://"+p.Addr()+"/plan")
	if code != http.StatusOK || got != want.String() {
		t.Fatalf("/plan: HTTP %d\n--- got\n%s--- want\n%s", code, got, want.String())
	}
}

// Both listeners serve one health document — the process supervisor's
// report, whose shards probe names every slot — and the debug listener
// serves the gateway's /shards view.
func TestHealthzServesOneDocument(t *testing.T) {
	rt := testRuntime("-")
	rt.Daemon.Shards = 2
	rt.Daemon.DebugAddr = "127.0.0.1:0"
	p, _ := startTestPipeline(t, pipelineConfig{Options: daemon.Options{Runtime: rt}}, nil)
	waitFor(t, "debug listener", func() bool { return p.DebugAddr() != "" })
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	var docs []string
	for _, base := range []string{"http://" + p.Addr(), "http://" + p.DebugAddr()} {
		code, rep := healthReport(t, client, base)
		if code != http.StatusOK || rep.State != "healthy" {
			t.Fatalf("%s/healthz: HTTP %d state %q", base, code, rep.State)
		}
		detail := probeDetail(rep, "shards")
		if !strings.Contains(detail, "0:serving/healthy") || !strings.Contains(detail, "1:serving/healthy") {
			t.Fatalf("%s/healthz shards probe = %q, want both slots", base, detail)
		}
		if code, _, _ := httpGet(t, client, base+"/readyz"); code != http.StatusOK {
			t.Fatalf("%s/readyz: HTTP %d", base, code)
		}
		docs = append(docs, fmt.Sprint(len(rep.Stages), len(rep.Probes)))
	}
	if docs[0] != docs[1] {
		t.Fatalf("listeners serve different health documents: %v", docs)
	}

	code, _, body := httpGet(t, client, "http://"+p.DebugAddr()+"/shards")
	var view struct {
		Shards []struct {
			Shard int `json:"shard"`
		} `json:"shards"`
		Health string `json:"health"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil || code != http.StatusOK {
		t.Fatalf("debug /shards: HTTP %d %v\n%s", code, err, body)
	}
	if len(view.Shards) != 2 || view.Health != "healthy" {
		t.Fatalf("debug /shards = %+v", view)
	}
}

func TestFollowPipelineSurvivesTruncationAndRotation(t *testing.T) {
	oldPoll := followPoll
	followPoll = 10 * time.Millisecond
	// Cleanup, not defer: registered before startTestPipeline's cleanup,
	// so the tailer has stopped before the global is restored.
	t.Cleanup(func() { followPoll = oldPoll })

	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	line1 := `100  12:00:01.000001 openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = 3` + "\n"
	line2 := `100  12:00:02.000001 openat(AT_FDCWD, "/etc/passwd", O_RDONLY) = 4` + "\n"
	line3 := `100  12:00:03.000001 openat(AT_FDCWD, "/etc/group", O_RDONLY) = 5` + "\n"
	if err := os.WriteFile(path, []byte("ignored: started before follow\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	p, stop := startTestPipeline(t, pipelineConfig{Options: daemon.Options{Runtime: rt}}, nil)

	// Appended lines are consumed.
	time.Sleep(30 * time.Millisecond) // let the tailer seek to the end
	appendLine(t, path, line1)
	waitEvents(t, p, 1)

	// Truncation: the file is rewritten shorter. The tailer must reopen
	// from the start and consume the fresh contents.
	if err := os.WriteFile(path, []byte(line2), 0o644); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, p, 2)

	// Rotation: the file is replaced via rename (new inode).
	tmp := filepath.Join(dir, "rotated.strace")
	if err := os.WriteFile(tmp, []byte(line3), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, p, 3)

	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not stop on context cancellation")
	}
}
