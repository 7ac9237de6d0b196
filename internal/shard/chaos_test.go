package shard

// Shard-isolation chaos suite (run under -race; `make shard-chaos`
// loops it): a Manager with 8 shards serving concurrent /plan and
// /events load through the Gateway while faults land in individual
// shards — a corrupt SEERDB at open, a panicking feeder, a wedged
// correlator — and a healthy shard is drained and replaced mid-traffic.
// The bulkhead contract under test: every non-victim shard answers
// /plan with 200 throughout, no fault restarts a neighbor's stages, and
// the drain loses zero events (the replacement's replayed plan is
// byte-identical).

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/trace"
)

const chaosShards = 8

// chaosRuntime returns a Runtime tuned for the suite: admission
// generous enough that healthy shards never shed under test load.
func chaosRuntime() config.Runtime {
	rt := config.DefaultRuntime()
	rt.Daemon.QueueCap = 512
	rt.Daemon.QueueBlockMS = 10
	rt.Admit.PlanMaxInFlight = 64
	return rt
}

// newChaosHarness opens a chaosShards-slot manager + gateway + HTTP
// server over dir.
func newChaosHarness(t *testing.T, dir string) (*Manager, *httptest.Server) {
	t.Helper()
	return newHarness(t, dir, chaosShards)
}

// newHarness opens an n-slot manager + gateway + HTTP server over dir.
func newHarness(t *testing.T, dir string, n int) (*Manager, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	mgr := NewManager(ctx, ManagerConfig{
		Shards:          n,
		Dir:             dir,
		Runtime:         chaosRuntime(),
		Seed:            1,
		Supervisor:      fastSupervisor(),
		CheckpointEvery: time.Hour,
	})
	gw := NewGateway(mgr, Policy{
		MaxAttempts:  100,
		BaseDelay:    2 * time.Millisecond,
		MaxDelay:     20 * time.Millisecond,
		Timeout:      20 * time.Second,
		DrainTimeout: 30 * time.Second,
	})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return mgr, ts
}

// userForSlot finds a user name the ring maps onto slot.
func userForSlot(t *testing.T, mgr *Manager, slot int) string {
	t.Helper()
	for i := 0; i < 100_000; i++ {
		u := fmt.Sprintf("user-%d", i)
		if mgr.SlotFor(u) == slot {
			return u
		}
	}
	t.Fatalf("no user found for slot %d", slot)
	return ""
}

// postEvents sends lines to /events?user= and returns the HTTP status
// plus the ingested count parsed from the body.
func postEvents(t *testing.T, base, user string, lines []string) (int, int) {
	t.Helper()
	resp, err := http.Post(base+"/events?user="+user, contentText,
		strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatalf("POST /events: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	n := 0
	fmt.Sscanf(string(body), "ingested %d events", &n)
	return resp.StatusCode, n
}

// getPlan fetches /plan?user= and returns status, body, stale flag.
func getPlan(t *testing.T, base, user string, timeoutMS int) (int, []byte, bool) {
	t.Helper()
	url := fmt.Sprintf("%s/plan?user=%s&timeout_ms=%d", base, user, timeoutMS)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET /plan: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, resp.Header.Get(StaleHeader) == "true"
}

func TestChaosShardIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	dir := t.TempDir()

	// Fault 1, planted before open: slot 0's snapshot is garbage. The
	// recovery ladder must contain it — shard 0 opens fresh and serves;
	// nothing else notices.
	if err := os.WriteFile(filepath.Join(dir, "shard-000.db"),
		[]byte("THIS IS NOT A SEERDB"), 0o644); err != nil {
		t.Fatal(err)
	}

	mgr, ts := newChaosHarness(t, dir)
	defer mgr.Close()

	const (
		panicSlot = 1 // fault 2: feeder panics
		wedgeSlot = 2 // fault 3: correlator wedges
		drainSlot = 5 // healthy shard drained mid-traffic
	)
	users := make([]string, chaosShards)
	for i := range users {
		users[i] = userForSlot(t, mgr, i)
	}

	// Seed every shard and warm every plan cache.
	seeded := make([]uint64, chaosShards)
	for i, u := range users {
		code, n := postEvents(t, ts.URL, u, testLines(40*i, 20))
		if code != http.StatusOK {
			t.Fatalf("seeding shard %d: HTTP %d", i, code)
		}
		seeded[i] = uint64(n)
	}
	for i, u := range users {
		s := mgr.Shard(i)
		want := seeded[i]
		waitFor(t, fmt.Sprintf("shard %d seeded", i), func() bool { return s.Events() >= want })
		if code, body, _ := getPlan(t, ts.URL, u, 5000); code != http.StatusOK || len(body) == 0 {
			t.Fatalf("warming shard %d plan: HTTP %d, %d bytes", i, code, len(body))
		}
	}
	if st := mgr.Shard(0).State(); st != Serving {
		t.Fatalf("corrupt-DB shard 0 not contained: state %s", st)
	}

	restartsBefore := make([]uint64, chaosShards)
	for i, info := range mgr.Report() {
		restartsBefore[i] = info.Restarts
	}

	// Concurrent load on every shard: planners on all users, ingesters
	// on all but the drain victim (quiesced so the drained plan is
	// reproducible). Failures on non-victim shards are recorded.
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
		extra    [chaosShards]uint64 // events ingested by the load loops
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for i, u := range users {
		i, u := i, u
		wg.Add(1)
		go func() { // planner
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				code, _, _ := getPlan(t, ts.URL, u, 5000)
				if code != http.StatusOK && i != panicSlot && i != wedgeSlot {
					fail("plan for healthy shard %d: HTTP %d", i, code)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
		if i == drainSlot {
			continue
		}
		wg.Add(1)
		go func() { // ingester
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				code, n := postEvents(t, ts.URL, u, testLines(1000+7*seq, 3))
				if code == http.StatusOK {
					atomic.AddUint64(&extra[i], uint64(n))
				} else if i != panicSlot && i != wedgeSlot && code != http.StatusTooManyRequests {
					fail("events for healthy shard %d: HTTP %d", i, code)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	// Fault 2: the panic shard's feeder dies three times mid-load. Its
	// own supervisor absorbs the crashes; neighbors must not restart.
	var panics atomic.Int32
	hook := func(trace.Event) {
		if panics.Add(1) <= 3 {
			panic("chaos: injected feeder panic")
		}
	}
	mgr.Shard(panicSlot).feedHook.Store(&hook)

	// Fault 3: the wedge shard's correlator lock is held hostage for a
	// while; its reads block briefly or serve stale, neighbors keep
	// planning fresh.
	wedged := mgr.Shard(wedgeSlot)
	wedged.lock()
	wedgeOver := time.AfterFunc(300*time.Millisecond, wedged.unlock)
	defer wedgeOver.Stop()

	time.Sleep(250 * time.Millisecond) // let the faults land under load

	// Mid-traffic drain of a healthy shard. Its user is quiesced
	// (read-only), so zero loss has a crisp check: the replacement
	// replays exactly the events the retiring shard held, and its fresh
	// plan is byte-identical.
	preShard := mgr.Shard(drainSlot)
	waitFor(t, "drain shard queue empty", func() bool { return preShard.Events() >= seeded[drainSlot] })
	preEvents := preShard.Events()
	code, prePlan, stale := getPlan(t, ts.URL, users[drainSlot], 5000)
	if code != http.StatusOK || stale {
		t.Fatalf("pre-drain plan: HTTP %d stale=%v", code, stale)
	}
	resp, err := http.Post(ts.URL+"/shards/drain?shard="+fmt.Sprint(drainSlot), contentText, nil)
	if err != nil {
		t.Fatalf("POST /shards/drain: %v", err)
	}
	drainBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: HTTP %d: %s", resp.StatusCode, drainBody)
	}
	repl := mgr.Shard(drainSlot)
	if repl == preShard {
		t.Fatal("drain did not swap in a replacement shard")
	}
	if got := repl.Events(); got != preEvents {
		t.Errorf("replacement replayed %d events, want %d (zero loss)", got, preEvents)
	}
	code, postPlan, _ := getPlan(t, ts.URL, users[drainSlot], 5000)
	if code != http.StatusOK {
		t.Fatalf("post-drain plan: HTTP %d", code)
	}
	if string(postPlan) != string(prePlan) {
		t.Errorf("replayed plan differs from pre-drain plan:\n--- want\n%s--- got\n%s", prePlan, postPlan)
	}

	time.Sleep(250 * time.Millisecond) // more load after the faults
	close(stop)
	wg.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	if got := panics.Load(); got < 3 {
		t.Errorf("panic hook fired %d times, want ≥3 (fault not exercised)", got)
	}

	// Containment ledger: only the panic shard restarted; every other
	// slot (including the wedged, corrupt-DB, and drained ones) shows
	// zero new stage restarts.
	for i, info := range mgr.Report() {
		if info.State != "serving" {
			t.Errorf("shard %d finished %s, want serving", i, info.State)
		}
		delta := info.Restarts - restartsBefore[i]
		switch i {
		case panicSlot:
			if delta == 0 {
				t.Errorf("panic shard %d shows no restarts", i)
			}
		default:
			if delta != 0 {
				t.Errorf("fault leaked: shard %d restarted %d times", i, delta)
			}
		}
	}

	// The panic shard recovered: events past the poison still feed and
	// it answers fresh plans again.
	ps := mgr.Shard(panicSlot)
	waitFor(t, "panic shard recovered", func() bool {
		c, _, st := getPlan(t, ts.URL, users[panicSlot], 2000)
		return c == http.StatusOK && !st && ps.Events() > seeded[panicSlot]
	})
}

// A drain racing live ingestion: writes that land in the drain window
// are refused as transient, the gateway backs off and re-routes, and
// they commit on the replacement — nothing is lost, nothing hangs.
func TestGatewayRetryAcrossDrain(t *testing.T) {
	dir := t.TempDir()
	mgr, ts := newChaosHarness(t, dir)
	defer mgr.Close()

	u := userForSlot(t, mgr, 0)
	code, n := postEvents(t, ts.URL, u, testLines(0, 10))
	if code != http.StatusOK {
		t.Fatalf("seed: HTTP %d", code)
	}
	s0 := mgr.Shard(0)
	waitFor(t, "seed fed", func() bool { return s0.Events() >= uint64(n) })

	// Hold the correlator lock so the drain stalls at its final
	// checkpoint — a deterministic drain window to land writes in.
	s0.lock()
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- mgr.Drain(ctx, 0)
	}()
	waitFor(t, "shard draining", func() bool { return s0.State() == Draining })

	postDone := make(chan int, 1)
	go func() {
		c, _ := postEvents(t, ts.URL, u, testLines(100, 5))
		postDone <- c
	}()
	// The post is now cycling through ErrDraining retries. Release the
	// wedge: the drain finishes, the manager swaps the replacement, and
	// the retry must land there.
	time.Sleep(50 * time.Millisecond)
	s0.unlock()
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if c := <-postDone; c != http.StatusOK {
		t.Fatalf("ingest across drain: HTTP %d, want 200", c)
	}
	repl := mgr.Shard(0)
	if repl == s0 {
		t.Fatal("no replacement after drain")
	}
	waitFor(t, "write committed on replacement", func() bool {
		return repl.Events() > uint64(n)
	})
}

// A request that dies mid-backoff — its deadline expires or the client
// disconnects — must abort the retry loop right there, not sleep
// through a multi-second backoff schedule against a shard that is
// still in transition. The policy below would retry for minutes if the
// context were ignored.
func TestGatewayBackoffAbortsOnDeadRequest(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mgr := NewManager(ctx, ManagerConfig{
		Shards:          2,
		Dir:             dir,
		Runtime:         chaosRuntime(),
		Seed:            1,
		Supervisor:      fastSupervisor(),
		CheckpointEvery: time.Hour,
	})
	defer mgr.Close()
	gw := NewGateway(mgr, Policy{
		MaxAttempts: 1000,
		BaseDelay:   10 * time.Second,
		MaxDelay:    10 * time.Second,
		Timeout:     5 * time.Minute,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	u := userForSlot(t, mgr, 0)
	s0 := mgr.Shard(0)

	// Wedge slot 0 in Draining so writes keep failing transiently: hold
	// the correlator lock, then start a drain that stalls on it.
	s0.lock()
	drainDone := make(chan error, 1)
	go func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer dcancel()
		drainDone <- mgr.Drain(dctx, 0)
	}()
	waitFor(t, "shard draining", func() bool { return s0.State() == Draining })

	// Server-side deadline: ?timeout_ms caps the request context; the
	// first 10s backoff must be cut short at ~100ms and answered 504.
	start := time.Now()
	resp, err := http.Post(ts.URL+"/miss?user="+u+"&path=/home/u/f.c&timeout_ms=100",
		contentText, nil)
	if err != nil {
		t.Fatalf("POST /miss: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline-bound request took %v; backoff ignored the context", elapsed)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("dead request answered HTTP %d, want 504", resp.StatusCode)
	}

	// Client disconnect: cancel the request context mid-backoff; the
	// call must return promptly (the transport surfaces the cancel).
	rctx, rcancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(rctx, http.MethodPost,
		ts.URL+"/miss?user="+u+"&path=/home/u/f.c", nil)
	go func() {
		time.Sleep(100 * time.Millisecond)
		rcancel()
	}()
	start = time.Now()
	if resp2, err2 := http.DefaultClient.Do(req); err2 == nil {
		io.Copy(io.Discard, resp2.Body)
		resp2.Body.Close()
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled request took %v; backoff ignored the disconnect", elapsed)
	}

	// Unwedge and let the drain finish so Close doesn't fight it.
	s0.unlock()
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// A request retried across a mid-drain shard must still reconstruct as
// ONE trace: a single gateway root span, every attempt a sibling child
// of that root (the failed tries annotated outcome=retry, the last
// outcome=ok), and the ingest span on the winning shard parented under
// the winning attempt. This is the cross-process propagation contract
// seerctl trace renders, exercised under the same drain race as
// TestGatewayRetryAcrossDrain.
func TestTraceRetryAcrossDrain(t *testing.T) {
	dir := t.TempDir()
	mgr, ts := newChaosHarness(t, dir)
	defer mgr.Close()
	tracer := mgr.cfg.Tracer

	u := userForSlot(t, mgr, 0)
	code, n := postEvents(t, ts.URL, u, testLines(0, 10))
	if code != http.StatusOK {
		t.Fatalf("seed: HTTP %d", code)
	}
	s0 := mgr.Shard(0)
	waitFor(t, "seed fed", func() bool { return s0.Events() >= uint64(n) })

	// Same deterministic drain window as TestGatewayRetryAcrossDrain:
	// hold the correlator lock so the drain wedges at its final
	// checkpoint while the traced write cycles through retries.
	s0.lock()
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- mgr.Drain(ctx, 0)
	}()
	waitFor(t, "shard draining", func() bool { return s0.State() == Draining })

	type post struct {
		code    int
		traceID string
	}
	postDone := make(chan post, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/events?user="+u, contentText,
			strings.NewReader(strings.Join(testLines(100, 5), "\n")))
		if err != nil {
			postDone <- post{code: -1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		postDone <- post{code: resp.StatusCode, traceID: resp.Header.Get(TraceHeader)}
	}()
	time.Sleep(50 * time.Millisecond)
	s0.unlock()
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	got := <-postDone
	if got.code != http.StatusOK {
		t.Fatalf("ingest across drain: HTTP %d, want 200", got.code)
	}
	if got.traceID == "" {
		t.Fatalf("no %s header on the retried response", TraceHeader)
	}
	tid, err := obs.ParseTraceID(got.traceID)
	if err != nil {
		t.Fatalf("bad trace id %q: %v", got.traceID, err)
	}

	// The ingest span ends inside the request, but give the ring a
	// moment in case the racing drain reordered the final record.
	var spans []obs.Span
	waitFor(t, "trace spans recorded", func() bool {
		spans = spans[:0]
		for _, s := range tracer.Spans() {
			if s.Trace == tid {
				spans = append(spans, s)
			}
		}
		hasIngest := false
		for _, s := range spans {
			if s.Stage == "ingest" {
				hasIngest = true
			}
		}
		return hasIngest
	})

	attr := func(s obs.Span, key string) string {
		for _, a := range s.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}

	var root obs.Span
	var attempts, ingests []obs.Span
	for _, s := range spans {
		switch s.Stage {
		case "gateway:events":
			if root.ID != 0 {
				t.Fatalf("two gateway root spans in trace %s", got.traceID)
			}
			root = s
		case "attempt":
			attempts = append(attempts, s)
		case "ingest":
			ingests = append(ingests, s)
		}
	}
	if root.ID == 0 {
		t.Fatalf("no gateway:events root span in trace %s (got %d spans)", got.traceID, len(spans))
	}
	if root.Parent != 0 {
		t.Fatalf("gateway root has parent %s; the edge must mint the root", root.Parent)
	}
	if len(attempts) < 2 {
		t.Fatalf("got %d attempt spans, want >=2 (the drain window must force a retry)", len(attempts))
	}
	retried, ok := 0, 0
	for _, a := range attempts {
		if a.Parent != root.ID {
			t.Fatalf("attempt %s parented under %s, want sibling under root %s",
				a.ID, a.Parent, root.ID)
		}
		switch attr(a, "outcome") {
		case "retry":
			retried++
		case "ok":
			ok++
		}
	}
	if retried == 0 {
		t.Fatalf("no attempt annotated outcome=retry across the drain")
	}
	if ok != 1 {
		t.Fatalf("got %d outcome=ok attempts, want exactly 1", ok)
	}
	if len(ingests) != 1 {
		t.Fatalf("got %d ingest spans, want exactly 1 (only the winning attempt commits)", len(ingests))
	}
	winner := obs.Span{}
	for _, a := range attempts {
		if attr(a, "outcome") == "ok" {
			winner = a
		}
	}
	if ingests[0].Parent != winner.ID {
		t.Fatalf("ingest parented under %s, want the winning attempt %s",
			ingests[0].Parent, winner.ID)
	}
}

// Admission sheds surface as terminal 429s with the shard's
// Retry-After — the gateway must not burn retries hammering an
// overloaded shard.
func TestGatewayHonorsAdmission(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt := chaosRuntime()
	rt.Admit.PlanMaxInFlight = 1
	rt.Admit.RetryAfterSec = 7
	mgr := NewManager(ctx, ManagerConfig{
		Shards:     2,
		Runtime:    rt,
		Seed:       1,
		Supervisor: fastSupervisor(),
	})
	defer mgr.Close()
	gw := NewGateway(mgr, Policy{MaxAttempts: 10, BaseDelay: time.Millisecond})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	u := userForSlot(t, mgr, 0)
	lim := mgr.Shard(0).Limiter()
	if !lim.TryAcquire() { // occupy the only admission slot
		t.Fatal("could not occupy the admission slot")
	}
	defer lim.Release(0)

	resp, err := http.Get(ts.URL + "/plan?user=" + u)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded shard: HTTP %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", got)
	}
	if lim.Sheds() == 0 {
		t.Error("shed not recorded on the shard's limiter")
	}
}

// Requests with no usable routing answer fast with a clear status —
// never a hang: a missing user parameter is a 400 only when there is a
// choice of slot (one slot routes every user, named or not), and an
// unknown drain index is a 409.
func TestGatewayInputDiscipline(t *testing.T) {
	for _, tc := range []struct {
		shards, noUser int
	}{
		{1, http.StatusOK},
		{chaosShards, http.StatusBadRequest},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			mgr, ts := newHarness(t, t.TempDir(), tc.shards)
			defer mgr.Close()

			resp, err := http.Get(ts.URL + "/plan")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.noUser {
				t.Errorf("plan without user: HTTP %d, want %d", resp.StatusCode, tc.noUser)
			}

			resp, err = http.Post(ts.URL+"/shards/drain?shard=99", contentText, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				t.Errorf("drain of unknown shard: HTTP %d, want 409", resp.StatusCode)
			}
		})
	}
}

// A hung rumor master must not couple the bulkheads. Every shard shares
// one RemoteRumor; while shard 0's /hoard waits on a /fetch the master
// never answers, shard 1's /hoard (a published hit, whose only work is
// the fill) still returns within its own deadline, fresh.
func TestHungRumorBlocksNoHoardPastDeadline(t *testing.T) {
	var hung atomic.Bool
	release, fetching := make(chan struct{}), make(chan struct{}, 1)
	master := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hung.Load() && r.URL.Path == "/rumor/fetch" {
			select {
			case fetching <- struct{}{}:
			default:
			}
			<-release
		}
		http.Error(w, "master unavailable", http.StatusServiceUnavailable)
	}))
	t.Cleanup(master.Close)

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	mgr := NewManager(ctx, ManagerConfig{
		Shards:     2,
		Runtime:    chaosRuntime(),
		Seed:       1,
		Supervisor: fastSupervisor(),
		Rumor:      replic.NewRemoteRumor(master.URL+"/rumor", nil),
	})
	t.Cleanup(func() { mgr.Close() })
	s0, s1 := mgr.Shard(0), mgr.Shard(1)
	ingest(t, s0, testLines(0, 20))
	ingest(t, s1, testLines(0, 20))
	if _, stale, err := s1.Hoard(context.Background()); err != nil || stale {
		t.Fatalf("warm shard 1 /hoard: stale %v, err %v", stale, err)
	}

	hung.Store(true)
	stuck := make(chan struct{})
	go func() {
		defer close(stuck)
		s0.Hoard(context.Background())
	}()
	defer func() {
		close(release)
		<-stuck
	}()
	select {
	case <-fetching:
	case <-time.After(10 * time.Second):
		t.Fatal("shard 0's hoard fill never reached the master")
	}

	type answer struct {
		stale bool
		err   error
	}
	done := make(chan answer, 1)
	hctx, hcancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer hcancel()
	go func() {
		_, stale, err := s1.Hoard(hctx)
		done <- answer{stale, err}
	}()
	select {
	case a := <-done:
		if a.err != nil || a.stale {
			t.Fatalf("shard 1 /hoard beside a hung fill: stale %v, err %v; want a fresh listing", a.stale, a.err)
		}
	case <-time.After(time.Second):
		t.Fatal("shard 1's /hoard under a 200 ms deadline still blocked after 1 s behind shard 0's hung rumor fill")
	}
}
