package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fmg/seer/internal/daemon"
	"github.com/fmg/seer/internal/trace"
)

// TestAdmissionChaosShedAndRecover is the acceptance scenario for
// admission control: under injected overload (the slot's correlator
// wedged by the test) seerd serves 429 + Retry-After instead of
// queueing without bound, /healthz reports degraded while shedding is
// recent, and a hot config reload raising the in-flight limit restores
// 200s with zero restarts — all under -race.
func TestAdmissionChaosShedAndRecover(t *testing.T) {
	oldPoll := daemon.ConfigPoll
	daemon.ConfigPoll = time.Millisecond
	// Cleanup, not defer: registered before startTestPipeline's cleanup,
	// so the global is restored only after the pipeline has stopped.
	t.Cleanup(func() { daemon.ConfigPoll = oldPoll })

	dir := t.TempDir()
	strace := filepath.Join(dir, "seer.strace")
	cfgFile := filepath.Join(dir, "seerd.conf")
	writeTrace(t, strace, 12)
	// Tight limit before startup: the watcher applies it as generation 2.
	if err := os.WriteFile(cfgFile, []byte("admit-plan-inflight 2\nadmit-retry-after 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(strace)
	rt.Daemon.GatewayTimeoutMS = 300
	p, _ := startTestPipeline(t, pipelineConfig{Options: daemon.Options{Runtime: rt, ConfigPath: cfgFile}}, nil)
	s0 := p.mgr.Shard(0)
	lim := s0.Limiter()
	base := "http://" + p.Addr()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	waitFor(t, "startup config applied", func() bool { return p.Store.Generation() == 2 })
	if got := p.Store.Get().Admit.PlanMaxInFlight; got != 2 {
		t.Fatalf("PlanMaxInFlight = %d after startup reload, want 2", got)
	}

	// Prime the plan cache so admitted requests can fall back to a stale
	// plan while the correlator is wedged.
	if code, _, _ := httpGet(t, client, base+"/plan"); code != 200 {
		t.Fatalf("baseline /plan: %d", code)
	}

	// Inject overload: a feed that hangs holds the correlator lock, so
	// every admitted /plan blocks until the stale deadline.
	wedge, entered := make(chan struct{}), make(chan struct{}, 1)
	s0.SetFeedHook(func(trace.Event) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-wedge
	})
	unwedge := func() {
		s0.SetFeedHook(nil)
		close(wedge)
	}
	wedged := true
	defer func() {
		if wedged {
			unwedge()
		}
	}()
	if _, err := s0.IngestLines(context.Background(), []string{chaosLine(0)}); err != nil {
		t.Fatal(err)
	}
	<-entered

	// Fire 8 concurrent /plan. With 2 slots, exactly 6 are shed with
	// 429 + the configured Retry-After; the admitted 2 serve the stale
	// cache (200 + X-Seer-Stale) once planDeadline expires.
	const burst = 8
	var ok200, shed429, stale atomic.Int64
	var maxInFlight atomic.Int64
	var wg sync.WaitGroup
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		for i := 0; i < 200; i++ {
			if n := lim.InFlight(); n > maxInFlight.Load() {
				maxInFlight.Store(n)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, hdr, body := httpGet(t, client, base+"/plan")
			switch code {
			case 200:
				ok200.Add(1)
				if hdr.Get("X-Seer-Stale") != "" {
					stale.Add(1)
				}
			case 429:
				shed429.Add(1)
				if ra := hdr.Get("Retry-After"); ra != "3" {
					t.Errorf("Retry-After = %q, want 3", ra)
				}
			default:
				t.Errorf("/plan under overload: code=%d body=%q", code, body)
			}
		}()
	}
	wg.Wait()
	<-sampleDone

	if got := ok200.Load(); got != 2 {
		t.Errorf("admitted 200s = %d, want 2", got)
	}
	if got := shed429.Load(); got != burst-2 {
		t.Errorf("shed 429s = %d, want %d", got, burst-2)
	}
	if got := stale.Load(); got != 2 {
		t.Errorf("stale fallbacks = %d, want 2 (wedged correlator must not block admitted requests)", got)
	}
	if got := maxInFlight.Load(); got > 2 {
		t.Errorf("observed %d in flight, limit is 2: queueing is unbounded", got)
	}
	if got := lim.Sheds(); got < uint64(burst-2) {
		t.Errorf("shed counter = %d, want >= %d", got, burst-2)
	}

	// The shed is visible in health: the slot's admission probe degrades
	// the whole report while shedding is recent.
	rep := waitHealth(t, client, base, "degraded")
	if got := probeDetail(rep, "shards"); !strings.Contains(got, "admission: shedding recently") {
		t.Errorf("shards probe = %q, want the admission probe named (report %+v)", got, rep)
	}

	// Shed counters are exported.
	if code, _, metrics := httpGet(t, client, base+"/metrics"); code != 200 {
		t.Errorf("/metrics: %d", code)
	} else if !strings.Contains(metrics, `seer_admit_shed_total{endpoint="shard0"}`) {
		t.Errorf("metrics missing the slot's shed counter:\n%s", metrics)
	}

	// Hot reload raises the limit WHILE the correlator is still wedged —
	// an admission-only reload must not wait behind clustering.
	if err := os.WriteFile(cfgFile, []byte("admit-plan-inflight 32\nadmit-retry-after 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "limit-raising reload applied under wedge", func() bool {
		return p.Store.Generation() == 3
	})

	// Clear the overload; the same burst now fully succeeds, fresh.
	unwedge()
	wedged = false
	var after200 atomic.Int64
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, body := httpGet(t, client, base+"/plan")
			if code != 200 {
				t.Errorf("/plan after reload: code=%d body=%q", code, body)
				return
			}
			after200.Add(1)
		}()
	}
	wg.Wait()
	if got := after200.Load(); got != burst {
		t.Errorf("post-reload 200s = %d, want %d", got, burst)
	}

	// Once the shard's 15 s shed window passes, health recovers — zero
	// restarts.
	waitHealthWithin(t, client, base, "healthy", 30*time.Second)
	if got := p.Sup.Restarts() + s0.Restarts(); got != 0 {
		t.Errorf("stage restarts = %d, want 0: recovery must come from reload, not restart", got)
	}
}
