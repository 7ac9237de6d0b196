package main

import (
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fmg/seer/internal/daemon"
)

// TestReloadRaceUnderLoad hammers /plan and /hoard while a writer loop
// rewrites the watched config file — alternating valid configs (queue
// bounds, admission limits, cluster knobs) with invalid and structural
// ones — all under -race. Invariants: the active config is always
// valid and untorn (queue cap is always one of the written values),
// invalid reloads are rejected without disturbing serving, applied and
// rejected reloads are both counted, ingestion drops nothing, and no
// stage restarts.
func TestReloadRaceUnderLoad(t *testing.T) {
	oldPoll, oldFollow := daemon.ConfigPoll, followPoll
	daemon.ConfigPoll, followPoll = time.Millisecond, 5*time.Millisecond
	// Cleanup, not defer: registered before startTestPipeline's cleanup,
	// so the globals are restored only after the pipeline has stopped.
	t.Cleanup(func() { daemon.ConfigPoll, followPoll = oldPoll, oldFollow })

	dir := t.TempDir()
	strace := filepath.Join(dir, "seer.strace")
	cfgFile := filepath.Join(dir, "seerd.conf")
	const seeded = 12
	writeTrace(t, strace, seeded)

	rt := testRuntime(strace)
	rt.Daemon.Follow = true
	rt.Daemon.QueueCap = 64
	// A full queue blocks the tailer rather than shedding within any
	// plausible hammer stall, so a drop can only come from a resize.
	rt.Daemon.QueueBlockMS = 2000
	rt.Daemon.GatewayTimeoutMS = 5000
	p, _ := startTestPipeline(t, pipelineConfig{Options: daemon.Options{Runtime: rt, ConfigPath: cfgFile}}, nil)
	s0 := p.mgr.Shard(0)
	queueCap := func() int {
		_, c, _ := s0.QueueStats()
		return c
	}
	base := "http://" + p.Addr()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	// Prime the plan cache so stale fallbacks are 200s, then let the
	// tailer reach EOF before appending.
	if code, _, _ := httpGet(t, client, base+"/plan"); code != 200 {
		t.Fatalf("baseline /plan: %d", code)
	}
	time.Sleep(30 * time.Millisecond)

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Request hammer: /plan and /hoard concurrently. Every response must
	// be 200 (fresh or stale) or 429 (admission limit from a just-applied
	// config) — never a 5xx, never a torn config artifact.
	var hammered atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{"/plan", "/hoard"}
			for !stop.Load() {
				code, _, body := httpGet(t, client, base+paths[i%2])
				if code != 200 && code != 429 {
					t.Errorf("%s: code=%d body=%q", paths[i%2], code, body)
					return
				}
				hammered.Add(1)
			}
		}(i)
	}

	// Config verifier: the active config must always validate, and hot
	// values must always be one of the exact written states — a torn read
	// would surface as a mix.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			rt := p.Store.Get()
			if err := rt.Validate(); err != nil {
				t.Errorf("active config invalid: %v", err)
				return
			}
			if c := rt.Daemon.QueueCap; c != 64 && c != 256 {
				t.Errorf("torn queue cap %d", c)
				return
			}
			if k := rt.Params.KNear; k != 4 && k != 5 && k != 6 {
				t.Errorf("torn KNear %d", k)
				return
			}
			if c := queueCap(); c != 64 && c != 256 {
				t.Errorf("live queue cap %d not a written value", c)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Event producer: ingestion runs throughout, across queue resizes.
	const eventLines = 150
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < eventLines; i++ {
			appendLine(t, strace, chaosLine(i))
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Writer loop: valid / invalid / valid / structural, repeatedly.
	states := []string{
		"queue 256\nadmit-plan-inflight 32\nparam KNear 5\n",
		"garbage nonsense\n",
		"queue 64\nadmit-plan-inflight 16\nparam KNear 6\n",
		"queue 256\nlisten 127.0.0.1:9\n", // structural: must be rejected
	}
	for round := 0; round < 20; round++ {
		for _, s := range states {
			if err := os.WriteFile(cfgFile, []byte(s), 0o644); err != nil {
				t.Fatal(err)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}
	// Land on a final valid state and let it apply.
	final := "queue 256\nadmit-plan-inflight 32\nparam KNear 5\n"
	if err := os.WriteFile(cfgFile, []byte(final), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "final config applied", func() bool {
		rt := p.Store.Get()
		return rt.Daemon.QueueCap == 256 && rt.Params.KNear == 5 &&
			p.Store.LastReload().OK
	})

	stop.Store(true)
	wg.Wait()

	reloads := scrapeMetrics(t, client, base)
	if applied := reloads[`seer_config_reloads_total{result="applied"}`]; applied < 10 {
		t.Errorf("only %v reloads applied; the loop should apply dozens", applied)
	}
	if rejected := reloads[`seer_config_reloads_total{result="rejected"}`]; rejected < 10 {
		t.Errorf("only %v reloads rejected; the loop should reject dozens", rejected)
	}
	if hammered.Load() == 0 {
		t.Error("request hammer never completed a request")
	}

	// The live components converged on the final config, the slot's
	// correlator included: the file reload reached it through the
	// manager's Params push.
	if got := queueCap(); got != 256 {
		t.Errorf("queue cap = %d, want 256", got)
	}
	if got := s0.Params().KNear; got != 5 {
		t.Errorf("correlator KNear = %d after final reload, want 5", got)
	}

	// No dropped events: everything appended was fed (the seeded
	// bootstrap plus all appended lines), and the queue never shed.
	waitFor(t, "every event fed or shed", func() bool {
		_, _, drops := s0.QueueStats()
		return events(p)+drops >= seeded+eventLines
	})
	if _, _, drops := s0.QueueStats(); drops != 0 {
		t.Errorf("queue dropped %d events during resizes", drops)
	}
	if got := events(p); got != seeded+eventLines {
		t.Errorf("fed %d events, want %d", got, seeded+eventLines)
	}
	// Rejected reloads are handled data, not failures: nothing restarted.
	if got := p.Sup.Restarts() + s0.Restarts(); got != 0 {
		t.Errorf("stage restarts = %d, want 0", got)
	}
}
