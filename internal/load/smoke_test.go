package load

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/fmg/seer/internal/benchcmp"
	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/supervise"

	"net/http/httptest"
)

// TestLoadSmoke is the in-process end-to-end: a real 4-shard Manager
// behind a real Gateway takes a short closed-loop ramp of mixed
// /plan + /hoard + /miss traffic (with event seeding through /events),
// and the run flows all the way into benchcmp entries the way `make
// load-smoke` does against a live daemon.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	rt := config.DefaultRuntime()
	rt.Daemon.QueueCap = 512
	rt.Daemon.QueueBlockMS = 10
	rt.Admit.PlanMaxInFlight = 64
	mgr := shard.NewManager(ctx, shard.ManagerConfig{
		Shards:  4,
		Dir:     t.TempDir(),
		Runtime: rt,
		Seed:    1,
		Supervisor: supervise.Config{
			Backoff:    supervise.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.1},
			BreakAfter: 50,
			Window:     time.Minute,
		},
		CheckpointEvery: time.Hour,
	})
	defer mgr.Close()
	gw := shard.NewGateway(mgr, shard.Policy{
		MaxAttempts: 20,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Timeout:     10 * time.Second,
	})
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	res, err := Run(ctx, Options{
		Target:     srv.URL,
		Clients:    16,
		Users:      8,
		Seed:       7,
		StartRPS:   50,
		StepRPS:    50,
		MaxSteps:   3,
		StepDur:    400 * time.Millisecond,
		Timeout:    8 * time.Second,
		SeedEvents: 50,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps measured")
	}
	var ok int64
	for _, s := range res.Steps {
		ok += s.OK
	}
	if ok == 0 {
		t.Fatalf("no successful requests against a healthy gateway: %+v", res.Steps)
	}
	if res.PeakRPS <= 0 {
		t.Fatalf("no peak throughput: %+v", res)
	}

	// The benchcmp flow: emit, round-trip through JSON, diff against a
	// baseline that predates the entries — additions, not failures.
	rep := &benchcmp.Report{}
	res.MergeInto(rep, "LoadSmoke")
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := benchcmp.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Find("LoadSmoke/peak_rps"); got == nil || got.RPS != res.PeakRPS {
		t.Fatalf("peak entry lost in round trip: %+v", got)
	}
	regs, adds := benchcmp.Diff(&benchcmp.Report{}, back, benchcmp.Tolerances{})
	if len(regs) != 0 {
		t.Fatalf("empty baseline produced regressions: %v", regs)
	}
	if len(adds) != len(back.Benchmarks) {
		t.Fatalf("additions = %d, want all %d entries", len(adds), len(back.Benchmarks))
	}
}
