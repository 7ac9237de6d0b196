package supervise

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastCfg is a backoff policy tight enough for tests.
func fastCfg() Config {
	return Config{
		Backoff:    Backoff{Initial: time.Millisecond, Max: 5 * time.Millisecond, Jitter: 0.1},
		BreakAfter: 4,
		Window:     time.Minute,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestStageRecoversFromPanics(t *testing.T) {
	sup := New(fastCfg())
	var runs atomic.Int64
	sup.Add("flappy", func(ctx context.Context) error {
		n := runs.Add(1)
		if n <= 2 {
			panic("injected")
		}
		<-ctx.Done()
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup.Start(ctx)

	waitFor(t, "stage to settle after two panics", func() bool {
		return runs.Load() >= 3 && sup.Health() == Healthy
	})
	if got := sup.Restarts(); got < 2 {
		t.Errorf("Restarts() = %d, want >= 2", got)
	}
	rep := sup.Report()
	if rep.Stages[0].State != "running" {
		t.Errorf("stage state = %s, want running", rep.Stages[0].State)
	}
	if !strings.HasPrefix(rep.Stages[0].LastErr, "panic: injected") {
		t.Errorf("last_error = %q, want panic: injected prefix", rep.Stages[0].LastErr)
	}
	if strings.Contains(rep.Stages[0].LastErr, "\n") {
		t.Errorf("last_error contains a stack trace; want one line")
	}
	cancel()
	sup.Wait()
	if st := sup.Report().Stages[0].State; st != "stopped" {
		t.Errorf("state after Wait = %s, want stopped", st)
	}
}

func TestCircuitBreakerStopsRestarting(t *testing.T) {
	sup := New(fastCfg())
	var runs atomic.Int64
	sup.Add("doomed", func(ctx context.Context) error {
		runs.Add(1)
		return errors.New("always fails")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup.Start(ctx)

	waitFor(t, "breaker to trip", func() bool {
		return sup.Report().Stages[0].State == "broken"
	})
	if h := sup.Health(); h != Degraded {
		t.Fatalf("health with broken non-critical stage = %v, want degraded", h)
	}
	at := runs.Load()
	if at != 4 {
		t.Errorf("breaker tripped after %d runs, want 4", at)
	}
	time.Sleep(30 * time.Millisecond)
	if got := runs.Load(); got != at {
		t.Errorf("broken stage kept running: %d -> %d", at, got)
	}
}

func TestCriticalBrokenIsUnavailable(t *testing.T) {
	sup := New(fastCfg())
	sup.Add("listener", func(ctx context.Context) error {
		return errors.New("bind: address in use")
	}, Critical())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup.Start(ctx)
	waitFor(t, "unavailable", func() bool { return sup.Health() == Unavailable })
}

func TestBreakerResetGivesFreshRun(t *testing.T) {
	cfg := fastCfg()
	cfg.ResetAfter = 10 * time.Millisecond
	sup := New(cfg)
	var runs atomic.Int64
	sup.Add("healing", func(ctx context.Context) error {
		if runs.Add(1) <= 4 {
			return errors.New("still sick")
		}
		<-ctx.Done()
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup.Start(ctx)
	// Trips at 4 failures, resets after 10ms, then the 5th run succeeds.
	waitFor(t, "recovery after breaker reset", func() bool {
		return sup.Health() == Healthy && runs.Load() >= 5
	})
}

func TestNoRestartStageStopsCleanly(t *testing.T) {
	sup := New(fastCfg())
	sup.Add("bootstrap", func(ctx context.Context) error { return nil }, NoRestart())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup.Start(ctx)
	waitFor(t, "clean stop", func() bool {
		return sup.Report().Stages[0].State == "stopped"
	})
	if h := sup.Health(); h != Healthy {
		t.Errorf("health = %v, want healthy", h)
	}
}

func TestProbesFeedHealth(t *testing.T) {
	sup := New(fastCfg())
	var state atomic.Int64
	sup.AddProbe("queue", func() Probe {
		return Probe{State: HealthState(state.Load()), Detail: "depth=9/10"}
	})
	if sup.Health() != Healthy {
		t.Fatal("expected healthy with no stages and a healthy probe")
	}
	state.Store(int64(Degraded))
	if sup.Health() != Degraded {
		t.Fatal("degraded probe did not degrade health")
	}
	rep := sup.Report()
	if len(rep.Probes) != 1 || rep.Probes[0].Detail != "depth=9/10" {
		t.Fatalf("probe report = %+v", rep.Probes)
	}
}

func TestHealthHandlerCodes(t *testing.T) {
	sup := New(fastCfg())
	var state atomic.Int64
	sup.AddProbe("p", func() Probe { return Probe{State: HealthState(state.Load())} })

	get := func(ready bool) (int, Report) {
		rr := httptest.NewRecorder()
		sup.HealthHandler(ready)(rr, httptest.NewRequest("GET", "/healthz", nil))
		var rep Report
		if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
			t.Fatalf("bad health JSON: %v", err)
		}
		return rr.Code, rep
	}

	if code, rep := get(false); code != 200 || rep.State != "healthy" {
		t.Errorf("healthy: code=%d state=%s", code, rep.State)
	}
	state.Store(int64(Degraded))
	if code, _ := get(false); code != 200 {
		t.Errorf("degraded /healthz code = %d, want 200", code)
	}
	if code, _ := get(true); code != 503 {
		t.Errorf("degraded /readyz code = %d, want 503", code)
	}
	state.Store(int64(Unavailable))
	if code, rep := get(false); code != 503 || rep.State != "unavailable" {
		t.Errorf("unavailable: code=%d state=%s", code, rep.State)
	}
}

func TestQueueFIFOAndDepth(t *testing.T) {
	q := NewQueue[int](4, 0)
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		q.Put(ctx, i)
	}
	if q.Len() != 3 || q.Cap() != 4 {
		t.Fatalf("Len=%d Cap=%d", q.Len(), q.Cap())
	}
	for i := 1; i <= 3; i++ {
		v, ok := q.Get(ctx)
		if !ok || v != i {
			t.Fatalf("Get = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
}

func TestQueueShedsOldestWhenFull(t *testing.T) {
	q := NewQueue[int](2, 0)
	ctx := context.Background()
	q.Put(ctx, 1)
	q.Put(ctx, 2)
	q.Put(ctx, 3) // full: sheds 1, keeps 3
	if q.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", q.Drops())
	}
	v1, _ := q.Get(ctx)
	v2, _ := q.Get(ctx)
	if v1 != 2 || v2 != 3 {
		t.Fatalf("got %d,%d want 2,3", v1, v2)
	}
}

func TestQueuePutBlocksUntilConsumerFrees(t *testing.T) {
	q := NewQueue[int](1, time.Second)
	ctx := context.Background()
	q.Put(ctx, 1)
	done := make(chan bool)
	go func() {
		done <- q.Put(ctx, 2)
	}()
	time.Sleep(10 * time.Millisecond)
	if v, _ := q.Get(ctx); v != 1 {
		t.Fatalf("got %d, want 1", v)
	}
	if ok := <-done; !ok {
		t.Fatal("blocked Put failed")
	}
	if q.Drops() != 0 {
		t.Fatalf("Drops = %d, want 0 (consumer freed a slot in time)", q.Drops())
	}
}

func TestQueueGetHonorsContext(t *testing.T) {
	q := NewQueue[int](1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := q.Get(ctx); ok {
		t.Fatal("Get on empty queue with dead context succeeded")
	}
	// A dead context still drains pending items (shutdown flush).
	q.Put(context.Background(), 7)
	if v, ok := q.Get(ctx); !ok || v != 7 {
		t.Fatalf("drain with dead context = %d,%v want 7,true", v, ok)
	}
}

// SetCap racing concurrent shed-oldest overflow (run under -race): a
// reload flapping the capacity while producers overflow and a consumer
// drains must never lose an accepted item without counting it as a
// shed. The conservation law pinned here: every Put that returned true
// is either consumed or in Drops — resizes cannot silently discard.
func TestQueueResizeRacesShedOldest(t *testing.T) {
	const (
		producers   = 4
		perProducer = 2000
	)
	q := NewQueue[int](4, 0) // tiny cap + no blocking: constant shedding
	ctx := context.Background()

	var accepted, consumed atomic.Int64
	var wg sync.WaitGroup
	stopResize := make(chan struct{})
	resizerDone := make(chan struct{})

	// The resizer: flap the capacity through the shrink-below-depth and
	// grow-wakes-producers paths as fast as possible.
	go func() {
		defer close(resizerDone)
		caps := []int{1, 64, 2, 512, 8}
		for i := 0; ; i++ {
			select {
			case <-stopResize:
				return
			default:
			}
			q.SetCap(caps[i%len(caps)])
			q.SetBlock(time.Duration(i%2) * time.Millisecond)
		}
	}()

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if q.Put(ctx, p*perProducer+i) {
					accepted.Add(1)
				}
			}
		}(p)
	}

	// The consumer drains until every producer is done and the queue is
	// empty.
	prodDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(prodDone)
	}()
	defer func() {
		close(stopResize)
		<-resizerDone
	}()
	for {
		if v, ok := q.TryGet(); ok {
			_ = v
			consumed.Add(1)
			continue
		}
		select {
		case <-prodDone:
			// Producers finished; one final drain pass below.
		default:
			continue
		}
		if _, ok := q.TryGet(); ok {
			consumed.Add(1)
			continue
		}
		break
	}

	if got := accepted.Load(); got != producers*perProducer {
		// Background-context Puts can only return false on ctx end.
		t.Fatalf("accepted %d of %d Puts", got, producers*perProducer)
	}
	total := consumed.Load() + int64(q.Drops())
	if total != accepted.Load() {
		t.Fatalf("lost events without a shed: accepted %d, consumed %d + drops %d = %d",
			accepted.Load(), consumed.Load(), q.Drops(), total)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}
