package admit

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/supervise"
)

// get issues one GET through the handler and returns the recorder.
func get(h http.HandlerFunc) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h(w, httptest.NewRequest(http.MethodGet, "/x", nil))
	return w
}

func TestNoLimitsAdmitsEverything(t *testing.T) {
	l := New("plan", obs.NewRegistry(), nil)
	h := l.WrapFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	for i := 0; i < 50; i++ {
		if w := get(h); w.Code != http.StatusOK {
			t.Fatalf("request %d: code %d", i, w.Code)
		}
	}
	if l.Admitted() != 50 || l.Sheds() != 0 {
		t.Fatalf("admitted=%d sheds=%d", l.Admitted(), l.Sheds())
	}
}

func TestInFlightLimitSheds(t *testing.T) {
	reg := obs.NewRegistry()
	l := New("plan", reg, nil)
	l.SetLimits(Limits{MaxInFlight: 2, RetryAfter: 3 * time.Second})

	release := make(chan struct{})
	started := make(chan struct{}, 8)
	h := l.WrapFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = get(h).Code
		}(i)
	}
	<-started
	<-started // both slots occupied

	// Every further request is shed with 429 + Retry-After.
	for i := 2; i < 8; i++ {
		w := get(h)
		codes[i] = w.Code
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("request %d: code %d, want 429", i, w.Code)
		}
		if ra := w.Header().Get("Retry-After"); ra != "3" {
			t.Fatalf("Retry-After = %q, want 3", ra)
		}
	}
	if got := l.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d during saturation, want 2", got)
	}
	close(release)
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("admitted requests got %d,%d", codes[0], codes[1])
	}
	if l.Admitted() != 2 || l.Sheds() != 6 {
		t.Fatalf("admitted=%d sheds=%d", l.Admitted(), l.Sheds())
	}
	if l.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", l.InFlight())
	}

	// The metrics surface carries the per-endpoint series.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`seer_admit_admitted_total{endpoint="plan"} 2`,
		`seer_admit_shed_total{endpoint="plan"} 6`,
		`seer_admit_inflight{endpoint="plan"} 0`,
		`# TYPE seer_admit_inflight gauge`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestQueuePressureSheds(t *testing.T) {
	var pct atomic.Int64
	l := New("miss", obs.NewRegistry(), func() int { return int(pct.Load()) })
	l.SetLimits(Limits{MaxQueuePct: 95})
	h := l.WrapFunc(func(w http.ResponseWriter, r *http.Request) {})

	pct.Store(40)
	if w := get(h); w.Code != http.StatusOK {
		t.Fatalf("below threshold: code %d", w.Code)
	}
	pct.Store(95)
	if w := get(h); w.Code != http.StatusTooManyRequests {
		t.Fatalf("at threshold: code %d, want 429", w.Code)
	}
	pct.Store(120) // over-capacity after a queue shrink
	if w := get(h); w.Code != http.StatusTooManyRequests {
		t.Fatalf("over threshold: code %d, want 429", w.Code)
	}
	pct.Store(10)
	if w := get(h); w.Code != http.StatusOK {
		t.Fatalf("after recovery: code %d", w.Code)
	}
}

func TestLatencySignalSpairesLoneRequest(t *testing.T) {
	l := New("plan", obs.NewRegistry(), nil)
	l.SetLimits(Limits{MaxLatency: time.Millisecond})
	// Seed the EWMA with a slow request.
	slow := l.WrapFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
	})
	get(slow)
	if l.EWMALatency() < time.Millisecond {
		t.Fatalf("EWMA %v did not capture slow sample", l.EWMALatency())
	}

	// A lone request is still admitted (it refreshes the estimate)...
	fast := l.WrapFunc(func(w http.ResponseWriter, r *http.Request) {})
	if w := get(fast); w.Code != http.StatusOK {
		t.Fatalf("lone request shed: %d", w.Code)
	}

	// ...but concurrent ones beyond the first are shed while the EWMA is
	// above the limit.
	l.SetLimits(Limits{MaxLatency: time.Millisecond})
	get(slow) // push EWMA back up
	release := make(chan struct{})
	started := make(chan struct{})
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		h := l.WrapFunc(func(w http.ResponseWriter, r *http.Request) {
			close(started)
			<-release
		})
		get(h)
	}()
	<-started
	if w := get(fast); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second concurrent request under high EWMA: %d, want 429", w.Code)
	}
	close(release)
	<-bgDone // back to zero in flight before measuring recovery

	// Lone fast requests eventually pull the EWMA back under the limit.
	for i := 0; i < 50 && l.EWMALatency() > time.Millisecond; i++ {
		get(fast)
	}
	if l.EWMALatency() > time.Millisecond {
		t.Fatalf("EWMA stuck at %v", l.EWMALatency())
	}
}

func TestShedRecently(t *testing.T) {
	l := New("rumor", obs.NewRegistry(), nil)
	if l.ShedRecently(time.Hour) || l.Probe().State != supervise.Healthy {
		t.Fatal("fresh limiter reports shedding")
	}
	l.SetLimits(Limits{MaxQueuePct: 1})
	l.pressure = func() int { return 100 }
	get(l.WrapFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if !l.ShedRecently(time.Hour) {
		t.Fatal("shed not recorded")
	}
	if l.ShedRecently(time.Nanosecond) {
		t.Fatal("nanosecond window still matches")
	}
	if p := l.Probe(); p.State != supervise.Degraded || p.Detail != "shedding recently" {
		t.Fatalf("probe after a shed = %+v, want degraded", p)
	}
}

func TestHotLimitChangeTakesEffect(t *testing.T) {
	l := New("plan", obs.NewRegistry(), nil)
	l.SetLimits(Limits{MaxInFlight: 1})

	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		get(l.WrapFunc(func(w http.ResponseWriter, r *http.Request) {
			close(started)
			<-release
		}))
	}()
	<-started
	fast := l.WrapFunc(func(w http.ResponseWriter, r *http.Request) {})
	if w := get(fast); w.Code != http.StatusTooManyRequests {
		t.Fatalf("over limit 1: code %d", w.Code)
	}
	// Raising the limit live admits the next request with no restart.
	l.SetLimits(Limits{MaxInFlight: 8})
	if w := get(fast); w.Code != http.StatusOK {
		t.Fatalf("after raise: code %d", w.Code)
	}
	close(release)
}

func TestConcurrentHammerRespectsBound(t *testing.T) {
	const limit = 4
	l := New("plan", obs.NewRegistry(), nil)
	l.SetLimits(Limits{MaxInFlight: limit})

	var inHandler, maxSeen atomic.Int64
	h := l.WrapFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inHandler.Add(1)
		for {
			m := maxSeen.Load()
			if n <= m || maxSeen.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inHandler.Add(-1)
	})

	var wg sync.WaitGroup
	var ok2, shed atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				switch c := get(h).Code; c {
				case http.StatusOK:
					ok2.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					panic(fmt.Sprintf("unexpected code %d", c))
				}
			}
		}()
	}
	wg.Wait()
	if maxSeen.Load() > limit {
		t.Fatalf("handler concurrency reached %d, limit %d", maxSeen.Load(), limit)
	}
	if ok2.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("ok=%d shed=%d — hammer did not exercise both paths", ok2.Load(), shed.Load())
	}
	if got := ok2.Load() + shed.Load(); got != 64*20 {
		t.Fatalf("accounted %d of %d requests", got, 64*20)
	}
	if l.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", l.InFlight())
	}
}
