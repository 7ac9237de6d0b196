// Package admit implements per-endpoint admission control for SEER's
// daemons: concurrency-limit middleware that sheds excess requests with
// 429 + Retry-After instead of queueing them.
//
// The design follows the overload lesson from the request-cloning
// queueing literature (PAPERS.md): once a server saturates, admitting
// less beats buffering more — every queued request adds latency for all
// of them and holds memory hostage. A Limiter therefore refuses early
// on three signals, each individually optional:
//
//   - in-flight count: more than MaxInFlight concurrent requests;
//   - external queue pressure: the daemon's ingestion queue is fuller
//     than MaxQueuePct (wired from supervise.Queue.FillPct);
//   - recent latency: the endpoint's EWMA service time exceeds
//     MaxLatency (always letting one request through so the estimate
//     keeps refreshing as the backend recovers).
//
// Every decision is counted on the shared obs registry
// (seer_admit_admitted_total / seer_admit_shed_total per endpoint), and
// Probe is the health probe every limiter registers, so sustained
// shedding surfaces as "degraded" without any extra bookkeeping in the
// daemons.
// Limits are atomically settable, so a hot config reload retunes a live
// limiter between two requests.
package admit

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/supervise"
)

// Limits configures one Limiter. Zero values disable the corresponding
// signal.
type Limits struct {
	// MaxInFlight bounds concurrently admitted requests (0 = unlimited).
	MaxInFlight int
	// MaxQueuePct sheds while the external queue-pressure signal is at
	// least this percent (0 = disabled; needs a pressure func).
	MaxQueuePct int
	// MaxLatency sheds requests beyond the first in-flight one while
	// the EWMA service time exceeds it (0 = disabled).
	MaxLatency time.Duration
	// RetryAfter is advertised on 429 responses (0 = 1s).
	RetryAfter time.Duration
}

// ewmaAlpha weights the most recent latency sample: high enough to
// track a recovering backend within a few requests, low enough that one
// outlier does not trip the latency signal.
const ewmaAlpha = 0.3

// Limiter admission-controls one endpoint group. All methods are safe
// for concurrent use; the zero value is not useful — construct with
// New.
type Limiter struct {
	name     string
	pressure func() int // external queue fill percent; nil = no signal

	maxInFlight  atomic.Int64
	maxQueuePct  atomic.Int64
	maxLatencyUS atomic.Int64
	retryAfter   atomic.Int64 // nanoseconds

	inflight atomic.Int64
	ewmaUS   atomic.Int64
	lastShed atomic.Int64 // unix nanos of the most recent shed (0 = never)

	admitted *obs.Counter
	shed     *obs.Counter
}

// New returns a Limiter named name (the endpoint label on its metrics),
// registering its instruments on reg. pressure, when non-nil, reports
// external queue fill in percent (supervise.Queue.FillPct) for the
// MaxQueuePct signal. Apply limits with SetLimits; until then nothing
// is shed.
func New(name string, reg *obs.Registry, pressure func() int) *Limiter {
	l := &Limiter{name: name, pressure: pressure}
	if reg != nil {
		l.admitted = reg.CounterVec("seer_admit_admitted_total",
			"Requests admitted by admission control.", "endpoint").With(name)
		l.shed = reg.CounterVec("seer_admit_shed_total",
			"Requests shed (429) by admission control.", "endpoint").With(name)
		reg.GaugeFuncVec("seer_admit_inflight",
			"Requests currently in flight (sampled at scrape time).", "endpoint").
			Register(func() float64 { return float64(l.InFlight()) }, name)
	}
	l.SetLimits(Limits{})
	return l
}

// Name returns the endpoint label.
func (l *Limiter) Name() string { return l.name }

// SetLimits atomically replaces the limits; in-flight requests are
// unaffected.
func (l *Limiter) SetLimits(lim Limits) {
	l.maxInFlight.Store(int64(lim.MaxInFlight))
	l.maxQueuePct.Store(int64(lim.MaxQueuePct))
	l.maxLatencyUS.Store(lim.MaxLatency.Microseconds())
	ra := lim.RetryAfter
	if ra <= 0 {
		ra = time.Second
	}
	l.retryAfter.Store(int64(ra))
}

// InFlight returns the number of currently admitted requests.
func (l *Limiter) InFlight() int64 { return l.inflight.Load() }

// Sheds returns the total number of shed requests.
func (l *Limiter) Sheds() uint64 { return l.shed.Value() }

// Admitted returns the total number of admitted requests.
func (l *Limiter) Admitted() uint64 { return l.admitted.Value() }

// EWMALatency returns the current latency estimate.
func (l *Limiter) EWMALatency() time.Duration {
	return time.Duration(l.ewmaUS.Load()) * time.Microsecond
}

// ShedRecently reports whether any request was shed within the last
// window — the "sustained shedding" signal behind the daemon health
// probe: while true the daemon should report degraded, and it heals
// itself one window after the last shed.
func (l *Limiter) ShedRecently(window time.Duration) bool {
	at := l.lastShed.Load()
	return at != 0 && time.Since(time.Unix(0, at)) < window
}

// ShedWindow is how long after its last shed a limiter's health probe
// stays degraded.
const ShedWindow = 15 * time.Second

// Probe is the limiter's health probe: degraded while a request was
// shed within ShedWindow, healthy one window after the last shed.
func (l *Limiter) Probe() supervise.Probe {
	if l.ShedRecently(ShedWindow) {
		return supervise.Probe{State: supervise.Degraded, Detail: "shedding recently"}
	}
	return supervise.Probe{State: supervise.Healthy, Detail: "no recent shedding"}
}

// acquire admits or sheds one request.
func (l *Limiter) acquire() bool {
	n := l.inflight.Add(1)
	if max := l.maxInFlight.Load(); max > 0 && n > max {
		l.refuse()
		return false
	}
	if pct := l.maxQueuePct.Load(); pct > 0 && l.pressure != nil && int64(l.pressure()) >= pct {
		l.refuse()
		return false
	}
	// The latency signal never sheds the only in-flight request: that
	// one refreshes the EWMA, so recovery is observable.
	if lat := l.maxLatencyUS.Load(); lat > 0 && n > 1 && l.ewmaUS.Load() > lat {
		l.refuse()
		return false
	}
	l.admitted.Inc()
	return true
}

// refuse counts a shed and undoes the in-flight reservation.
func (l *Limiter) refuse() {
	l.inflight.Add(-1)
	l.shed.Inc()
	l.lastShed.Store(time.Now().UnixNano())
}

// release finishes an admitted request, folding its service time into
// the EWMA.
func (l *Limiter) release(elapsed time.Duration) {
	l.inflight.Add(-1)
	sample := elapsed.Microseconds()
	for {
		old := l.ewmaUS.Load()
		next := old + int64(float64(sample-old)*ewmaAlpha)
		if old == 0 {
			next = sample
		}
		if l.ewmaUS.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds renders the Retry-After header value (whole
// seconds, minimum 1).
func (l *Limiter) retryAfterSeconds() string {
	s := int64(time.Duration(l.retryAfter.Load()).Round(time.Second) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// TryAcquire admits or sheds one request outside the HTTP middleware
// path — the hook a routing layer (the shard gateway) uses when the
// limiter guards a shard rather than an endpoint. On true the caller
// owns one in-flight slot and must call Release with the observed
// service time; on false the request was shed (counted, with the
// recent-shed clock touched) and RetryAfterSeconds advertises the
// backoff to propagate.
func (l *Limiter) TryAcquire() bool { return l.acquire() }

// Release finishes a TryAcquire'd request, folding its service time
// into the latency EWMA.
func (l *Limiter) Release(elapsed time.Duration) { l.release(elapsed) }

// RetryAfterSeconds renders the configured Retry-After value in whole
// seconds (minimum 1) for callers building their own 429 responses.
func (l *Limiter) RetryAfterSeconds() string { return l.retryAfterSeconds() }

// Wrap admission-controls next: shed requests get 429 with Retry-After
// and never reach it.
func (l *Limiter) Wrap(next http.Handler) http.Handler {
	return l.WrapFunc(next.ServeHTTP)
}

// WrapFunc is Wrap for handler functions.
func (l *Limiter) WrapFunc(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if !l.acquire() {
			w.Header().Set("Retry-After", l.retryAfterSeconds())
			http.Error(w, "overloaded: request shed by admission control",
				http.StatusTooManyRequests)
			return
		}
		start := time.Now()
		defer func() { l.release(time.Since(start)) }()
		next(w, req)
	}
}
