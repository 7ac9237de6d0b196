package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/stats"
)

// contentText is the Content-Type of every text endpoint.
const contentText = "text/plain; charset=utf-8"

// StaleHeader marks a response served from a shard's last published
// body because no fresh one was available in time.
const StaleHeader = "X-Seer-Stale"

// maxIngestBody bounds one POST /events body: big enough for a day of
// strace, small enough that a hostile client cannot balloon the heap.
const maxIngestBody = 32 << 20

// Policy is the gateway's hot-reloadable request discipline.
type Policy struct {
	// MaxAttempts bounds tries per request across re-routes (minimum 1).
	MaxAttempts int
	// BaseDelay/MaxDelay/Jitter shape the retry backoff.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	Jitter    float64
	// Timeout bounds one whole request including retries.
	Timeout time.Duration
	// DrainTimeout bounds a POST /shards/drain migration.
	DrainTimeout time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Timeout <= 0 {
		p.Timeout = 30 * time.Second
	}
	if p.DrainTimeout <= 0 {
		p.DrainTimeout = 60 * time.Second
	}
	return p
}

// PolicyFromRuntime maps the hot gateway knobs onto a Policy.
func PolicyFromRuntime(rt config.Runtime) Policy {
	return Policy{
		MaxAttempts:  rt.Daemon.GatewayRetries,
		BaseDelay:    time.Duration(rt.Daemon.GatewayRetryBaseMS) * time.Millisecond,
		Timeout:      time.Duration(rt.Daemon.GatewayTimeoutMS) * time.Millisecond,
		DrainTimeout: time.Duration(rt.Daemon.DrainTimeoutMS) * time.Millisecond,
	}
}

// Gateway fronts a Manager with user→shard routing plus the failure
// discipline the bulkheads need to pay off: per-request timeouts,
// bounded retry with backoff+jitter on transient shard states (via
// hoard.RetryPolicy — the same backoff core the replication paths use),
// 429/Retry-After propagation from per-shard admission, and
// health-aware routing that never hangs a caller on a draining or
// replaced shard.
type Gateway struct {
	mgr    *Manager
	pol    atomic.Pointer[Policy]
	rand   *stats.Rand
	log    *obs.Logger
	tracer *obs.Tracer

	mRetries   *obs.CounterVec   // seer_gateway_retries_total{endpoint}
	mRouteErrs *obs.CounterVec   // seer_gateway_route_errors_total{endpoint}
	mLatency   *obs.HistogramVec // seer_gateway_request_seconds{endpoint}

	// sleep is the backoff delay hook (tests replace it).
	sleep func(context.Context, time.Duration)
}

// gatewayEndpoints are the routed endpoints, the closed label set of
// the per-endpoint instruments.
var gatewayEndpoints = []string{"plan", "hoard", "clusters", "stats", "miss", "events"}

// NewGateway wires a gateway over mgr. pol zero-values get defaults.
func NewGateway(mgr *Manager, pol Policy) *Gateway {
	g := &Gateway{
		mgr: mgr,
		// Locked: one gateway rand feeds backoff jitter for every
		// concurrent request goroutine.
		rand:   stats.NewLockedRand(mgr.cfg.Seed ^ 0x6761746577617973), // "gateways"
		log:    mgr.cfg.Logger.With("component", "gateway"),
		tracer: mgr.cfg.Tracer,
		mRetries: mgr.cfg.Metrics.CounterVec("seer_gateway_retries_total",
			"Gateway retries of transient shard errors.", "endpoint"),
		mRouteErrs: mgr.cfg.Metrics.CounterVec("seer_gateway_route_errors_total",
			"Gateway requests that exhausted retries or found no usable shard.", "endpoint"),
		mLatency: mgr.cfg.Metrics.HistogramVec("seer_gateway_request_seconds",
			"Successful gateway request latency (includes retries and backoff).",
			nil, "endpoint"),
		sleep: sleepCtx,
	}
	// Exemplar-referenced traces stay pinned in the span ring, so
	// following a p99 exemplar to /debug/traces never comes back empty.
	for _, ep := range gatewayEndpoints {
		g.mLatency.With(ep).RetainExemplars(g.tracer)
	}
	g.SetPolicy(pol)
	return g
}

// RequestHist returns the latency histogram for one endpoint (the SLO
// monitors sample it).
func (g *Gateway) RequestHist(endpoint string) *obs.Histogram {
	return g.mLatency.With(endpoint)
}

// RouteErrors returns the cumulative route-error count for one
// endpoint (requests that exhausted retries or timed out — the SLO
// monitors' bad-event feed).
func (g *Gateway) RouteErrors(endpoint string) uint64 {
	return g.mRouteErrs.With(endpoint).Value()
}

// SetPolicy hot-swaps the request discipline (config reload hook).
func (g *Gateway) SetPolicy(pol Policy) {
	p := pol.withDefaults()
	g.pol.Store(&p)
}

// Policy returns the current discipline.
func (g *Gateway) Policy() Policy { return *g.pol.Load() }

// Manager returns the routed manager.
func (g *Gateway) Manager() *Manager { return g.mgr }

// sleepCtx waits d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Handler returns the gateway mux: the decision and ingest endpoints,
// each taking ?user= for routing, plus the /shards operations surface.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/plan", g.handlePlan)
	mux.HandleFunc("/hoard", g.handleHoard)
	mux.HandleFunc("/clusters", g.handleClusters)
	mux.HandleFunc("/miss", g.handleMiss)
	mux.HandleFunc("/stats", g.handleStats)
	mux.HandleFunc("/events", g.handleEvents)
	mux.HandleFunc("/shards", g.HandleShards)
	mux.HandleFunc("/shards/drain", g.handleDrain)
	return mux
}

// outcome is one routed request's terminal result.
type outcome struct {
	status     int
	body       []byte
	stale      bool
	retryAfter string
	err        string
	trace      obs.TraceID // request trace, echoed as TraceHeader
}

// shardOp runs one attempt against the routed shard. A transient
// error return means "retry through the gateway's backoff"; anything
// else must be folded into the outcome and returned nil.
type shardOp func(ctx context.Context, s *Shard) (body []byte, stale bool, err error)

// boundCtx derives the request context bounded by the policy timeout
// (or a shorter client ?timeout_ms).
func (g *Gateway) boundCtx(req *http.Request) (context.Context, context.CancelFunc) {
	d := g.Policy().Timeout
	if ms := req.URL.Query().Get("timeout_ms"); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 &&
			time.Duration(v)*time.Millisecond < d {
			d = time.Duration(v) * time.Millisecond
		}
	}
	return context.WithTimeout(req.Context(), d)
}

// route runs op against user's shard with the full discipline: timeout,
// bounded backoff+jitter retry on transient states (re-routing each
// attempt, so a replaced shard is picked up mid-request), admission
// shed → terminal 429 with the shard's Retry-After, terminal errors
// classified to status codes. Never hangs: every path is ctx-bounded.
func (g *Gateway) route(ctx context.Context, endpoint, user string, op shardOp) outcome {
	pol := g.Policy()
	var out outcome
	rp := hoard.RetryPolicy{
		MaxAttempts: pol.MaxAttempts,
		BaseDelay:   pol.BaseDelay,
		MaxDelay:    pol.MaxDelay,
		Jitter:      pol.Jitter,
		Rand:        g.rand,
		Sleep:       func(d time.Duration) { g.sleep(ctx, d) },
		OnRetry: func(int, error) {
			g.mRetries.With(endpoint).Inc()
		},
	}
	// Every attempt becomes a child of the request's root span, so
	// retries show up as sibling spans under one parent in the stitched
	// trace tree.
	parent, _ := obs.SpanFromContext(ctx)
	attempt := 0
	// DoCtx, not Do: when the client disconnects or the request deadline
	// expires mid-backoff, the retry loop must stop right there — not
	// sleep through the rest of its schedule and burn another attempt on
	// a dead request.
	err := rp.DoCtx(ctx, func() error {
		attempt++
		sp := g.tracer.StartChild(parent, "attempt").AttrInt("attempt", int64(attempt))
		defer sp.End()
		if cerr := ctx.Err(); cerr != nil {
			sp.Attr("outcome", "timeout")
			out = outcome{status: http.StatusGatewayTimeout, err: "request timed out"}
			return nil
		}
		s := g.mgr.Route(user)
		if s == nil {
			sp.Attr("outcome", "no_shard")
			out = outcome{status: http.StatusServiceUnavailable, err: "no shard for user"}
			return nil
		}
		sp.Attr("shard", s.name)
		lim := s.Limiter()
		if !lim.TryAcquire() {
			// Honor per-shard admission: the shard is overloaded, not
			// broken — propagate the shed verbatim, don't hammer it
			// with retries.
			sp.Attr("outcome", "shed")
			out = outcome{
				status:     http.StatusTooManyRequests,
				retryAfter: lim.RetryAfterSeconds(),
				err:        "overloaded: request shed by shard admission control",
			}
			return nil
		}
		start := time.Now()
		body, stale, oerr := op(obs.ContextWithSpan(ctx, sp.Context()), s)
		lim.Release(time.Since(start))
		if oerr == nil {
			if stale {
				sp.Attr("outcome", "stale")
			} else {
				sp.Attr("outcome", "ok")
			}
			out = outcome{status: http.StatusOK, body: body, stale: stale}
			return nil
		}
		if IsTransient(oerr) && ctx.Err() == nil {
			sp.Attr("outcome", "retry")
			return oerr // back off, re-route, retry
		}
		sp.Attr("outcome", "error")
		out = outcome{status: http.StatusServiceUnavailable, err: oerr.Error()}
		if ctx.Err() != nil {
			out.status = http.StatusGatewayTimeout
		}
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			// The request died mid-backoff; DoCtx aborted the sleep.
			out = outcome{status: http.StatusGatewayTimeout,
				err: fmt.Sprintf("request timed out retrying transient shard state: %v", err)}
		} else {
			// Retries exhausted while the slot was still in transition.
			out = outcome{status: http.StatusServiceUnavailable,
				err: fmt.Sprintf("shard unavailable after %d attempts: %v", pol.MaxAttempts, err)}
		}
	}
	if out.status == http.StatusServiceUnavailable || out.status == http.StatusGatewayTimeout {
		g.mRouteErrs.With(endpoint).Inc()
	}
	return out
}

// write renders an outcome.
func (g *Gateway) write(w http.ResponseWriter, out outcome) {
	if out.retryAfter != "" {
		w.Header().Set("Retry-After", out.retryAfter)
	}
	if out.trace != 0 {
		w.Header().Set(TraceHeader, out.trace.String())
	}
	if out.status != http.StatusOK {
		http.Error(w, out.err, out.status)
		return
	}
	if out.stale {
		w.Header().Set(StaleHeader, "true")
	}
	w.Write(out.body)
}

// user extracts the routing key. A missing key is refused only when
// there is a choice of slot: with one slot every user routes to it, so
// clients that never send ?user= keep working.
func (g *Gateway) user(w http.ResponseWriter, req *http.Request) (string, bool) {
	u := req.URL.Query().Get("user")
	if u == "" && g.mgr.Len() > 1 {
		http.Error(w, "missing user parameter", http.StatusBadRequest)
		return "", false
	}
	return u, true
}

// TraceHeader echoes the request's trace id back to the client, so
// `curl -i` hands the operator the id to feed `seerctl trace`.
const TraceHeader = "X-Seer-Trace"

// rootSpan opens the request's root span at the gateway edge, adopting
// an inbound traceparent when an upstream already began the trace and
// minting a fresh trace otherwise.
func (g *Gateway) rootSpan(req *http.Request, endpoint string) *obs.ActiveSpan {
	if sc, ok := obs.Extract(req.Header); ok {
		return g.tracer.StartChild(sc, "gateway:"+endpoint)
	}
	return g.tracer.StartRoot("gateway:" + endpoint)
}

// traced runs the routed request under its root span and records the
// per-endpoint latency (successes only — errors feed the route-error
// counter instead) with the trace id as the bucket exemplar.
func (g *Gateway) traced(ctx context.Context, req *http.Request, endpoint, user string, op shardOp) outcome {
	root := g.rootSpan(req, endpoint)
	start := time.Now()
	out := g.route(obs.ContextWithSpan(ctx, root.Context()), endpoint, user, op)
	if out.status == http.StatusOK {
		g.mLatency.With(endpoint).ObserveTrace(time.Since(start).Seconds(), root.Context().Trace)
	}
	root.AttrInt("status", int64(out.status)).End()
	if sc := root.Context(); sc.Valid() {
		out.trace = sc.Trace
	}
	return out
}

// serve is the common GET wrapper: extract user, bound the context,
// route under the root span, render.
func (g *Gateway) serve(w http.ResponseWriter, req *http.Request, endpoint string, op shardOp) {
	w.Header().Set("Content-Type", contentText)
	u, ok := g.user(w, req)
	if !ok {
		return
	}
	ctx, cancel := g.boundCtx(req)
	defer cancel()
	g.write(w, g.traced(ctx, req, endpoint, u, op))
}

func (g *Gateway) handlePlan(w http.ResponseWriter, req *http.Request) {
	g.serve(w, req, "plan", func(ctx context.Context, s *Shard) ([]byte, bool, error) {
		return s.Plan(ctx)
	})
}

func (g *Gateway) handleHoard(w http.ResponseWriter, req *http.Request) {
	g.serve(w, req, "hoard", func(ctx context.Context, s *Shard) ([]byte, bool, error) {
		return s.Hoard(ctx)
	})
}

func (g *Gateway) handleClusters(w http.ResponseWriter, req *http.Request) {
	g.serve(w, req, "clusters", func(ctx context.Context, s *Shard) ([]byte, bool, error) {
		b, err := s.Clusters(ctx)
		return b, false, err
	})
}

func (g *Gateway) handleStats(w http.ResponseWriter, req *http.Request) {
	g.serve(w, req, "stats", func(ctx context.Context, s *Shard) ([]byte, bool, error) {
		b, err := s.Stats(ctx)
		return b, false, err
	})
}

// handleMiss records a hoard miss on the user's shard: POST
// /miss?user=alice&path=/home/alice/file.c; other methods get 405 with
// Allow.
func (g *Gateway) handleMiss(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", contentText)
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed; use POST", http.StatusMethodNotAllowed)
		return
	}
	path := req.URL.Query().Get("path")
	if path == "" {
		http.Error(w, "missing path parameter", http.StatusBadRequest)
		return
	}
	g.serve(w, req, "miss", func(ctx context.Context, s *Shard) ([]byte, bool, error) {
		mates, err := s.Miss(ctx, path)
		if err != nil {
			return nil, false, err
		}
		var buf []byte
		buf = fmt.Appendf(buf, "recorded miss of %s; forced %d project mates:\n", path, len(mates))
		for _, m := range mates {
			buf = fmt.Appendf(buf, "  %s\n", m)
		}
		return buf, false, nil
	})
}

// handleEvents ingests strace lines for one user: POST
// /events?user=alice with the raw lines as the body. The write is
// routed with the full retry discipline, so a drain in progress on the
// user's slot delays the ingest by a backoff instead of losing it.
func (g *Gateway) handleEvents(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", contentText)
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed; use POST", http.StatusMethodNotAllowed)
		return
	}
	u, ok := g.user(w, req)
	if !ok {
		return
	}
	var lines []string
	sc := bufio.NewScanner(io.LimitReader(req.Body, maxIngestBody))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := g.boundCtx(req)
	defer cancel()
	out := g.traced(ctx, req, "events", u, func(ctx context.Context, s *Shard) ([]byte, bool, error) {
		n, err := s.IngestLines(ctx, lines)
		if err != nil {
			return nil, false, err
		}
		return fmt.Appendf(nil, "ingested %d events\n", n), false, nil
	})
	g.write(w, out)
}

// HandleShards renders the manager report as JSON (served on both the
// gateway and seerd's debug listener).
func (g *Gateway) HandleShards(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Shards []Info `json:"shards"`
		Health string `json:"health"`
	}{g.mgr.Report(), g.mgr.Health().String()})
}

// handleDrain executes a drain/migrate: POST /shards/drain?shard=N.
// The drain runs on a background context bounded by the policy's
// DrainTimeout — once started it must finish (or fail) even if the
// requesting client gives up, or the slot would wedge half-drained.
func (g *Gateway) handleDrain(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", contentText)
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed; use POST", http.StatusMethodNotAllowed)
		return
	}
	idx, err := strconv.Atoi(req.URL.Query().Get("shard"))
	if err != nil {
		http.Error(w, "missing or bad shard parameter", http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.Policy().DrainTimeout)
	defer cancel()
	if derr := g.mgr.Drain(ctx, idx); derr != nil {
		http.Error(w, derr.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "shard %d drained and replaced; replacement replayed %d events\n",
		idx, g.mgr.Shard(idx).Events())
}
