// Package shard is seerd's pipeline: N independent user shards live in
// one process (one by default — the paper's single-user daemon is the
// one-slot deployment), each one a bulkhead owning its own supervised
// pipeline — bounded ingestion queue, correlator with its warm cluster
// cache, admission limiter, health probes, and SEERDB checkpoint path —
// so a panic, wedged clustering, or corrupt database in one tenant's
// shard degrades only that tenant and never restarts or stalls its
// neighbors.
//
// The paper's predictive hoarding is inherently per-user (each mobile
// client has its own observed accesses, clusters, and hoard plan, §3
// and §5); a shard is the failure-containment unit wrapped around one
// partition of those users. Shards have an explicit lifecycle,
//
//	opening → serving → draining → closed,
//
// with graceful drain over the fsync'd snapshot ladder: stop the
// stages, fold everything still queued into the correlator, write a
// final checkpoint, and let a replacement shard replay it — zero event
// loss, byte-identical plans on the other side. A Manager hosts the
// shards behind a consistent-hash ring and a Gateway fronts them with
// per-request timeouts, bounded retry with backoff and jitter on
// transient shard states, and health-aware routing (draining shards
// serve their last published plan, flagged stale; closed slots are
// rerouted to the replacement).
//
// Between two mutations a shard's plan cannot change, so each endpoint
// publishes its rendered body once per generation: every lock
// acquisition that may mutate the correlator advances the generation,
// and a read at an unchanged generation returns the published bytes
// without the lock, the plan build or the render. The same store
// answers stale reads.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fmg/seer/internal/admit"
	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/strace"
	"github.com/fmg/seer/internal/supervise"
	"github.com/fmg/seer/internal/trace"
)

// State is a shard's lifecycle position. Transitions only move forward:
// opening → serving → draining → closed; a "restart" is a fresh Shard in
// the same slot, never a resurrected one.
type State int32

const (
	// Opening means the shard is restoring its snapshot and starting
	// stages; requests are refused as transient.
	Opening State = iota
	// Serving is the steady state: ingesting, planning, checkpointing.
	Serving
	// Draining means a drain is in progress: reads serve the last
	// published bodies flagged stale, writes are refused as transient
	// (the gateway retries them against the replacement).
	Draining
	// Closed means the final checkpoint is on disk and the shard will
	// never serve again; the manager routes its slot to a replacement.
	Closed
)

// String returns the lowercase wire name used in /shards JSON.
func (s State) String() string {
	switch s {
	case Opening:
		return "opening"
	case Serving:
		return "serving"
	case Draining:
		return "draining"
	case Closed:
		return "closed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Transient shard errors: the gateway retries these with backoff, since
// a draining or closed slot is moments from having a serving
// replacement. Everything else a shard returns is terminal for the
// request.
var (
	// ErrDraining refuses a mutation while the shard drains.
	ErrDraining = errors.New("shard draining")
	// ErrClosed refuses everything after the final checkpoint; the
	// caller should re-route (the slot's replacement answers).
	ErrClosed = errors.New("shard closed")
	// ErrOpening refuses requests while the snapshot restore is still
	// running.
	ErrOpening = errors.New("shard opening")
	// ErrNoPlan means a plan could not be built in time and no last-good
	// plan exists to fall back to — a terminal 503.
	ErrNoPlan = errors.New("no plan available yet")
)

// errDrainConflict marks a Drain refused because the shard was not in
// the serving state (another drain owns it, or it is already closed).
var errDrainConflict = errors.New("drain requires a serving shard")

// IsTransient reports whether err names a shard state the gateway
// should retry through rather than surface.
func IsTransient(err error) bool {
	return errors.Is(err, ErrDraining) || errors.Is(err, ErrClosed) || errors.Is(err, ErrOpening)
}

// Config builds one Shard.
type Config struct {
	// ID is the slot index (stable across drain/replace); the metric
	// label and snapshot filename derive from it.
	ID int
	// Dir is the snapshot directory; "" disables checkpointing.
	Dir string
	// Params are the correlator tunables for this shard.
	Params config.Params
	// Seed drives the correlator's tie-breaking.
	Seed int64
	// Metrics is the shared registry (shards share aggregate families
	// and label the per-shard ones).
	Metrics *obs.Registry
	// Tracer records ingestion/plan spans (shared across shards; spans
	// carry a shard attribute).
	Tracer *obs.Tracer
	// Logger is the parent logger; the shard derives a tagged child.
	Logger *obs.Logger

	// QueueCap / QueueBlock bound the shard's ingestion queue.
	QueueCap   int
	QueueBlock time.Duration
	// BudgetBytes is the hoard budget for /hoard answers.
	BudgetBytes int64
	// CheckpointEvery is the periodic snapshot interval.
	CheckpointEvery time.Duration
	// Supervisor tunes the shard's private supervision tree.
	Supervisor supervise.Config
	// Limits is the shard's admission-control policy.
	Limits admit.Limits
	// Rumor, when set, is the shard's replication client: a fresh /hoard
	// answer triggers a bounded hoard-fill sync against the rumor master,
	// traced as a child of the request span.
	Rumor *replic.RemoteRumor
}

// Health-probe thresholds: consecutive checkpoint failures, and
// consecutive stale or failed plan builds, before the shard degrades.
const (
	ckptDegradedAfter = 3
	planDegradedAfter = 2
)

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.QueueBlock <= 0 {
		c.QueueBlock = 50 * time.Millisecond
	}
	if c.BudgetBytes <= 0 {
		c.BudgetBytes = 512 << 20
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 5 * time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(64)
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(io.Discard)
	}
	return c
}

// event is one parsed trace event in flight between ingestion and the
// shard's feeder, tagged with its batch trace id and the ingest span
// that enqueued it, so the feeder's span nests under the right parent.
type event struct {
	ev     trace.Event
	tid    obs.TraceID
	parent obs.SpanID
}

// published is one endpoint's rendered answer: the body the correlator
// produced at generation gen (and, for /hoard, at budget bytes, with
// ids the chosen files in fill order). It is immutable once stored, so
// every reader of its generation shares it.
type published struct {
	gen    uint64
	budget int64
	body   []byte
	ids    []simfs.FileID
}

// Shard is one tenant partition's bulkhead: correlator, queue, stages,
// limiter, published bodies, snapshot path. All exported methods are
// safe for concurrent use.
type Shard struct {
	id   int
	name string
	cfg  Config
	log  *obs.Logger

	state  atomic.Int32
	stateG *obs.Gauge // seer_shard_state{shard}

	// sem is the correlator lock, acquirable with a context so a plan
	// request can give up on a wedged clustering and serve stale.
	sem  chan struct{}
	corr *core.Correlator

	queue  *supervise.Queue[event]
	sup    *supervise.Supervisor
	lim    *admit.Limiter
	tracer *obs.Tracer

	// parser is the shard's strace line parser (stateful: per-pid fd
	// tables), serialized under parserMu.
	parserMu sync.Mutex
	parser   *strace.Parser

	// gen is the correlator's mutation generation: lockMut advances it
	// on every acquisition that may change what a plan says. planPub and
	// hoardPub hold each endpoint's last rendered body, the fresh answer
	// while its generation is current and the stale fallback after.
	gen      atomic.Uint64
	planPub  atomic.Pointer[published]
	hoardPub atomic.Pointer[published]

	budget    atomic.Int64
	lastTrace atomic.Uint64
	staleSrv  atomic.Int64

	// The health probes' inputs: consecutive checkpoint failures and the
	// last success (unix nano, 0 = never), consecutive stale or failed
	// plan builds and the last fresh one.
	ckptFailures atomic.Int64
	ckptOKAt     atomic.Int64
	planFails    atomic.Int64
	planOKAt     atomic.Int64

	// Shared aggregate counters (deduped by name on the registry).
	mPlans  *obs.Counter
	mStale  *obs.Counter
	mMisses *obs.Counter
	// mLockWait times requests' waits for the correlator lock.
	mLockWait *obs.Histogram
	// Paper-§5 gauges of the latest fresh hoard, labelled by shard.
	mHoardFiles  *obs.Gauge
	mHoardBytes  *obs.Gauge
	mMissFree    *obs.Gauge
	mUnhoardable *obs.Gauge

	// feedHook, when set, runs under the correlator lock before each
	// event is fed — the chaos tests' injection point for feeder panics
	// and wedged correlators (atomic: injected while the feeder runs).
	feedHook atomic.Pointer[func(trace.Event)]
	// wrapSave, when set, decorates the checkpoint op (fault.Sink).
	wrapSave atomic.Pointer[func(func() error) error]

	cancel  context.CancelFunc
	started atomic.Bool
}

// Open restores the shard's snapshot through the recovery ladder,
// starts its supervised stages under ctx, and transitions it to
// serving. A corrupt or missing snapshot is contained: the shard starts
// from its backup or a fresh database, logged, never fatal.
func Open(ctx context.Context, cfg Config) *Shard {
	cfg = cfg.withDefaults()
	s := &Shard{
		id:     cfg.ID,
		name:   strconv.Itoa(cfg.ID),
		cfg:    cfg,
		log:    cfg.Logger.With("component", "shard", "shard", strconv.Itoa(cfg.ID)),
		sem:    make(chan struct{}, 1),
		queue:  supervise.NewQueue[event](cfg.QueueCap, cfg.QueueBlock),
		tracer: cfg.Tracer,
		parser: strace.NewParser(),
	}
	s.state.Store(int32(Opening))
	s.stateG = cfg.Metrics.GaugeVec("seer_shard_state",
		"Shard lifecycle state (0 opening, 1 serving, 2 draining, 3 closed).",
		"shard").With(s.name)
	s.stateG.Set(int64(Opening))
	s.budget.Store(cfg.BudgetBytes)
	s.lim = admit.New("shard"+s.name, cfg.Metrics, s.queue.FillPct)
	s.lim.SetLimits(cfg.Limits)
	s.mPlans = cfg.Metrics.Counter("seer_plans_built_total",
		"Hoard-plan renders: /plan and /hoard answers not served from the published body, one-shot mode included.")
	s.mStale = staleCounter(cfg.Metrics)
	s.mMisses = cfg.Metrics.Counter("seer_hoard_misses_total",
		"Hoard misses recorded through /miss (paper §4.4).")
	s.mLockWait = cfg.Metrics.HistogramVec("seer_shard_lock_wait_seconds",
		"Time a /plan or /hoard render, or a /miss, waited for the shard's correlator lock.",
		nil, "shard").With(s.name)
	s.mHoardFiles = cfg.Metrics.GaugeVec("seer_hoard_files",
		"Files chosen by the shard's most recent hoard fill.", "shard").With(s.name)
	s.mHoardBytes = cfg.Metrics.GaugeVec("seer_hoard_bytes",
		"Bytes used by the shard's most recent hoard fill.", "shard").With(s.name)
	s.mMissFree = cfg.Metrics.GaugeVec("seer_hoard_missfree_bytes",
		"Hoard size that would have served every reference the shard observed without a miss (paper §5).",
		"shard").With(s.name)
	s.mUnhoardable = cfg.Metrics.GaugeVec("seer_hoard_unhoardable_files",
		"Referenced files absent from the shard's current plan (would miss at any budget).",
		"shard").With(s.name)

	opts := core.Options{Params: &cfg.Params, Seed: cfg.Seed, Metrics: cfg.Metrics}
	s.corr = RestoreSnapshot(s.dbPath(), opts, s.log)

	sc := cfg.Supervisor
	if sc.OnEvent == nil {
		slog := s.log
		sc.OnEvent = func(e supervise.Event) {
			if e.Err != nil {
				slog.Error("stage failure", "stage", e.Stage, "kind", e.Kind,
					"err", supervise.FirstLine(e.Err.Error()))
			}
		}
	}
	s.sup = supervise.New(sc)
	s.sup.Add("feeder", s.feedStage)
	if s.dbPath() != "" {
		s.sup.Add("checkpointer", s.checkpointStage)
	}
	s.addProbes()

	sctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.sup.Start(sctx)
	s.started.Store(true)
	s.setState(Serving)
	return s
}

// staleCounter is the process-wide count of stale reads, shared by
// every shard (and the manager's SLO feed) through the registry.
func staleCounter(reg *obs.Registry) *obs.Counter {
	return reg.Counter("seer_stale_plans_served_total",
		"Plan/hoard responses served stale from the last published body.")
}

// addProbes registers the shard's health probes: ingestion-queue
// pressure, checkpoint failures, recent admission shedding, and stale
// or failed plan builds. Each degrades only this shard.
func (s *Shard) addProbes() {
	s.sup.AddProbe("queue", func() supervise.Probe {
		depth, capacity, drops := s.QueueStats()
		st := supervise.Healthy
		if depth*10 >= capacity*9 {
			st = supervise.Degraded
		}
		return supervise.Probe{State: st,
			Detail: fmt.Sprintf("depth=%d/%d drops=%d", depth, capacity, drops)}
	})
	if s.dbPath() != "" {
		s.sup.AddProbe("checkpoint", func() supervise.Probe {
			return streakProbe(s.ckptFailures.Load(), ckptDegradedAfter,
				s.ckptOKAt.Load(), "last_success_age", "")
		})
	}
	s.sup.AddProbe("admission", s.lim.Probe)
	s.sup.AddProbe("plan", func() supervise.Probe {
		return streakProbe(s.planFails.Load(), planDegradedAfter, s.planOKAt.Load(),
			"last_fresh_age", fmt.Sprintf(" stale_served=%d", s.staleSrv.Load()))
	})
}

// streakProbe degrades once fails consecutive failures reach limit,
// reporting the age of the last success (okAt, unix nano; 0 = never).
func streakProbe(fails, limit, okAt int64, ageKey, extra string) supervise.Probe {
	st := supervise.Healthy
	if fails >= limit {
		st = supervise.Degraded
	}
	detail := fmt.Sprintf("consecutive_failures=%d", fails) + extra
	if okAt > 0 {
		detail += fmt.Sprintf(" %s=%s", ageKey, time.Since(time.Unix(0, okAt)).Round(time.Second))
	}
	return supervise.Probe{State: st, Detail: detail}
}

// SetFeedHook installs fn to run under the correlator lock before each
// event is fed (nil removes it): a panicking hook kills the feeder, a
// blocking one wedges the correlator.
func (s *Shard) SetFeedHook(fn func(trace.Event)) {
	if fn == nil {
		s.feedHook.Store(nil)
		return
	}
	s.feedHook.Store(&fn)
}

// SetSaveWrapper decorates every periodic checkpoint with fn (nil
// removes it), e.g. fault.Sink.Do to fail the disk on demand.
func (s *Shard) SetSaveWrapper(fn func(func() error) error) {
	if fn == nil {
		s.wrapSave.Store(nil)
		return
	}
	s.wrapSave.Store(&fn)
}

// Problems names the shard's unhealthy stages and probes, e.g.
// "checkpoint: consecutive_failures=3"; empty while healthy.
func (s *Shard) Problems() []string {
	if s.State() == Closed {
		return nil
	}
	rep := s.sup.Report()
	var out []string
	for _, st := range rep.Stages {
		if st.State == supervise.StageBackoff.String() || st.State == supervise.StageBroken.String() {
			out = append(out, st.Name+": "+st.State)
		}
	}
	for _, p := range rep.Probes {
		if p.State != supervise.Healthy.String() {
			out = append(out, p.Name+": "+p.Detail)
		}
	}
	return out
}

// dbPath is the shard's snapshot path ("" when checkpointing is off).
func (s *Shard) dbPath() string {
	if s.cfg.Dir == "" {
		return ""
	}
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("shard-%03d.db", s.id))
}

// ID returns the slot index.
func (s *Shard) ID() int { return s.id }

// Name returns the metric label ("3").
func (s *Shard) Name() string { return s.name }

// State returns the current lifecycle state.
func (s *Shard) State() State { return State(s.state.Load()) }

func (s *Shard) setState(to State) {
	s.state.Store(int32(to))
	s.stateG.Set(int64(to))
}

// Limiter returns the shard's admission limiter (the gateway acquires
// through it before touching the shard).
func (s *Shard) Limiter() *admit.Limiter { return s.lim }

// Health returns the shard's supervised health; a closed shard reports
// healthy (its replacement carries the slot).
func (s *Shard) Health() supervise.HealthState {
	if s.State() == Closed {
		return supervise.Healthy
	}
	return s.sup.Health()
}

// Restarts returns the shard's total stage restarts.
func (s *Shard) Restarts() uint64 { return s.sup.Restarts() }

// QueueStats returns the ingestion queue depth, capacity, and drops.
func (s *Shard) QueueStats() (depth, capacity int, drops uint64) {
	return s.queue.Len(), s.queue.Cap(), s.queue.Drops()
}

// Events returns the correlator's fed-event count (atomic in the
// correlator, so no lock needed for an operator view).
func (s *Shard) Events() uint64 { return s.corr.Events() }

// Params returns the correlator's active tunables, read under the
// correlator lock (so it waits out a feed or a clustering in progress).
func (s *Shard) Params() config.Params {
	s.lock()
	defer s.unlock()
	return s.corr.Params()
}

// StaleServed returns how many reads the shard answered stale from its
// published bodies.
func (s *Shard) StaleServed() int64 { return s.staleSrv.Load() }

// lock acquires the correlator lock unconditionally.
func (s *Shard) lock() { s.sem <- struct{}{} }

// unlock releases it.
func (s *Shard) unlock() { <-s.sem }

// lockCtx acquires the correlator lock unless ctx ends first.
func (s *Shard) lockCtx(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// lockMut is lockCtx for an acquisition that may mutate the
// correlator, and the only one: it advances the generation after
// taking the lock and before the caller (or the feed hook) touches the
// correlator. So a read that sees a mutation's effect, even just
// Events() counting it at the top of Feed, can no longer match a body
// published before it, and a read blocked behind a wedged feed falls
// back to stale rather than answering from the old generation.
func (s *Shard) lockMut(ctx context.Context) bool {
	if !s.lockCtx(ctx) {
		return false
	}
	s.gen.Add(1)
	return true
}

// lockWait takes the correlator lock through acquire (lockCtx, or
// lockMut for a mutation) on behalf of the request whose span ctx
// carries. The wait becomes a lock_wait child span and one observation
// of seer_shard_lock_wait_seconds{shard}; the per-event feeder does not
// come through here, so ingest pays nothing for it.
func (s *Shard) lockWait(ctx context.Context, acquire func(context.Context) bool) bool {
	sc, _ := obs.SpanFromContext(ctx)
	sp := s.tracer.StartChild(sc, "lock_wait").Attr("shard", s.name)
	start := time.Now()
	ok := acquire(ctx)
	s.mLockWait.ObserveTrace(time.Since(start).Seconds(), sc.Trace)
	if !ok {
		sp.Attr("outcome", "deadline")
	}
	sp.End()
	return ok
}

// stateErr maps a non-serving state to its transient error (nil while
// serving).
func (s *Shard) stateErr() error {
	switch s.State() {
	case Opening:
		return ErrOpening
	case Draining:
		return ErrDraining
	case Closed:
		return ErrClosed
	}
	return nil
}

// feedCtx applies one event under the correlator lock, giving up when
// ctx ends first (a stage shutdown racing a wedged correlator) — the
// caller re-queues the event so the drain fold still sees it.
func (s *Shard) feedCtx(ctx context.Context, ev trace.Event) bool {
	if !s.lockMut(ctx) {
		return false
	}
	defer s.unlock()
	if h := s.feedHook.Load(); h != nil {
		(*h)(ev)
	}
	s.corr.Feed(ev)
	return true
}

// feedStage drains the queue into the correlator, one span per
// contiguous same-trace run. On shutdown an event the stage could not
// feed goes back into the queue rather than being dropped: Drain folds
// whatever is left.
func (s *Shard) feedStage(ctx context.Context) error {
	for {
		qe, ok := s.queue.Get(ctx)
		if !ok {
			return nil
		}
		var (
			sp   *obs.ActiveSpan
			cur  obs.TraceID
			curP obs.SpanID
			n    int64
		)
		end := func() {
			if sp != nil {
				sp.AttrInt("events", n).End()
			}
			sp, n = nil, 0
		}
		for {
			if sp == nil || qe.tid != cur || qe.parent != curP {
				end()
				cur, curP = qe.tid, qe.parent
				if curP != 0 {
					sp = s.tracer.StartChild(obs.SpanContext{Trace: cur, Span: curP}, "feed")
				} else {
					sp = s.tracer.StartSpan(cur, "feed")
				}
				sp = sp.Attr("shard", s.name)
			}
			if !s.feedCtx(ctx, qe.ev) {
				s.queue.Put(context.Background(), qe)
				end()
				return nil
			}
			n++
			next, more := s.queue.TryGet()
			if !more {
				break
			}
			qe = next
		}
		end()
	}
}

// checkpointStage periodically snapshots the shard's database. Failures
// are logged, counted for the checkpoint probe (degraded after
// ckptDegradedAfter in a row), and retried next interval — never fatal
// to the stage.
func (s *Shard) checkpointStage(ctx context.Context) error {
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
		}
		if err := s.save(); err != nil {
			s.ckptFailures.Add(1)
			s.log.Warn("checkpoint failed", "err", err)
		} else {
			s.ckptFailures.Store(0)
			s.ckptOKAt.Store(time.Now().UnixNano())
		}
	}
}

// save writes the fsync'd snapshot under the correlator lock.
func (s *Shard) save() error {
	op := func() error {
		s.lock()
		defer s.unlock()
		return SaveSnapshot(s.corr, s.dbPath())
	}
	if wrap := s.wrapSave.Load(); wrap != nil {
		return (*wrap)(op)
	}
	return op()
}

// IngestLines parses strace lines and enqueues the resulting events as
// one traced batch. A span context on ctx (the gateway request, or
// seerd's strace bootstrap and tailer) parents the ingest span, and
// through it the feed span; without one the batch mints its own trace
// id. Only a serving shard ingests; any other state is a transient
// error the caller retries against the slot's replacement.
func (s *Shard) IngestLines(ctx context.Context, lines []string) (int, error) {
	if err := s.stateErr(); err != nil {
		return 0, err
	}
	var (
		tid obs.TraceID
		sp  *obs.ActiveSpan
	)
	if sc, ok := obs.SpanFromContext(ctx); ok && sc.Valid() {
		tid = sc.Trace
		sp = s.tracer.StartChild(sc, "ingest")
	} else {
		tid = s.tracer.NewTrace()
		sp = s.tracer.StartSpan(tid, "ingest")
	}
	sp = sp.Attr("shard", s.name)
	var n int
	s.parserMu.Lock()
	evs := make([]trace.Event, 0, len(lines))
	for _, line := range lines {
		if ev, ok := s.parser.ParseLine(line); ok {
			evs = append(evs, ev)
		}
	}
	s.parserMu.Unlock()
	parent := sp.Context().Span
	for _, ev := range evs {
		if !s.queue.Put(ctx, event{ev: ev, tid: tid, parent: parent}) {
			break
		}
		n++
	}
	sp.AttrInt("events", int64(n)).End()
	s.lastTrace.Store(uint64(tid))
	return n, nil
}

// pub returns the endpoint's store of published bodies.
func (s *Shard) pub(hoard bool) *atomic.Pointer[published] {
	if hoard {
		return &s.hoardPub
	}
	return &s.planPub
}

// current returns the endpoint's published body while it still
// answers fresh: rendered at the current generation and, for /hoard,
// at the current budget. nil means the next reader must render.
func (s *Shard) current(hoard bool) *published {
	p := s.pub(hoard).Load()
	if p == nil || p.gen != s.gen.Load() || (hoard && p.budget != s.budget.Load()) {
		return nil
	}
	return p
}

// serveStale answers with the endpoint's last published body, whatever
// its generation; ErrNoPlan without one.
func (s *Shard) serveStale(hoard bool) ([]byte, bool, error) {
	p := s.pub(hoard).Load()
	if p == nil {
		return nil, false, ErrNoPlan
	}
	s.staleSrv.Add(1)
	s.mStale.Inc()
	return p.body, true, nil
}

// Plan returns the full inclusion order. A draining shard serves its
// last published plan (reads keep answering through a drain); a wedged
// or deadline-bound clustering falls back to it too. The stale return
// reports whether the body is that fallback. The body is shared by
// every reader of its generation: callers must not modify it.
func (s *Shard) Plan(ctx context.Context) (body []byte, stale bool, err error) {
	return s.read(ctx, false)
}

// Hoard returns the chosen files at the shard's budget with the same
// stale-fallback discipline and sharing as Plan; a fresh answer also
// pre-fetches the hoard's head from the rumor master.
func (s *Shard) Hoard(ctx context.Context) (body []byte, stale bool, err error) {
	return s.read(ctx, true)
}

// read is Plan (hoard=false) or Hoard (hoard=true). A body published at
// the current generation answers without the correlator lock; otherwise
// read renders under the lock and publishes. Every stale or failed
// build counts toward the plan probe; every fresh answer resets it.
func (s *Shard) read(ctx context.Context, hoard bool) ([]byte, bool, error) {
	switch s.State() {
	case Opening:
		return nil, false, ErrOpening
	case Closed:
		return nil, false, ErrClosed
	case Draining:
		return s.serveStale(hoard)
	}
	stage := "plan"
	if hoard {
		stage = "hoard"
	}
	sp := s.reqSpan(ctx, stage)
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp.Context())
	p := s.current(hoard)
	if p == nil {
		p = s.render(ctx, hoard, sp)
	}
	if p == nil {
		sp.Attr("outcome", "stale")
		s.planFails.Add(1)
		return s.serveStale(hoard)
	}
	sp.Attr("outcome", "fresh")
	s.planFails.Store(0)
	s.planOKAt.Store(time.Now().UnixNano())
	if hoard {
		s.hoardFill(ctx, sp, p.ids)
	}
	return p.body, false, nil
}

// render builds the endpoint's body under the correlator lock and
// publishes it, unless a reader ahead of it in the lock already
// published this generation's, so concurrent readers of a new
// generation render once. nil means the lock wait or the build missed
// ctx's deadline.
func (s *Shard) render(ctx context.Context, hoard bool, sp *obs.ActiveSpan) *published {
	if !s.lockWait(ctx, s.lockCtx) {
		return nil
	}
	defer s.unlock()
	if p := s.current(hoard); p != nil {
		return p
	}
	p := &published{gen: s.gen.Load(), budget: s.budget.Load()}
	var (
		buf bytes.Buffer
		err error
	)
	if hoard {
		p.ids, err = s.renderHoard(ctx, &buf, p.budget)
	} else {
		err = s.renderPlan(ctx, &buf, sp)
	}
	if err != nil {
		return nil
	}
	p.body = buf.Bytes()
	s.pub(hoard).Store(p)
	return p
}

// renderPlan writes the inclusion order (caller holds the lock).
func (s *Shard) renderPlan(ctx context.Context, w *bytes.Buffer, sp *obs.ActiveSpan) error {
	s.mPlans.Inc()
	plan, err := s.corr.PlanContext(ctx)
	if err != nil {
		return err
	}
	for i, e := range plan.Entries {
		fmt.Fprintf(w, "%5d %8s %10d %12d %s\n",
			i, e.Reason, e.File.Size, e.Cum, e.File.Path)
	}
	sp.AttrInt("entries", int64(len(plan.Entries)))
	return nil
}

// hoardFillMax bounds how many files one /hoard answer pre-fetches from
// the rumor master — the sync is best-effort warm-up, not a transfer
// protocol, and must never turn a plan request into a bulk copy.
const hoardFillMax = 64

// hoardFill pre-fetches a fresh hoard's head from the rumor master (one
// batched /fetch round trip, traced as a child of the request span ctx
// carries and bounded by its deadline). Failures are recorded on the
// span and otherwise ignored: the hoard listing is already decided.
func (s *Shard) hoardFill(ctx context.Context, sp *obs.ActiveSpan, ids []simfs.FileID) {
	if s.cfg.Rumor == nil || len(ids) == 0 {
		return
	}
	if len(ids) > hoardFillMax {
		ids = ids[:hoardFillMax]
	}
	failed, err := s.cfg.Rumor.SyncBatchCtx(ctx, ids, nil)
	switch {
	case err != nil:
		sp.Attr("rumor", "error")
	case len(failed) > 0:
		sp.Attr("rumor", "partial").AttrInt("rumor_failed", int64(len(failed)))
	default:
		sp.Attr("rumor", "filled").AttrInt("rumor_files", int64(len(ids)))
	}
}

// reqSpan opens the span for a read request: parented on the gateway's
// propagated span context when ctx carries one, else tagged onto the
// shard's last ingest trace (direct callers outside the gateway).
func (s *Shard) reqSpan(ctx context.Context, stage string) *obs.ActiveSpan {
	if sc, ok := obs.SpanFromContext(ctx); ok && sc.Valid() {
		return s.tracer.StartChild(sc, stage).Attr("shard", s.name)
	}
	return s.tracer.StartSpan(obs.TraceID(s.lastTrace.Load()), stage).Attr("shard", s.name)
}

// renderHoard writes the hoard listing at budget and returns the chosen
// file ids (caller holds the lock). It also refreshes the shard's hoard
// gauges, including the paper-§5 miss-free size: the hoard that would
// have served every currently observed reference.
func (s *Shard) renderHoard(ctx context.Context, w io.Writer, budget int64) ([]simfs.FileID, error) {
	s.mPlans.Inc()
	plan, err := s.corr.PlanContext(ctx)
	if err != nil {
		return nil, err
	}
	contents := plan.Fill(budget, s.corr.Params().SkipUnfittingClusters)
	refs := s.corr.Observer().LastRefs()
	referenced := make([]simfs.FileID, 0, len(refs))
	for id := range refs {
		referenced = append(referenced, id)
	}
	missFree, unhoardable := plan.MissFreeSize(referenced)
	s.mHoardFiles.Set(int64(contents.Len()))
	s.mHoardBytes.Set(contents.UsedBytes())
	s.mMissFree.Set(missFree)
	s.mUnhoardable.Set(int64(unhoardable))
	ids := contents.IDs()
	fmt.Fprintf(w, "# hoard: %d files, %d bytes of %d budget\n",
		contents.Len(), contents.UsedBytes(), contents.Budget())
	for _, l := range []struct {
		name string
		link replic.Link
	}{
		{"28.8k modem", replic.Modem28k},
		{"ISDN", replic.ISDN},
		{"10M ethernet", replic.Ethernet10},
	} {
		est := replic.EstimateSync(s.corr.FS(), ids, l.link)
		fmt.Fprintf(w, "# cold fill over %-12s %v\n", l.name+":", est.Duration.Round(time.Second))
	}
	for _, id := range ids {
		if f := s.corr.FS().Get(id); f != nil {
			fmt.Fprintln(w, f.Path)
		}
	}
	return ids, nil
}

// Clusters renders the multi-member clusters; busy shards refuse rather
// than block (there is no cluster cache to fall back to).
func (s *Shard) Clusters(ctx context.Context) ([]byte, error) {
	if err := s.stateErr(); err != nil {
		return nil, err
	}
	if !s.lockCtx(ctx) {
		return nil, ErrNoPlan
	}
	defer s.unlock()
	res, err := s.corr.ClustersContext(ctx)
	if err != nil {
		return nil, ErrNoPlan
	}
	var buf bytes.Buffer
	for _, cl := range res.Clusters {
		if len(cl.Members) < 2 {
			continue
		}
		fmt.Fprintf(&buf, "cluster %d (%d files):\n", cl.ID, len(cl.Members))
		for _, m := range cl.Members {
			if f := s.corr.FS().Get(m); f != nil {
				fmt.Fprintf(&buf, "  %s\n", f.Path)
			}
		}
	}
	return buf.Bytes(), nil
}

// Miss records a hoard miss (§4.4), forcing the file and its project
// mates into future plans. Mutations need a serving shard.
func (s *Shard) Miss(ctx context.Context, path string) ([]string, error) {
	if err := s.stateErr(); err != nil {
		return nil, err
	}
	if !s.lockWait(ctx, s.lockMut) {
		return nil, context.DeadlineExceeded
	}
	s.mMisses.Inc()
	mates := s.corr.ForceHoard(path)
	s.unlock()
	return mates, nil
}

// Stats renders the observer statistics.
func (s *Shard) Stats(ctx context.Context) ([]byte, error) {
	if s.State() == Closed {
		return nil, ErrClosed
	}
	if !s.lockCtx(ctx) {
		return nil, context.DeadlineExceeded
	}
	defer s.unlock()
	st := s.corr.Observer().Stats()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "events %d\nreferences %d\nknown %d\ntracked %d\nfrequent %d\n",
		st.Events, st.References, s.corr.FS().Len(), s.corr.Table().Len(),
		len(s.corr.Observer().FrequentFiles()))
	return buf.Bytes(), nil
}

// ApplyRuntime pushes the hot-reloadable settings into the shard — but
// only while it is serving. A draining or closed shard must never see
// new Params (that would resurrect a retiring pipeline or mutate a
// state that is already checkpointed for handoff); the replacement
// shard in the slot picks up the new runtime instead. Reports whether
// the settings were applied.
func (s *Shard) ApplyRuntime(rt config.Runtime) bool {
	if s.State() != Serving {
		return false
	}
	s.queue.SetCap(rt.Daemon.QueueCap)
	s.queue.SetBlock(time.Duration(rt.Daemon.QueueBlockMS) * time.Millisecond)
	s.budget.Store(rt.Daemon.HoardBudgetMB << 20)
	s.lim.SetLimits(limitsFromRuntime(rt))
	// An admission- or queue-only reload never waits on the correlator
	// lock (a wedged clustering must not stall it). cfg.Params tracks
	// the last applied set; reloads reach a shard one at a time.
	if rt.Params == s.cfg.Params {
		return true
	}
	// Params need the correlator lock. Bounded: one wedged shard may
	// cost the reload paramApplyTimeout, never block neighbors forever
	// (the hot non-param knobs above applied already). Re-check the
	// state under the lock: a drain that began between the test above
	// and here must not have new Params applied beneath it — the state
	// flips before Drain touches the correlator, so Serving observed
	// while holding the lock is authoritative.
	ctx, cancel := context.WithTimeout(context.Background(), paramApplyTimeout)
	defer cancel()
	if s.lockMut(ctx) {
		if s.State() == Serving {
			s.corr.SetParams(rt.Params)
			s.cfg.Params = rt.Params
		}
		s.unlock()
	} else {
		s.log.Warn("reload: params not applied, correlator busy past deadline")
	}
	return true
}

// limitsFromRuntime maps the admission knobs onto a shard's limiter.
func limitsFromRuntime(rt config.Runtime) admit.Limits {
	return admit.Limits{
		MaxInFlight: rt.Admit.PlanMaxInFlight,
		MaxQueuePct: rt.Admit.MaxQueuePct,
		MaxLatency:  time.Duration(rt.Admit.MaxLatencyMS) * time.Millisecond,
		RetryAfter:  time.Duration(rt.Admit.RetryAfterSec) * time.Second,
	}
}

// paramApplyTimeout bounds how long a reload waits on one shard's
// correlator lock before skipping its Params push (a variable so tests
// can tighten it).
var paramApplyTimeout = 5 * time.Second

// Drain executes the shard's half of the drain protocol: flip to
// draining (ingest refused, reads go stale), stop the supervised
// stages, fold every queued event into the correlator, write the final
// fsync'd checkpoint, and close. ctx bounds the fold — a wedged
// correlator cannot hang a drain forever, but a timed-out drain
// reports how many events it abandoned. After Drain returns nil, the
// snapshot at the shard's path replays into a byte-identical plan.
func (s *Shard) Drain(ctx context.Context) error {
	if !s.state.CompareAndSwap(int32(Serving), int32(Draining)) {
		return fmt.Errorf("shard %s: %w (state %s)", s.name, errDrainConflict, s.State())
	}
	s.stateG.Set(int64(Draining))
	s.log.Info("drain started", "queued", s.queue.Len())
	s.cancel()
	s.sup.Wait()
	// Fold the tail of the queue under the drain deadline: events it
	// cannot fold are lost only on a wedged shard, and counted.
	lost := 0
	for {
		qe, ok := s.queue.TryGet()
		if !ok {
			break
		}
		if !s.lockMut(ctx) {
			lost = 1 + s.queue.Len()
			break
		}
		s.corr.Feed(qe.ev)
		s.unlock()
	}
	var err error
	if s.dbPath() != "" {
		if !s.lockCtx(ctx) {
			err = fmt.Errorf("shard %s: final checkpoint: correlator wedged past drain deadline", s.name)
		} else {
			err = SaveSnapshot(s.corr, s.dbPath())
			s.unlock()
		}
	}
	s.setState(Closed)
	if lost > 0 && err == nil {
		err = fmt.Errorf("shard %s: drain abandoned %d queued events (correlator wedged)", s.name, lost)
	}
	if err != nil {
		s.log.Error("drain finished with error", "err", err)
	} else {
		s.log.Info("drain complete", "events", s.corr.Events())
	}
	return err
}

// Close runs the drain protocol for process shutdown (final checkpoint
// included). If another goroutine's Drain already owns the shard, Close
// just waits for it to reach closed.
func (s *Shard) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.Drain(ctx)
	if errors.Is(err, errDrainConflict) {
		// A concurrent drain owns the shutdown (or already finished);
		// wait for the final checkpoint rather than double-draining.
		for s.State() != Closed && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond)
		}
		if s.State() == Closed {
			return nil
		}
	}
	return err
}

// bakSuffix names the rotated previous snapshot kept beside the
// primary.
const bakSuffix = ".bak"

// RestoreSnapshot climbs the startup recovery ladder: the primary
// snapshot, then its .bak rotation, then a fresh database. Corruption
// is downgraded and logged — a poisoned SEERDB costs one shard at most
// one checkpoint interval of learning, never the process.
func RestoreSnapshot(path string, opts core.Options, log *obs.Logger) *core.Correlator {
	if path == "" {
		return core.New(opts)
	}
	sawAny := false
	for _, cand := range []string{path, path + bakSuffix} {
		f, err := os.Open(cand)
		if err != nil {
			if !os.IsNotExist(err) {
				log.Warn("cannot open snapshot", "path", cand, "err", err)
				sawAny = true
			}
			continue
		}
		sawAny = true
		c, lerr := core.Load(f, opts)
		f.Close()
		if lerr != nil {
			log.Warn("snapshot unusable", "path", cand, "err", lerr)
			continue
		}
		if cand != path {
			log.Warn("primary snapshot lost; recovered from backup", "path", cand)
		}
		log.Info("database restored", "path", cand,
			"events", c.Events(), "files", c.FS().Len())
		return c
	}
	if sawAny {
		log.Warn("no usable snapshot; starting with a fresh database")
	}
	return core.New(opts)
}

// SaveSnapshot writes an fsync'd snapshot next to path and rotates it
// into place: serialize to a temp file, fsync, move the previous
// snapshot to .bak, rename the temp over path, fsync the directory. A
// crash at any step leaves a loadable snapshot at path or path.bak —
// exactly the ladder RestoreSnapshot climbs.
func SaveSnapshot(c *core.Correlator, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+bakSuffix); err != nil {
			os.Remove(tmp)
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so completed renames survive power loss;
// best effort on filesystems that refuse directory fsync.
func syncDir(dir string) {
	df, err := os.Open(dir)
	if err != nil {
		return
	}
	df.Sync()
	df.Close()
}
