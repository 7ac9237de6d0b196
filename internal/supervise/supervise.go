// Package supervise runs a daemon's stages as a supervised goroutine
// tree: each stage executes under panic capture and is restarted with
// exponential backoff and jitter when it fails, a circuit breaker stops
// restarting a stage that fails too often in a window (flipping overall
// health instead of crash-looping), and the aggregate stage state plus
// caller-registered probes drive a three-level health state machine
// (healthy → degraded → unavailable) that HTTP health endpoints can
// serve directly.
//
// SEER's observer ran unattended on user laptops for months (paper
// §4.11); the results depend on the daemon never dying quietly. This
// package is how seerd earns that: a wedged or panicking stage degrades
// service and reports itself instead of taking the process down.
package supervise

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"
)

// HealthState is the overall (or per-probe) health level. Ordering
// matters: higher values are worse, and the aggregate is the maximum
// over stages and probes.
type HealthState int

const (
	// Healthy means every stage is running and every probe is content.
	Healthy HealthState = iota
	// Degraded means the daemon is serving but impaired: a stage is
	// restarting or broken, a queue is backed up, checkpoints are
	// failing. Read paths should serve (possibly stale) answers.
	Degraded
	// Unavailable means a critical stage is broken; read paths should
	// refuse with 503.
	Unavailable
)

// String returns the lowercase wire name used in health JSON.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Unavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("HealthState(%d)", int(h))
	}
}

// StageState is one stage's lifecycle state.
type StageState int

const (
	// StageIdle is the state before Start.
	StageIdle StageState = iota
	// StageRunning means the stage function is executing.
	StageRunning
	// StageBackoff means the stage failed and is waiting to restart.
	StageBackoff
	// StageBroken means the circuit breaker tripped: the stage failed
	// BreakAfter times within Window and is no longer being restarted
	// (until ResetAfter elapses, when configured).
	StageBroken
	// StageStopped means the stage completed: its function returned nil
	// on a non-restarting stage, or the supervisor context ended.
	StageStopped
)

// String returns the lowercase wire name used in health JSON.
func (s StageState) String() string {
	switch s {
	case StageIdle:
		return "idle"
	case StageRunning:
		return "running"
	case StageBackoff:
		return "backoff"
	case StageBroken:
		return "broken"
	case StageStopped:
		return "stopped"
	default:
		return fmt.Sprintf("StageState(%d)", int(s))
	}
}

// StageFunc is a stage body. It should run until ctx is cancelled (or
// its work is done) and return nil for a clean stop. A returned error
// or a panic counts as a failure and triggers restart-with-backoff.
type StageFunc func(ctx context.Context) error

// Backoff is the daemons' one exponential backoff with jitter: the
// restart delay of a failed stage here, and every retry of
// hoard.RetryPolicy. The delay after the nth consecutive failure is
// Initial doubled n-1 times and capped at Max, with up to a Jitter
// fraction taken off at random, so it lies in [d(1-Jitter), d] and a
// fleet of daemons does not retry in lockstep.
type Backoff struct {
	Initial time.Duration
	Max     time.Duration
	Jitter  float64
}

// Delay returns the wait after the attempt-th consecutive failure
// (1-based), given u uniform in [0,1).
func (b Backoff) Delay(attempt int, u float64) time.Duration {
	d := b.Initial
	for i := 1; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		d = time.Duration(float64(d) * (1 - b.Jitter*u))
	}
	return d
}

// withDefaults fills zero fields.
func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	} else if b.Jitter == 0 {
		b.Jitter = 0.25
	}
	return b
}

// Sleep waits d or until ctx ends, reporting whether the full delay
// elapsed.
func Sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Event describes a stage lifecycle transition, delivered to
// Config.OnEvent for logging.
type Event struct {
	Stage    string
	Kind     string // "error", "panic", "restart", "broken", "reset", "stopped"
	Err      error
	Restarts uint64
}

// Config tunes a Supervisor.
type Config struct {
	// Backoff is the restart delay policy; zero fields get defaults
	// (50ms initial, 5s max, up to 25% jitter).
	Backoff Backoff
	// BreakAfter trips the circuit breaker after this many failures
	// within Window (default 8; negative disables the breaker).
	BreakAfter int
	// Window is the failure-counting window (default 1 minute). A stage
	// that stays up longer than Window also has its backoff reset.
	Window time.Duration
	// ResetAfter re-arms a broken stage after this long, giving it one
	// fresh run (half-open). Zero means broken stages stay broken.
	ResetAfter time.Duration
	// OnEvent, when non-nil, receives stage lifecycle events. It is
	// called from stage goroutines and must be safe for concurrent use.
	OnEvent func(Event)
}

func (c Config) withDefaults() Config {
	c.Backoff = c.Backoff.withDefaults()
	if c.BreakAfter == 0 {
		c.BreakAfter = 8
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	return c
}

// StageOption customizes one stage.
type StageOption func(*stage)

// Critical marks a stage whose breakage makes the whole daemon
// Unavailable rather than merely Degraded (e.g. the HTTP listener).
func Critical() StageOption { return func(st *stage) { st.critical = true } }

// NoRestart marks a run-to-completion stage: a nil return stops it
// cleanly instead of restarting it. Errors and panics still restart.
func NoRestart() StageOption { return func(st *stage) { st.restart = false } }

type stage struct {
	name     string
	fn       StageFunc
	critical bool
	restart  bool

	// Mutable state below is guarded by the supervisor mutex.
	state    StageState
	restarts uint64
	failures []time.Time
	lastErr  error
	since    time.Time
}

// Probe is a caller-registered health contribution (queue depth,
// checkpoint failures, staleness...).
type Probe struct {
	State  HealthState
	Detail string
}

type probeEntry struct {
	name string
	fn   func() Probe
}

// Supervisor owns a set of stages and derives overall health from
// them. Configure with Add/AddProbe, then Start once.
type Supervisor struct {
	cfg Config

	mu      sync.Mutex
	stages  []*stage
	probes  []probeEntry
	started bool
	ctx     context.Context
	wg      sync.WaitGroup
	rng     *rand.Rand
}

// New returns an empty Supervisor.
func New(cfg Config) *Supervisor {
	return &Supervisor{
		cfg: cfg.withDefaults(),
		rng: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Add registers a stage. It panics if called after Start — the tree is
// fixed at startup so health reports are stable.
func (s *Supervisor) Add(name string, fn StageFunc, opts ...StageOption) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("supervise: Add after Start")
	}
	st := &stage{name: name, fn: fn, restart: true, state: StageIdle, since: time.Now()}
	for _, o := range opts {
		o(st)
	}
	s.stages = append(s.stages, st)
}

// AddProbe registers a health probe evaluated on every Health/Report
// call. fn must be safe for concurrent use and fast (it runs inside
// health requests); it must not take locks that stages hold across
// long operations.
func (s *Supervisor) AddProbe(name string, fn func() Probe) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes = append(s.probes, probeEntry{name: name, fn: fn})
}

// Start launches every registered stage. The stages stop when ctx is
// cancelled; Wait blocks until they have.
func (s *Supervisor) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("supervise: Start twice")
	}
	s.started = true
	s.ctx = ctx
	stages := s.stages
	s.mu.Unlock()
	for _, st := range stages {
		s.wg.Add(1)
		go s.runStage(st)
	}
}

// Wait blocks until every stage has stopped (after the Start context
// is cancelled or every stage broke/completed).
func (s *Supervisor) Wait() { s.wg.Wait() }

// emit delivers a lifecycle event to the configured hook.
func (s *Supervisor) emit(st *stage, kind string, err error, restarts uint64) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(Event{Stage: st.name, Kind: kind, Err: err, Restarts: restarts})
	}
}

// setState transitions a stage under the lock.
func (s *Supervisor) setState(st *stage, to StageState, err error) {
	s.mu.Lock()
	st.state = to
	st.since = time.Now()
	if err != nil {
		st.lastErr = err
	}
	s.mu.Unlock()
}

// panicError marks a failure that was a recovered panic rather than a
// returned error.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", p.val, p.stack)
}

// invoke runs the stage body once, converting a panic into an error.
func (s *Supervisor) invoke(st *stage) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	return st.fn(s.ctx)
}

// uniform draws the jitter for one restart delay.
func (s *Supervisor) uniform() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64()
}

// runStage is the per-stage restart loop: run, capture, back off,
// restart, break the circuit on sustained failure.
func (s *Supervisor) runStage(st *stage) {
	defer s.wg.Done()
	// failed counts the failures since the backoff last reset.
	failed := 0
	var restarts uint64
	for {
		s.setState(st, StageRunning, nil)
		began := time.Now()
		err := s.invoke(st)
		if s.ctx.Err() != nil {
			s.setState(st, StageStopped, err)
			s.emit(st, "stopped", err, restarts)
			return
		}
		if err == nil && !st.restart {
			s.setState(st, StageStopped, nil)
			s.emit(st, "stopped", nil, restarts)
			return
		}
		if err == nil {
			// A restarting stage should only return on context end; an
			// early nil return is itself a failure mode.
			err = fmt.Errorf("stage %s returned before shutdown", st.name)
		}
		kind := "error"
		if _, ok := err.(*panicError); ok {
			kind = "panic"
		}
		s.emit(st, kind, err, restarts)

		// A stage that stayed up longer than Window earned a fresh
		// backoff and failure count.
		if time.Since(began) > s.cfg.Window {
			failed = 0
			s.mu.Lock()
			st.failures = st.failures[:0]
			s.mu.Unlock()
		}

		s.mu.Lock()
		now := time.Now()
		st.lastErr = err
		st.failures = append(st.failures, now)
		kept := st.failures[:0]
		for _, t := range st.failures {
			if now.Sub(t) <= s.cfg.Window {
				kept = append(kept, t)
			}
		}
		st.failures = kept
		tripped := s.cfg.BreakAfter > 0 && len(st.failures) >= s.cfg.BreakAfter
		s.mu.Unlock()

		if tripped {
			s.setState(st, StageBroken, err)
			s.emit(st, "broken", err, restarts)
			if s.cfg.ResetAfter <= 0 {
				return
			}
			if !Sleep(s.ctx, s.cfg.ResetAfter) {
				s.setState(st, StageStopped, nil)
				return
			}
			s.mu.Lock()
			st.failures = st.failures[:0]
			s.mu.Unlock()
			failed = 0
			s.emit(st, "reset", nil, restarts)
			continue
		}

		s.setState(st, StageBackoff, err)
		failed++
		if !Sleep(s.ctx, s.cfg.Backoff.Delay(failed, s.uniform())) {
			s.setState(st, StageStopped, nil)
			return
		}
		restarts++
		s.mu.Lock()
		st.restarts = restarts
		s.mu.Unlock()
		s.emit(st, "restart", nil, restarts)
	}
}

// Restarts returns the total restart count across all stages (an
// expvar-friendly aggregate).
func (s *Supervisor) Restarts() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, st := range s.stages {
		n += st.restarts
	}
	return n
}

// StageRestarts returns the restart count per stage name, the
// per-series breakdown behind the seer_stage_restarts_total metric.
func (s *Supervisor) StageRestarts() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.stages))
	for _, st := range s.stages {
		out[st.name] = st.restarts
	}
	return out
}
