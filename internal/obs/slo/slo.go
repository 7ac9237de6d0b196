// Package slo evaluates multi-window burn rates over the latency and
// error instruments the daemons already export (Google SRE workbook
// style): an objective promises a target fraction of good events, the
// burn rate is how many times faster than budget the error budget is
// being consumed, and an alert needs both a fast window (catches a
// fresh incident in minutes) and a slow window (keeps a brief blip
// from paging). Everything is sampled from cumulative counters, so the
// monitor holds no per-request state.
package slo

import (
	"context"
	"sync"
	"time"

	"github.com/fmg/seer/internal/obs"
)

// Objective is one service-level objective: Total and Bad read
// cumulative event counts (monotonic), and Target is the promised good
// fraction — burn = (bad/total over a window) / (1 - Target).
type Objective struct {
	Name   string
	Target float64
	Total  func() uint64
	Bad    func() uint64
}

// LatencyObjective builds an objective over a latency histogram: an
// observation above threshold seconds is bad, and errs (optional)
// contributes failures that never reached the histogram.
func LatencyObjective(name string, h *obs.Histogram, threshold, target float64, errs func() uint64) Objective {
	if errs == nil {
		errs = func() uint64 { return 0 }
	}
	return Objective{
		Name:   name,
		Target: target,
		Total:  func() uint64 { return h.Count() + errs() },
		Bad:    func() uint64 { return h.Count() - h.CountUnder(threshold) + errs() },
	}
}

// The windows and breach threshold a Config left zero takes, and the
// ones seerd runs with: a fast window that pages, a slow window that
// confirms, and the fast-window burn rate that marks an objective
// breached (14 is the classic page threshold: burning a 30-day budget
// in about 2 days).
const (
	DefaultFastWindow = 5 * time.Minute
	DefaultSlowWindow = time.Hour
	DefaultThreshold  = 14
)

// Config shapes a Monitor. Zero values take the defaults noted.
type Config struct {
	FastWindow time.Duration // burn window that pages (DefaultFastWindow)
	SlowWindow time.Duration // burn window that confirms (DefaultSlowWindow)
	Tick       time.Duration // sampling interval (default 5s)

	// Threshold is the fast-window burn rate that marks an objective
	// breached (DefaultThreshold).
	Threshold float64

	// OnBreach fires once per transition into breach (per objective),
	// debounced by MinBetween (default 1m) across all objectives —
	// the flight-recorder hook.
	OnBreach   func(name string, fast, slow float64)
	MinBetween time.Duration
}

func (c Config) withDefaults() Config {
	if c.FastWindow <= 0 {
		c.FastWindow = DefaultFastWindow
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = DefaultSlowWindow
	}
	if c.Tick <= 0 {
		c.Tick = 5 * time.Second
	}
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	if c.MinBetween <= 0 {
		c.MinBetween = time.Minute
	}
	return c
}

// sample is one cumulative reading of an objective's counters.
type sample struct {
	at         time.Time
	total, bad uint64
}

// objState is an objective plus its sample ring and breach latch.
type objState struct {
	o        Objective
	samples  []sample
	breached bool
}

// Monitor samples a set of objectives on a tick and serves their burn
// rates. All methods are safe for concurrent use.
type Monitor struct {
	cfg Config

	mu       sync.Mutex
	objs     []*objState
	lastFire time.Time
}

// New returns a monitor with no objectives; Add them, then Run it (or
// drive Tick directly in tests).
func New(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults()}
}

// Add registers one objective. Target outside (0,1) defaults to 0.99.
func (m *Monitor) Add(o Objective) {
	if o.Target <= 0 || o.Target >= 1 {
		o.Target = 0.99
	}
	m.mu.Lock()
	m.objs = append(m.objs, &objState{o: o})
	m.mu.Unlock()
}

// InstrumentOn registers seer_slo_burn_rate{slo,window} func-gauges for
// every objective added so far, read live at scrape time.
func (m *Monitor) InstrumentOn(reg *obs.Registry) {
	vec := reg.GaugeFuncVec("seer_slo_burn_rate",
		"Error-budget burn rate per SLO and window (1 = exactly on budget).",
		"slo", "window")
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.objs {
		name := st.o.Name
		vec.Register(func() float64 { return m.Burn(name, m.cfg.FastWindow) }, name, "fast")
		vec.Register(func() float64 { return m.Burn(name, m.cfg.SlowWindow) }, name, "slow")
	}
}

// Run ticks the monitor until ctx ends.
func (m *Monitor) Run(ctx context.Context) {
	t := time.NewTicker(m.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.Tick()
		}
	}
}

// Tick takes one sample of every objective, prunes samples older than
// the slow window, and fires OnBreach on fast-window transitions over
// the threshold.
func (m *Monitor) Tick() {
	now := time.Now()
	type firing struct {
		name       string
		fast, slow float64
	}
	var fire []firing
	m.mu.Lock()
	for _, st := range m.objs {
		st.samples = append(st.samples, sample{
			at: now, total: st.o.Total(), bad: st.o.Bad()})
		keep := 0
		horizon := now.Add(-m.cfg.SlowWindow - m.cfg.Tick)
		for keep < len(st.samples)-1 && st.samples[keep].at.Before(horizon) {
			keep++
		}
		st.samples = st.samples[keep:]

		fast := m.burnLocked(st, m.cfg.FastWindow, now)
		over := fast >= m.cfg.Threshold
		if over && !st.breached && m.cfg.OnBreach != nil &&
			now.Sub(m.lastFire) >= m.cfg.MinBetween {
			m.lastFire = now
			fire = append(fire, firing{st.o.Name, fast, m.burnLocked(st, m.cfg.SlowWindow, now)})
		}
		st.breached = over
	}
	cb := m.cfg.OnBreach
	m.mu.Unlock()
	for _, f := range fire {
		cb(f.name, f.fast, f.slow)
	}
}

// burnLocked computes the burn rate over window ending at now: the
// bad-event fraction across the window's sample span divided by the
// budgeted fraction. Fewer than two samples (or no events) burn 0.
func (m *Monitor) burnLocked(st *objState, window time.Duration, now time.Time) float64 {
	n := len(st.samples)
	if n < 2 {
		return 0
	}
	newest := st.samples[n-1]
	cut := now.Add(-window)
	oldest := st.samples[0]
	for _, s := range st.samples {
		if s.at.Before(cut) {
			oldest = s
		} else {
			break
		}
	}
	total := newest.total - oldest.total
	bad := newest.bad - oldest.bad
	if total == 0 || newest.total < oldest.total {
		return 0
	}
	budget := 1 - st.o.Target
	if budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}

// Burn returns the named objective's burn rate over the window (0 for
// unknown objectives).
func (m *Monitor) Burn(name string, window time.Duration) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.objs {
		if st.o.Name == name {
			return m.burnLocked(st, window, time.Now())
		}
	}
	return 0
}

// Breached returns the objectives whose fast window is currently over
// the threshold, in Add order.
func (m *Monitor) Breached() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, st := range m.objs {
		if st.breached {
			out = append(out, st.o.Name)
		}
	}
	return out
}
