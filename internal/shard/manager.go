package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/supervise"
)

// ManagerConfig builds a Manager.
type ManagerConfig struct {
	// Shards is the slot count (≥1).
	Shards int
	// Dir holds every shard's snapshot ("" disables checkpointing).
	Dir string
	// Runtime supplies the per-shard tunables (queue, budget, params,
	// admission); the manager derives each shard's Config from it.
	Runtime config.Runtime
	// Seed drives correlator tie-breaking (shard i uses Seed+i so equal
	// inputs on different shards stay deterministic but uncorrelated).
	Seed int64
	// Metrics, Tracer, Logger are shared across every shard.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Logger  *obs.Logger
	// Supervisor tunes each shard's private tree.
	Supervisor supervise.Config
	// CheckpointEvery is each shard's snapshot interval.
	CheckpointEvery time.Duration
	// Vnodes overrides the ring's virtual-node count (0 = default).
	Vnodes int
	// Rumor, when set, is the shared replication client handed to every
	// shard for traced hoard-fill syncs.
	Rumor *replic.RemoteRumor
}

// Manager hosts N shard bulkheads behind a consistent-hash ring. Each
// slot holds the current Shard for that partition; Drain retires a
// slot's shard and replays its final snapshot into a replacement, so
// slot identity (and user routing) survives the migration. All methods
// are safe for concurrent use.
type Manager struct {
	cfg  ManagerConfig
	ring *Ring
	log  *obs.Logger

	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.RWMutex
	slots []*Shard
	// retired and retiredDrops accumulate stage restarts and queue sheds
	// from each slot's retired shards, so the per-slot counters stay
	// monotonic across a drain/replace.
	retired      []uint64
	retiredDrops []uint64
	// replaced counts completed drain/replace cycles per slot.
	replaced []uint64
	// draining marks slots with a drain in flight (refuses a second).
	draining []bool
}

// NewManager opens cfg.Shards shards and returns the manager routing
// over them. Shards open concurrently — a slow or corrupt snapshot in
// one slot does not delay the others.
func NewManager(ctx context.Context, cfg ManagerConfig) *Manager {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(256)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NewLogger(io.Discard)
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 5 * time.Minute
	}
	mctx, cancel := context.WithCancel(ctx)
	m := &Manager{
		cfg:          cfg,
		ring:         NewRing(cfg.Shards, cfg.Vnodes),
		log:          cfg.Logger.With("component", "shardmgr"),
		ctx:          mctx,
		cancel:       cancel,
		slots:        make([]*Shard, cfg.Shards),
		retired:      make([]uint64, cfg.Shards),
		retiredDrops: make([]uint64, cfg.Shards),
		replaced:     make([]uint64, cfg.Shards),
		draining:     make([]bool, cfg.Shards),
	}
	var wg sync.WaitGroup
	for i := range m.slots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := Open(mctx, m.shardConfig(i))
			m.mu.Lock()
			m.slots[i] = s
			m.mu.Unlock()
		}(i)
	}
	wg.Wait()
	m.registerMetrics()
	m.log.Info("shards open", "count", cfg.Shards, "dir", cfg.Dir)
	return m
}

// registerMetrics binds the per-slot func families once per slot: each
// reads the slot's current shard at scrape time, and the counters fold
// in the slot's retired shards so they stay monotonic across
// drain/replace.
func (m *Manager) registerMetrics() {
	reg := m.cfg.Metrics
	restarts := reg.CounterFuncVec("seer_shard_restarts_total",
		"Stage restarts within the shard's supervision tree (monotonic across drain/replace).",
		"shard")
	depth := reg.GaugeFuncVec("seer_queue_depth",
		"Events waiting in the shard's ingestion queue.", "shard")
	capacity := reg.GaugeFuncVec("seer_queue_capacity",
		"Capacity of the shard's ingestion queue.", "shard")
	shed := reg.CounterFuncVec("seer_queue_shed_total",
		"Events shed by the shard's bounded queue under overload (monotonic across drain/replace).",
		"shard")
	for i := range m.slots {
		i, label := i, strconv.Itoa(i)
		restarts.Register(func() float64 {
			m.mu.RLock()
			defer m.mu.RUnlock()
			return float64(m.retired[i] + m.slots[i].Restarts())
		}, label)
		depth.Register(func() float64 { return float64(m.Shard(i).queue.Len()) }, label)
		capacity.Register(func() float64 { return float64(m.Shard(i).queue.Cap()) }, label)
		shed.Register(func() float64 {
			m.mu.RLock()
			defer m.mu.RUnlock()
			return float64(m.retiredDrops[i] + m.slots[i].queue.Drops())
		}, label)
	}
}

// StaleServed returns the process-wide count of reads answered stale
// from a shard's last published body (monotonic across drain/replace)
// — the stale half of the SLO's bad events.
func (m *Manager) StaleServed() uint64 { return staleCounter(m.cfg.Metrics).Value() }

// shardConfig derives slot i's shard Config from the manager's Runtime.
func (m *Manager) shardConfig(i int) Config {
	rt := m.cfg.Runtime
	return Config{
		ID:              i,
		Dir:             m.cfg.Dir,
		Params:          rt.Params,
		Seed:            m.cfg.Seed + int64(i),
		Metrics:         m.cfg.Metrics,
		Tracer:          m.cfg.Tracer,
		Logger:          m.cfg.Logger,
		QueueCap:        rt.Daemon.QueueCap,
		QueueBlock:      time.Duration(rt.Daemon.QueueBlockMS) * time.Millisecond,
		BudgetBytes:     rt.Daemon.HoardBudgetMB << 20,
		CheckpointEvery: m.cfg.CheckpointEvery,
		Supervisor:      m.cfg.Supervisor,
		Rumor:           m.cfg.Rumor,
		Limits:          limitsFromRuntime(rt),
	}
}

// Len returns the slot count.
func (m *Manager) Len() int { return m.cfg.Shards }

// Route returns the shard currently serving user's slot.
func (m *Manager) Route(user string) *Shard {
	return m.Shard(m.ring.Slot(user))
}

// SlotFor returns user's slot index (stable across drains).
func (m *Manager) SlotFor(user string) int { return m.ring.Slot(user) }

// Shard returns slot i's current shard (nil when out of range).
func (m *Manager) Shard(i int) *Shard {
	if i < 0 || i >= m.cfg.Shards {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.slots[i]
}

// Shards snapshots the current shard of every slot.
func (m *Manager) Shards() []*Shard {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Shard, len(m.slots))
	copy(out, m.slots)
	return out
}

// Drain retires slot i's shard — stop intake, fold the queue, final
// fsync'd checkpoint — then opens a replacement in the same slot that
// replays the checkpoint, and swaps it in. Reads during the drain serve
// the retiring shard's stale cache; writes bounce with a transient
// error until the replacement swaps in (the gateway's retry absorbs the
// gap — zero event loss end to end). ctx bounds the drain; on error the
// slot is left on the closed shard WITHOUT a replacement built from a
// suspect checkpoint, and a later Drain call may retry once the cause
// (typically a wedged correlator) clears.
func (m *Manager) Drain(ctx context.Context, i int) error {
	m.mu.Lock()
	if i < 0 || i >= m.cfg.Shards {
		m.mu.Unlock()
		return fmt.Errorf("no such shard %d", i)
	}
	if m.draining[i] {
		m.mu.Unlock()
		return fmt.Errorf("shard %d: drain already in progress", i)
	}
	old := m.slots[i]
	if st := old.State(); st != Serving {
		m.mu.Unlock()
		return fmt.Errorf("shard %d: not serving (%s)", i, st)
	}
	m.draining[i] = true
	m.mu.Unlock()

	defer func() {
		m.mu.Lock()
		m.draining[i] = false
		m.mu.Unlock()
	}()

	m.log.Info("draining shard", "shard", i)
	if err := old.Drain(ctx); err != nil {
		return err
	}

	// Replay on the target: the replacement opens from the final
	// checkpoint the drain just wrote, picking up every folded event.
	repl := Open(m.ctx, m.shardConfig(i))
	m.mu.Lock()
	m.retired[i] += old.Restarts()
	m.retiredDrops[i] += old.queue.Drops()
	m.replaced[i]++
	m.slots[i] = repl
	m.mu.Unlock()
	m.log.Info("shard replaced", "shard", i, "events", repl.Events())
	return nil
}

// ApplyRuntime pushes hot-reloadable settings into every SERVING shard
// (a draining or closed shard is skipped — its replacement opens with
// the new runtime via shardConfig). Returns the slots skipped.
func (m *Manager) ApplyRuntime(rt config.Runtime) (skipped []int) {
	m.mu.Lock()
	m.cfg.Runtime = rt
	shards := make([]*Shard, len(m.slots))
	copy(shards, m.slots)
	m.mu.Unlock()
	for i, s := range shards {
		if !s.ApplyRuntime(rt) {
			skipped = append(skipped, i)
		}
	}
	return skipped
}

// Health aggregates shard health for the process probe. Bulkhead
// semantics: one bad shard degrades the process (operators should
// look), but only every shard being unavailable makes the process
// unavailable — neighbors are still answering.
func (m *Manager) Health() supervise.HealthState {
	worst, down := supervise.Healthy, 0
	shards := m.Shards()
	for _, s := range shards {
		switch s.Health() {
		case supervise.Unavailable:
			down++
			worst = supervise.Degraded
		case supervise.Degraded:
			worst = supervise.Degraded
		}
	}
	if len(shards) > 0 && down == len(shards) {
		return supervise.Unavailable
	}
	return worst
}

// Info is one slot's row in the /shards debug view.
type Info struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"`
	Health   string `json:"health"`
	Events   uint64 `json:"events"`
	Queue    int    `json:"queue"`
	QueueCap int    `json:"queue_cap"`
	Drops    uint64 `json:"queue_drops"`
	Restarts uint64 `json:"restarts"`
	Replaced uint64 `json:"replaced"`
	Stale    int64  `json:"stale_served"`
	Sheds    uint64 `json:"sheds"`
	Draining bool   `json:"draining,omitempty"`
	// Problems names the shard's unhealthy stages and probes.
	Problems []string `json:"problems,omitempty"`
}

// Report snapshots every slot for /shards and seerctl shards.
func (m *Manager) Report() []Info {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Info, len(m.slots))
	for i, s := range m.slots {
		depth, capacity, drops := s.QueueStats()
		health := s.Health()
		out[i] = Info{
			Shard:    i,
			State:    s.State().String(),
			Health:   health.String(),
			Events:   s.Events(),
			Queue:    depth,
			QueueCap: capacity,
			Drops:    drops,
			Restarts: m.retired[i] + s.Restarts(),
			Replaced: m.replaced[i],
			Stale:    s.StaleServed(),
			Sheds:    s.Limiter().Sheds(),
			Draining: m.draining[i],
		}
		if health != supervise.Healthy {
			out[i].Problems = s.Problems()
		}
	}
	return out
}

// Close drains every shard concurrently (process shutdown: each writes
// its final checkpoint) and releases the manager. It returns the
// shards' drain errors joined — a failed final checkpoint means learned
// state was lost, which the caller must be able to report.
func (m *Manager) Close() error {
	shards := m.Shards()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			errs[i] = s.Close()
		}(i, s)
	}
	wg.Wait()
	m.cancel()
	return errors.Join(errs...)
}
