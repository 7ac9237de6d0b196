package main

// seerd's supervised runtime. Every deployment is a shard.Manager behind
// the consistent-hash gateway (internal/shard): -shards N hosts N
// fault-isolated user shards, and the default single slot is the
// paper's one-user daemon, fed from its strace input. Each shard owns
// its bounded queue, correlator with its warm cluster cache, admission
// limiter, health probes, and snapshot ladder; this file owns the
// process-level stages around them — the HTTP listeners, the strace
// tailer (one slot only), the config watcher, and the SLO monitor —
// plus the embedded -rumor master and the flight recorder.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"github.com/fmg/seer/internal/admit"
	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/obs/slo"
	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/supervise"
)

// logger is the process logger; main() applies -log-level/-log-format
// to it, and every component derives a tagged child from it.
var logger = obs.NewLogger(nil)

// checkpointEvery is the default snapshot interval of every shard.
const checkpointEvery = 5 * time.Minute

// Variables so the tests can tighten them without waiting out
// production windows.
var (
	// confPollEvery is the config-file poll interval.
	confPollEvery = time.Second
	// SLO shape: the latency above which a request is "bad" for its
	// objective, and the promised good fraction.
	sloPlanLatency  = 500 * time.Millisecond
	sloRumorLatency = 250 * time.Millisecond
	sloTarget       = 0.99
)

// pipelineConfig wires a pipeline.
type pipelineConfig struct {
	// rt is the startup runtime; base is the flag-derived runtime a
	// reload re-parses the config file over, so removing a file line
	// reverts that setting; cfgPath/cfgData are the watched file and its
	// startup contents (cfgPath "" = no watcher stage).
	rt      config.Runtime
	base    config.Runtime
	cfgPath string
	cfgData []byte

	// checkpointEvery (0 = the default) and supervisor tune every
	// shard's tree; supervisor also tunes the process tree.
	checkpointEvery time.Duration
	supervisor      supervise.Config
}

// pipeline is seerd: the shard manager and gateway plus the process
// stages. The shards supervise themselves; the process supervisor sees
// them through its "shards" probe.
type pipeline struct {
	mgr *shard.Manager
	gw  *shard.Gateway
	sup *supervise.Supervisor

	reg    *obs.Registry
	tracer *obs.Tracer
	// rumor is the upstream replication client (-rumor-url); master and
	// rumorLim serve the embedded replication master (-rumor). Each is
	// nil when its flag is off.
	rumor    *replic.RemoteRumor
	master   *replic.Master
	rumorLim *admit.Limiter
	slo      *slo.Monitor
	flight   *obs.FlightRecorder

	store   *config.Store
	base    config.Runtime
	cfgPath string
	watcher *supervise.Watcher

	mReloadApplied  *obs.Counter
	mReloadRejected *obs.Counter

	// wrapTail, when set, decorates the tailer's file reader (the chaos
	// tests' stall and panic injection point).
	wrapTail func(io.Reader) io.Reader

	// httpAddr/debugHTTPAddr hold the bound listener addresses once the
	// server stages are up (tests listen on :0).
	mu            sync.Mutex
	httpAddr      net.Addr
	debugHTTPAddr net.Addr
}

// newPipeline opens the shards and builds the process stage tree. Call
// start to serve, and close to drain every shard to its final
// checkpoint.
func newPipeline(cfg pipelineConfig) *pipeline {
	rt := cfg.rt
	if cfg.checkpointEvery <= 0 {
		cfg.checkpointEvery = checkpointEvery
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	tracer.SetEnabled(rt.Daemon.Tracing)
	p := &pipeline{
		reg:     reg,
		tracer:  tracer,
		store:   config.NewStore(rt),
		base:    cfg.base,
		cfgPath: cfg.cfgPath,
	}
	if rt.Daemon.RumorURL != "" {
		p.rumor = replic.NewRemoteRumor(rt.Daemon.RumorURL, nil).
			InstrumentOn(reg).TraceOn(tracer)
	}
	// The shards outlive the process stages: close drains them after the
	// listeners and the tailer have stopped.
	p.mgr = shard.NewManager(context.Background(), shard.ManagerConfig{
		Shards:          rt.Daemon.Shards,
		Dir:             rt.Daemon.ShardDir,
		Runtime:         rt,
		Seed:            1,
		Metrics:         reg,
		Tracer:          tracer,
		Logger:          logger,
		Supervisor:      cfg.supervisor,
		CheckpointEvery: cfg.checkpointEvery,
		Rumor:           p.rumor,
	})
	p.gw = shard.NewGateway(p.mgr, shard.PolicyFromRuntime(rt))
	if rt.Daemon.Rumor {
		p.master = replic.NewMasterOn(reg)
		p.rumorLim = admit.New("rumor", reg, nil)
		p.rumorLim.SetLimits(rumorLimits(rt))
	}
	p.buildFlight(rt)
	p.buildSLO(rt)

	sc := cfg.supervisor
	if sc.OnEvent == nil {
		slog := logger.With("component", "supervise")
		sc.OnEvent = func(e supervise.Event) {
			if e.Err != nil {
				slog.Error("stage failure", "stage", e.Stage, "kind", e.Kind,
					"err", supervise.FirstLine(e.Err.Error()))
			} else {
				slog.Info("stage lifecycle", "stage", e.Stage, "kind", e.Kind,
					"restarts", e.Restarts)
			}
		}
	}
	p.sup = supervise.New(sc)
	var stages []string
	addStage := func(name string, fn supervise.StageFunc, opts ...supervise.StageOption) {
		p.sup.Add(name, fn, opts...)
		stages = append(stages, name)
	}
	if rt.Daemon.Shards == 1 && rt.Daemon.Follow && rt.Daemon.Strace != "-" {
		addStage("tailer", p.tailStage)
	}
	addStage("http", p.serverStage(rt.Daemon.Listen, p.mainMux(), &p.httpAddr),
		supervise.Critical())
	if rt.Daemon.DebugAddr != "" {
		addStage("debug", p.serverStage(rt.Daemon.DebugAddr, p.debugMux(), &p.debugHTTPAddr))
	}
	if cfg.cfgPath != "" {
		p.watcher = supervise.NewWatcher(cfg.cfgPath, confPollEvery, p.applyConfig)
		p.watcher.MarkApplied(cfg.cfgData)
		addStage("confwatch", p.watcher.Stage())
	}
	addStage("slo", func(ctx context.Context) error {
		p.slo.Run(ctx)
		return nil
	})
	p.sup.AddProbe("slo", func() supervise.Probe {
		if br := p.slo.Breached(); len(br) > 0 {
			return supervise.Probe{State: supervise.Degraded,
				Detail: "error budget burning: " + strings.Join(br, " ")}
		}
		return supervise.Probe{State: supervise.Healthy}
	})
	p.sup.AddProbe("shards", p.shardsProbe)
	p.registerMetrics(stages)
	return p
}

// shardsProbe folds the shards into the process health: the manager's
// bulkhead verdict, detailed per slot with each unhealthy shard's
// failing stages and probes.
func (p *pipeline) shardsProbe() supervise.Probe {
	detail := make([]string, 0, p.mgr.Len())
	for _, info := range p.mgr.Report() {
		d := fmt.Sprintf("%d:%s/%s", info.Shard, info.State, info.Health)
		if len(info.Problems) > 0 {
			d += " [" + strings.Join(info.Problems, "; ") + "]"
		}
		detail = append(detail, d)
	}
	return supervise.Probe{State: p.mgr.Health(), Detail: strings.Join(detail, ", ")}
}

// registerMetrics publishes the process-level series; the shard
// families register in internal/shard.
func (p *pipeline) registerMetrics(stages []string) {
	reg := p.reg
	restarts := reg.CounterFuncVec("seer_stage_restarts_total",
		"Stage restarts performed by the process supervisor.", "stage")
	for _, name := range stages {
		name := name
		restarts.Register(func() float64 {
			return float64(p.sup.StageRestarts()[name])
		}, name)
	}
	reloads := reg.CounterVec("seer_config_reloads_total",
		"Config hot-reload attempts by result.", "result")
	p.mReloadApplied = reloads.With("applied")
	p.mReloadRejected = reloads.With("rejected")
	reg.GaugeFunc("seer_config_generation",
		"Active config generation (1 = the startup configuration).",
		func() float64 { return float64(p.store.Generation()) })
	reg.GaugeFunc("seer_health_state",
		"Aggregate process health, shards included (0 healthy, 1 degraded, 2 unavailable).",
		func() float64 { return float64(p.sup.Health()) })
}

// buildFlight wires the flight recorder (nil when flight-dir is unset):
// bundles carry the span ring, a metrics snapshot, the active config
// generation, and the shard states, plus the goroutine dump and CPU
// profile the recorder itself contributes.
func (p *pipeline) buildFlight(rt config.Runtime) {
	if rt.Daemon.FlightDir == "" {
		return
	}
	fr := obs.NewFlightRecorder(rt.Daemon.FlightDir)
	if rt.Daemon.FlightMinIntervalSec > 0 {
		fr.MinInterval = time.Duration(rt.Daemon.FlightMinIntervalSec) * time.Second
	}
	fr.AddSource("traces.json", p.tracer.WriteJSON)
	fr.AddSource("metrics.prom", p.reg.WritePrometheus)
	fr.AddSource("config.txt", func(w io.Writer) error {
		fmt.Fprintf(w, "# generation %d\n", p.store.Generation())
		for _, kv := range config.Describe(*p.store.Get()) {
			fmt.Fprintf(w, "%s %s\n", kv.Key, kv.Value)
		}
		return nil
	})
	fr.AddSource("shards.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(p.mgr.Report())
	})
	p.flight = fr
}

// buildSLO assembles the burn-rate monitor over the gateway's request
// histograms (plus the rumor client's, when configured) and hooks a
// breach to an automatic flight capture. Bad events are route errors
// plus stale serves: a stale answer means the fresh path failed, so it
// burns budget even though the client got bytes. The stale count is
// process-wide, so a burn on one endpoint conservatively shows on both.
func (p *pipeline) buildSLO(rt config.Runtime) {
	cfg := slo.Config{
		FastWindow: time.Duration(rt.Daemon.SLOFastWindowSec) * time.Second,
		SlowWindow: time.Duration(rt.Daemon.SLOSlowWindowSec) * time.Second,
		Threshold:  float64(rt.Daemon.SLOBurnThreshold),
	}
	if p.flight != nil {
		cfg.OnBreach = func(name string, fast, slow float64) {
			dir, err := p.flight.TryCapture(fmt.Sprintf(
				"slo-breach:%s fast=%.1f slow=%.1f", name, fast, slow))
			if err == nil && dir != "" {
				logger.Warn("SLO breach; flight bundle captured",
					"slo", name, "burn_fast", fmt.Sprintf("%.1f", fast), "bundle", dir)
			}
		}
	}
	mon := slo.New(cfg)
	for _, ep := range []string{"plan", "hoard"} {
		ep := ep
		mon.Add(slo.LatencyObjective(ep, p.gw.RequestHist(ep),
			sloPlanLatency.Seconds(), sloTarget,
			func() uint64 { return p.gw.RouteErrors(ep) + p.mgr.StaleServed() }))
	}
	if p.rumor != nil {
		mon.Add(slo.LatencyObjective("rumor-sync", p.rumor.RTTHist(),
			sloRumorLatency.Seconds(), sloTarget, p.rumor.ErrorCount))
	}
	mon.InstrumentOn(p.reg)
	p.slo = mon
}

// handleDebugSLO serves the burn-rate view seerctl slo renders.
func (p *pipeline) handleDebugSLO(w http.ResponseWriter, req *http.Request) {
	fast, slow := p.slo.Windows()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Threshold     float64               `json:"threshold"`
		FastWindowSec float64               `json:"fast_window_sec"`
		SlowWindowSec float64               `json:"slow_window_sec"`
		Objectives    []slo.ObjectiveStatus `json:"objectives"`
	}{p.slo.Threshold(), fast.Seconds(), slow.Seconds(), p.slo.Status()})
}

// obsEndpoints mounts the observability surface both listeners share,
// health included: one supervisor report, whose "shards" probe carries
// the per-slot detail.
func (p *pipeline) obsEndpoints(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", p.sup.HealthHandler(false))
	mux.HandleFunc("/readyz", p.sup.HealthHandler(true))
	mux.Handle("/metrics", p.reg.Handler())
	mux.Handle("/debug/traces", p.tracer.Handler())
	mux.HandleFunc("/debug/config", p.handleDebugConfig)
	mux.HandleFunc("/debug/slo", p.handleDebugSLO)
	if p.flight != nil {
		mux.Handle("/debug/flight", p.flight.Handler())
	}
}

// mainMux is the gateway surface plus the observability endpoints (the
// latter never behind routing or admission — an overloaded daemon must
// stay inspectable) and, with -rumor, the replication master.
func (p *pipeline) mainMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", p.gw.Handler())
	p.obsEndpoints(mux)
	if p.master != nil {
		mux.Handle("/rumor/", p.rumorLim.Wrap(
			replic.TracedMasterHandler("/rumor", p.master, p.tracer)))
	}
	return mux
}

// debugMux serves pprof, the /shards view, and the same observability
// surface. The pprof handlers are registered explicitly on a private
// mux; nothing is served from the default mux.
func (p *pipeline) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/shards", p.gw.HandleShards)
	p.obsEndpoints(mux)
	return mux
}

// serverStage returns a stage running an HTTP server on addr: listen,
// serve until ctx ends, then shut down gracefully (draining in-flight
// requests). A listener or serve error restarts the stage under the
// supervisor's backoff instead of killing the process.
func (p *pipeline) serverStage(addr string, mux *http.ServeMux, out *net.Addr) supervise.StageFunc {
	return func(ctx context.Context) error {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		p.mu.Lock()
		*out = ln.Addr()
		p.mu.Unlock()
		srv := &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		select {
		case <-ctx.Done():
			shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(shCtx)
			<-errc
			return nil
		case err := <-errc:
			return err
		}
	}
}

// start launches the process stages; they stop when ctx ends.
func (p *pipeline) start(ctx context.Context) { p.sup.Start(ctx) }

// wait blocks until every process stage has stopped.
func (p *pipeline) wait() { p.sup.Wait() }

// close drains every shard — stop its stages, fold its queue, write its
// final checkpoint — once nothing feeds it any more. It returns the
// shards' drain errors.
func (p *pipeline) close() error { return p.mgr.Close() }

// addr returns the bound main listener address ("" before it is up).
func (p *pipeline) addr() string { return p.boundAddr(&p.httpAddr) }

// debugAddr returns the bound debug listener address.
func (p *pipeline) debugAddr() string { return p.boundAddr(&p.debugHTTPAddr) }

func (p *pipeline) boundAddr(a *net.Addr) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if *a == nil {
		return ""
	}
	return (*a).String()
}
