package main

// seerd's supervised runtime. Every deployment is a shard.Manager behind
// the consistent-hash gateway (internal/shard): -shards N hosts N
// fault-isolated user shards, and the default single slot is the
// paper's one-user daemon, fed from its strace input. Each shard owns
// its bounded queue, correlator with its warm cluster cache, admission
// limiter, health probes, and snapshot ladder. The process around them
// — listeners, config watcher and reload path, health document,
// observability endpoints, flight recorder, the embedded -rumor master
// — is the scaffold rumord runs on too (internal/daemon); this file
// adds seerd's own stages: the strace tailer (one slot only) and the
// SLO monitor.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/daemon"
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

// SLO shape: the latency above which a request is "bad" for its
// objective, and the promised good fraction. Variables so the tests can
// tighten them without waiting out production windows.
var (
	sloPlanLatency  = 500 * time.Millisecond
	sloRumorLatency = 250 * time.Millisecond
	sloTarget       = 0.99
)

// pipelineConfig wires a pipeline: the process options, plus the
// shards' checkpoint interval (0 = the default). The supervisor config
// tunes every shard's tree as well as the process tree.
type pipelineConfig struct {
	daemon.Options
	checkpointEvery time.Duration
}

// pipeline is seerd: the shard manager and gateway on the shared
// daemon scaffold. The shards supervise themselves; the process
// supervisor sees them through its "shards" probe.
type pipeline struct {
	*daemon.Daemon
	mgr *shard.Manager
	gw  *shard.Gateway

	// rumor is the upstream replication client (-rumor-url); master is
	// the embedded replication master (-rumor). Each is nil when its
	// flag is off.
	rumor  *replic.RemoteRumor
	master *replic.Master
	slo    *slo.Monitor

	// wrapTail, when set, decorates the tailer's file reader (the chaos
	// tests' stall and panic injection point).
	wrapTail func(io.Reader) io.Reader
	// handoff is where the tailer's first run resumes: the end of the
	// trace bootstrap read (nil = the end of the file when it opens).
	handoff *tailHandoff
}

// newPipeline opens the shards and builds the process stage tree. Call
// Serve to serve, and close to drain every shard to its final
// checkpoint.
func newPipeline(cfg pipelineConfig) *pipeline {
	rt := cfg.Runtime
	if cfg.checkpointEvery <= 0 {
		cfg.checkpointEvery = checkpointEvery
	}
	cfg.Logger = logger
	d := daemon.New(cfg.Options)
	p := &pipeline{Daemon: d}
	if rt.Daemon.RumorURL != "" {
		p.rumor = replic.NewRemoteRumor(rt.Daemon.RumorURL, nil).
			InstrumentOn(d.Reg).TraceOn(d.Tracer)
	}
	// The shards outlive the process stages: close drains them after the
	// listeners and the tailer have stopped.
	p.mgr = shard.NewManager(context.Background(), shard.ManagerConfig{
		Shards:          rt.Daemon.Shards,
		Dir:             rt.Daemon.ShardDir,
		Runtime:         rt,
		Seed:            1,
		Metrics:         d.Reg,
		Tracer:          d.Tracer,
		Logger:          logger,
		Supervisor:      cfg.Supervisor,
		CheckpointEvery: cfg.checkpointEvery,
		Rumor:           p.rumor,
	})
	p.gw = shard.NewGateway(p.mgr, shard.PolicyFromRuntime(rt))
	d.Apply = p.applyRuntime
	if d.Flight != nil {
		d.Flight.AddSource("shards.json", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(p.mgr.Report())
		})
	}
	p.buildSLO()

	if rt.Daemon.Shards == 1 && rt.Daemon.Follow && rt.Daemon.Strace != "-" {
		d.AddStage("tailer", p.tailStage)
	}
	// The gateway owns every path the observability endpoints leave
	// free; those never sit behind routing or admission.
	mainMux, debugMux := d.Mux(), d.DebugMux()
	mainMux.Handle("/", p.gw.Handler())
	if rt.Daemon.Rumor {
		p.master = d.MountRumor(mainMux)
	}
	debugMux.HandleFunc("/shards", p.gw.HandleShards)
	d.AddListeners(mainMux, debugMux)
	d.AddStage("slo", func(ctx context.Context) error {
		p.slo.Run(ctx)
		return nil
	})
	d.Sup.AddProbe("slo", func() supervise.Probe {
		if br := p.slo.Breached(); len(br) > 0 {
			return supervise.Probe{State: supervise.Degraded,
				Detail: "error budget burning: " + strings.Join(br, " ")}
		}
		return supervise.Probe{State: supervise.Healthy}
	})
	d.Sup.AddProbe("shards", p.shardsProbe)
	return p
}

// applyRuntime pushes an accepted reload into the gateway and the
// shards. Manager.ApplyRuntime reaches only serving shards, so a SIGHUP
// landing mid-drain can neither resurrect the draining shard nor retune
// a closed one (the drain applies the new runtime to its replacement).
func (p *pipeline) applyRuntime(next config.Runtime) []any {
	p.gw.SetPolicy(shard.PolicyFromRuntime(next))
	skipped := p.mgr.ApplyRuntime(next)
	return []any{"shards_skipped", fmt.Sprint(skipped)}
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

// buildSLO assembles the burn-rate monitor over the gateway's request
// histograms (plus the rumor client's, when configured), at the slo
// package's default windows and threshold, and hooks a breach to an
// automatic flight capture. Bad events are route errors plus stale
// serves: a stale answer means the fresh path failed, so it burns
// budget even though the client got bytes. The stale count is
// process-wide, so a burn on one endpoint conservatively shows on both.
func (p *pipeline) buildSLO() {
	var cfg slo.Config
	if p.Flight != nil {
		cfg.OnBreach = func(name string, fast, slow float64) {
			dir, err := p.Flight.TryCapture(fmt.Sprintf(
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
	mon.InstrumentOn(p.Reg)
	p.slo = mon
}

// close drains every shard — stop its stages, fold its queue, write its
// final checkpoint — once nothing feeds it any more. It returns the
// shards' drain errors.
func (p *pipeline) close() error { return p.mgr.Close() }
