// Package daemon is the process scaffold SEER's daemons share. seerd
// and rumord run on the same code for everything that is not their
// own: flags from the shared knob table plus a watched -config file,
// one hot-reload path, /debug/config, the observability endpoints and
// pprof, supervised listener stages, SIGHUP, one health document, and
// the CheapRumor replication master behind its admission limiter. Each
// command adds only its own components: seerd its shards, gateway,
// strace ingest and SLO monitor; rumord the master mount alone.
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/fmg/seer/internal/admit"
	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/supervise"
)

// ConfigPoll is the config-file poll interval (a variable so tests can
// tighten it).
var ConfigPoll = time.Second

// Options is what a daemon starts from.
type Options struct {
	// Runtime is the startup runtime. Base is what the flags alone
	// produced: a reload re-parses the config file over it, so removing
	// a file line reverts that setting to its flag (or default) value.
	Runtime config.Runtime
	Base    config.Runtime
	// ConfigPath is the watched config file ("" = no watcher stage) and
	// ConfigData its content as applied at startup.
	ConfigPath string
	ConfigData []byte
	// Supervisor tunes the process supervision tree.
	Supervisor supervise.Config
	// Logger is the process logger (nil = a fresh one on stderr).
	Logger *slog.Logger
}

// ParseFlags registers the knobs mask selects as flags over rt, plus
// -config, parses the command line, applies the config file over the
// flags, validates the result, and sets log's level and format. A bad
// flag, file, or value exits with status 2, its message prefixed by
// name.
func ParseFlags(name string, log *slog.Logger, rt config.Runtime, mask config.DaemonMask) Options {
	config.RegisterFlags(flag.CommandLine, &rt, mask)
	cfgPath := flag.String("config", "",
		"runtime config file: flag-style `key value` lines plus `param Name Value`; "+
			"watched for live reloads while serving")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(2)
	}
	opts := Options{Base: rt, ConfigPath: *cfgPath, Logger: log}
	if *cfgPath != "" {
		data, err := os.ReadFile(*cfgPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			log.Warn("config file missing; starting from flags", "path", *cfgPath)
		case err != nil:
			fail(err)
		default:
			if err := config.ApplyFile(&rt, bytes.NewReader(data)); err != nil {
				fail(fmt.Errorf("%s: %w", *cfgPath, err))
			}
			opts.ConfigData = data
		}
	}
	if err := rt.Validate(); err != nil {
		fail(err)
	}
	obs.ConfigureLogger(log, rt.Daemon.LogLevel, rt.Daemon.LogFormat) // Validate refused a bad level
	opts.Runtime = rt
	return opts
}

// Daemon is the process half of one running daemon: its registry,
// tracer, config store, supervisor and flight recorder, and the stages
// and endpoints every daemon serves.
type Daemon struct {
	Reg    *obs.Registry
	Tracer *obs.Tracer
	Store  *config.Store
	Sup    *supervise.Supervisor
	// Flight is the flight recorder, nil without -flight-dir. A daemon
	// may add its own sources before serving.
	Flight *obs.FlightRecorder
	// Apply, when set, pushes an accepted reload into the daemon's own
	// components and returns extra key/value pairs for the reload log
	// line. Set it before the stages start.
	Apply func(next config.Runtime) []any

	log      *slog.Logger
	base     config.Runtime
	cfgPath  string
	watcher  *supervise.Watcher
	rumorLim *admit.Limiter
	restarts *obs.CounterFuncVec

	mReloadApplied  *obs.Counter
	mReloadRejected *obs.Counter

	mu    sync.Mutex
	addrs map[string]net.Addr // bound listener address by stage name
}

// New builds the scaffold for opts: the registry with the process
// series, the tracer, the config store, the supervisor, the flight
// recorder, and, with a config file, the "confwatch" stage. Add the
// daemon's own stages and listeners, then Serve.
func New(opts Options) *Daemon {
	rt := opts.Runtime
	d := &Daemon{
		log:     opts.Logger,
		Reg:     obs.NewRegistry(),
		Tracer:  obs.NewTracer(256),
		Store:   config.NewStore(rt),
		base:    opts.Base,
		cfgPath: opts.ConfigPath,
		addrs:   make(map[string]net.Addr),
	}
	if d.log == nil {
		d.log = obs.NewLogger(nil)
	}
	d.Tracer.SetEnabled(rt.Daemon.Tracing)
	sc := opts.Supervisor
	if sc.OnEvent == nil {
		log := d.log.With("component", "supervise")
		sc.OnEvent = func(e supervise.Event) {
			if e.Err != nil {
				log.Error("stage failure", "stage", e.Stage, "kind", e.Kind, "err", e.Err)
			} else {
				log.Info("stage lifecycle", "stage", e.Stage, "kind", e.Kind,
					"restarts", e.Restarts)
			}
		}
	}
	d.Sup = supervise.New(sc)

	d.restarts = d.Reg.CounterFuncVec("seer_stage_restarts_total",
		"Stage restarts performed by the process supervisor.", "stage")
	reloads := d.Reg.CounterVec("seer_config_reloads_total",
		"Config hot-reload attempts by result.", "result")
	d.mReloadApplied = reloads.With("applied")
	d.mReloadRejected = reloads.With("rejected")
	d.Reg.GaugeFunc("seer_config_generation",
		"Active config generation (1 = the startup configuration).",
		func() float64 { return float64(d.Store.Generation()) })
	d.Reg.GaugeFunc("seer_health_state",
		"Aggregate process health, probes included (0 healthy, 1 degraded, 2 unavailable).",
		func() float64 { return float64(d.Sup.Health()) })

	if rt.Daemon.FlightDir != "" {
		d.buildFlight(rt)
	}
	if opts.ConfigPath != "" {
		d.watcher = supervise.NewWatcher(opts.ConfigPath, ConfigPoll, d.applyConfig)
		d.watcher.MarkApplied(opts.ConfigData)
		d.AddStage("confwatch", d.watcher.Stage())
	}
	return d
}

// AddStage registers a supervised process stage and its
// seer_stage_restarts_total series.
func (d *Daemon) AddStage(name string, fn supervise.StageFunc, opts ...supervise.StageOption) {
	d.Sup.Add(name, fn, opts...)
	d.restarts.Register(func() float64 {
		return float64(d.Sup.StageRestarts()[name])
	}, name)
}

// buildFlight wires the flight recorder: bundles carry the span ring, a
// metrics snapshot and the active config generation, plus the goroutine
// dump and CPU profile the recorder itself contributes.
func (d *Daemon) buildFlight(rt config.Runtime) {
	fr := obs.NewFlightRecorder(rt.Daemon.FlightDir)
	fr.AddSource("traces.json", d.Tracer.WriteJSON)
	fr.AddSource("metrics.prom", d.Reg.WritePrometheus)
	fr.AddSource("config.txt", func(w io.Writer) error {
		fmt.Fprintf(w, "# generation %d\n", d.Store.Generation())
		for _, kv := range config.Describe(*d.Store.Get()) {
			fmt.Fprintf(w, "%s %s\n", kv.Key, kv.Value)
		}
		return nil
	})
	d.Flight = fr
}

// applyConfig is the hot-reload path: parse data over the flag-derived
// base runtime, validate the result as a whole, refuse structural
// changes, then swap the store and push every hot setting into the live
// components — the logger, the tracer, the rumor limiter, and the
// daemon's own through Apply. A rejected reload leaves the active
// config serving untouched; both outcomes are counted and recorded for
// /debug/config.
func (d *Daemon) applyConfig(data []byte) error {
	next := d.base
	err := func() error {
		if err := config.ApplyFile(&next, bytes.NewReader(data)); err != nil {
			return err
		}
		if err := next.Validate(); err != nil {
			return err
		}
		if diffs := config.StructuralDiff(*d.Store.Get(), next); len(diffs) > 0 {
			return fmt.Errorf("structural settings cannot change on a live reload: %s",
				strings.Join(diffs, ", "))
		}
		return nil
	}()
	if err != nil {
		d.Store.RecordReload(err)
		d.mReloadRejected.Inc()
		d.log.Warn("config reload rejected; active config unchanged",
			"component", "confwatch", "err", err)
		return err
	}
	changed := config.Changed(*d.Store.Get(), next)
	gen := d.Store.Swap(next)
	obs.ConfigureLogger(d.log, next.Daemon.LogLevel, next.Daemon.LogFormat)
	d.Tracer.SetEnabled(next.Daemon.Tracing)
	if d.rumorLim != nil {
		d.rumorLim.SetLimits(rumorLimits(next))
	}
	kvs := []any{"component", "confwatch", "generation", gen, "changed", strings.Join(changed, " ")}
	if d.Apply != nil {
		kvs = append(kvs, d.Apply(next)...)
	}
	d.Store.RecordReload(nil)
	d.mReloadApplied.Inc()
	d.log.Info("config reloaded", kvs...)
	return nil
}

// debugConfigResponse is the /debug/config body.
type debugConfigResponse struct {
	Generation uint64               `json:"generation"`
	ConfigFile string               `json:"config_file,omitempty"`
	Settings   []config.KV          `json:"settings"`
	LastReload *config.ReloadStatus `json:"last_reload,omitempty"`
}

// handleDebugConfig serves the active configuration and the
// outcome of the last reload attempt. GET only; other methods get 405
// with Allow.
func (d *Daemon) handleDebugConfig(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed; use GET", http.StatusMethodNotAllowed)
		return
	}
	resp := debugConfigResponse{
		Generation: d.Store.Generation(),
		ConfigFile: d.cfgPath,
		Settings:   config.Describe(*d.Store.Get()),
	}
	if st := d.Store.LastReload(); !st.At.IsZero() {
		resp.LastReload = &st
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// Mux returns a fresh mux carrying the observability endpoints: the
// supervisor's health document at /healthz and /readyz, /metrics,
// /debug/traces, /debug/config, and /debug/flight with a recorder.
// None of them sits behind routing or admission, so an overloaded
// daemon stays inspectable.
func (d *Daemon) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", d.Sup.HealthHandler(false))
	mux.HandleFunc("/readyz", d.Sup.HealthHandler(true))
	mux.Handle("/metrics", d.Reg.Handler())
	mux.Handle("/debug/traces", d.Tracer.Handler())
	mux.HandleFunc("/debug/config", d.handleDebugConfig)
	if d.Flight != nil {
		mux.Handle("/debug/flight", d.Flight.Handler())
	}
	return mux
}

// DebugMux is Mux plus the net/http/pprof profiles, registered
// explicitly; nothing is served from the default mux.
func (d *Daemon) DebugMux() *http.ServeMux {
	mux := d.Mux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// rumorLimits is the replication master's admission policy.
func rumorLimits(rt config.Runtime) admit.Limits {
	return admit.Limits{
		MaxInFlight: rt.Admit.RumorMaxInFlight,
		MaxLatency:  time.Duration(rt.Admit.MaxLatencyMS) * time.Millisecond,
		RetryAfter:  time.Duration(rt.Admit.RetryAfterSec) * time.Second,
	}
}

// MountRumor mounts a CheapRumor replication master under /rumor/ on
// mux, behind its own admission limiter: excess concurrency is shed
// with 429 + Retry-After, reloads retune the limits, and the
// "rumor-admission" probe degrades health while a shed is recent. Call
// it at most once, before the stages start.
func (d *Daemon) MountRumor(mux *http.ServeMux) *replic.Master {
	master := replic.NewMasterOn(d.Reg)
	d.rumorLim = admit.New("rumor", d.Reg, nil)
	d.rumorLim.SetLimits(rumorLimits(*d.Store.Get()))
	d.Sup.AddProbe("rumor-admission", d.rumorLim.Probe)
	mux.Handle("/rumor/", d.rumorLim.Wrap(replic.TracedMasterHandler("/rumor", master, d.Tracer)))
	return master
}

// AddListeners adds the listener stages: the critical "http" stage
// serving main on the listen address and, with -debug-addr, the "debug"
// stage serving debug.
func (d *Daemon) AddListeners(main, debug *http.ServeMux) {
	rt := d.Store.Get().Daemon
	d.AddStage("http", d.serverStage("http", rt.Listen, main), supervise.Critical())
	if rt.DebugAddr != "" {
		d.AddStage("debug", d.serverStage("debug", rt.DebugAddr, debug))
	}
}

// serverStage returns a stage running an HTTP server on addr: listen,
// serve until ctx ends, then shut down gracefully (draining in-flight
// requests). A listener or serve error restarts the stage under the
// supervisor's backoff instead of killing the process.
func (d *Daemon) serverStage(name, addr string, h http.Handler) supervise.StageFunc {
	return func(ctx context.Context) error {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.addrs[name] = ln.Addr()
		d.mu.Unlock()
		srv := &http.Server{
			Handler:           h,
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

// Serve runs the daemon until ctx ends: it starts the stages, relays
// SIGHUP to an immediate config-file check, logs the bound addresses
// with kvs, and returns once every stage has stopped.
func (d *Daemon) Serve(ctx context.Context, kvs ...any) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	relayed := make(chan struct{})
	go func() {
		defer close(relayed)
		for {
			select {
			case <-hup:
				if d.watcher != nil {
					d.watcher.Kick()
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	d.Sup.Start(ctx)
	// Wait for the listener to bind so the startup line reports the
	// resolved address (":0" becomes a concrete port).
	for i := 0; i < 100 && d.Addr() == ""; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	d.log.Info("serving", append([]any{"addr", d.Addr()}, kvs...)...)
	if d.Store.Get().Daemon.DebugAddr != "" {
		d.log.Info("debug endpoints up", "addr", d.DebugAddr())
	}
	<-ctx.Done()
	d.log.Info("signal received, shutting down")
	d.Sup.Wait()
	<-relayed
}

// Addr returns the bound main listener address ("" before it is up).
func (d *Daemon) Addr() string { return d.boundAddr("http") }

// DebugAddr returns the bound debug listener address.
func (d *Daemon) DebugAddr() string { return d.boundAddr("debug") }

func (d *Daemon) boundAddr(stage string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if a := d.addrs[stage]; a != nil {
		return a.String()
	}
	return ""
}
