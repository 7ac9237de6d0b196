package config

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Runtime is the complete declarative configuration of a SEER daemon:
// the paper's algorithm Params plus the daemon tuning that used to live
// in scattered per-command flags (queue bounds, hoard budget, log
// shape) and the admission-control limits. One Runtime value describes
// everything an operator can set; the same knob table drives the
// command-line flags of seerd/rumord/seerctl, the watched config file,
// and the reload diff, so the three can never drift apart.
type Runtime struct {
	Params Params    `json:"params"`
	Daemon Daemon    `json:"daemon"`
	Admit  Admission `json:"admit"`
}

// Daemon collects the process-level tuning shared by seerd and rumord.
// Structural fields (listen addresses, input bindings) are fixed at
// startup; the rest can change on a live reload.
type Daemon struct {
	// Strace is the trace input path ("-" = stdin). Structural.
	Strace string `json:"strace,omitempty"`
	// Listen is the main HTTP listen address. Structural.
	Listen string `json:"listen,omitempty"`
	// DebugAddr is the optional pprof/debug listener. Structural.
	DebugAddr string `json:"debug_addr,omitempty"`
	// Follow keeps tailing the strace file. Structural.
	Follow bool `json:"follow,omitempty"`
	// Rumor mounts the replication master under /rumor/. Structural.
	Rumor bool `json:"rumor,omitempty"`
	// Shards is how many user shards seerd hosts behind the gateway
	// (≥1; with one, the strace input feeds it). Structural.
	Shards int `json:"shards,omitempty"`
	// ShardDir is the directory holding per-shard snapshots
	// (shard-NNN.db); "" disables checkpointing. Structural.
	ShardDir string `json:"shard_dir,omitempty"`
	// RumorURL points the daemon at an upstream replication master
	// (e.g. http://host:7078/rumor): fresh /hoard answers pre-fetch
	// their head against it, traced end to end. Structural.
	RumorURL string `json:"rumor_url,omitempty"`
	// Tracing toggles span recording; off, /debug/traces and exemplars
	// stop accumulating but keep serving what was recorded. Hot.
	Tracing bool `json:"tracing"`
	// SLOFastWindowSec / SLOSlowWindowSec are the burn-rate windows
	// (page-fast, confirm-slow). Structural.
	SLOFastWindowSec int `json:"slo_fast_window_sec,omitempty"`
	SLOSlowWindowSec int `json:"slo_slow_window_sec,omitempty"`
	// SLOBurnThreshold is the fast-window burn rate that marks an
	// objective breached (degraded health, flight capture). Structural.
	SLOBurnThreshold int `json:"slo_burn_threshold,omitempty"`
	// FlightDir is where flight-recorder bundles are written; ""
	// disables the recorder. Structural.
	FlightDir string `json:"flight_dir,omitempty"`
	// FlightMinIntervalSec debounces automatic (SLO-breach) flight
	// captures. Structural.
	FlightMinIntervalSec int `json:"flight_min_interval_sec,omitempty"`
	// GatewayRetries bounds gateway attempts per request across
	// re-routes on transient shard states. Hot.
	GatewayRetries int `json:"gateway_retries,omitempty"`
	// GatewayRetryBaseMS is the first retry backoff; it doubles per
	// attempt with jitter. Hot.
	GatewayRetryBaseMS int `json:"gateway_retry_base_ms,omitempty"`
	// GatewayTimeoutMS bounds one whole gateway request including
	// retries. Hot.
	GatewayTimeoutMS int `json:"gateway_timeout_ms,omitempty"`
	// DrainTimeoutMS bounds one shard drain/migrate. Hot.
	DrainTimeoutMS int `json:"drain_timeout_ms,omitempty"`
	// QueueCap bounds each shard's ingestion queue. Hot: a reload
	// resizes the live queues without dropping queued events.
	QueueCap int `json:"queue_cap"`
	// QueueBlockMS is how long an overflowing queue Put blocks before
	// shedding the oldest event. Hot.
	QueueBlockMS int `json:"queue_block_ms"`
	// HoardBudgetMB is the hoard budget served by /hoard, in MB. Hot.
	HoardBudgetMB int64 `json:"hoard_budget_mb"`
	// LogLevel is debug, info, warn, or error. Hot.
	LogLevel string `json:"log_level"`
	// LogFormat is text (key=value) or json. Hot.
	LogFormat string `json:"log_format"`
}

// Admission configures admission control: how many requests may run
// concurrently, which pressure signals shed early, and what the shed
// response advertises. Zero values disable a limit. All fields are
// hot-reloadable.
type Admission struct {
	// PlanMaxInFlight bounds the concurrent requests one shard admits
	// across its routed endpoints (/plan, /hoard, /clusters, /stats,
	// /miss, /events).
	PlanMaxInFlight int `json:"plan_max_inflight"`
	// RumorMaxInFlight bounds concurrent /rumor/ requests.
	RumorMaxInFlight int `json:"rumor_max_inflight"`
	// MaxQueuePct sheds a shard's requests while its ingestion queue is
	// at least this percent full (0 disables; 100 = completely full).
	MaxQueuePct int `json:"max_queue_pct"`
	// MaxLatencyMS sheds requests beyond the first in-flight one while
	// the endpoint's recent-latency EWMA exceeds this (0 disables).
	MaxLatencyMS int `json:"max_latency_ms"`
	// RetryAfterSec is the Retry-After value on 429 responses.
	RetryAfterSec int `json:"retry_after_sec"`
}

// DefaultRuntime returns the paper Params defaults plus production
// daemon tuning matching the historical flag defaults.
func DefaultRuntime() Runtime {
	return Runtime{
		Params: Defaults(),
		Daemon: Daemon{
			Strace:               "-",
			Shards:               1,
			QueueCap:             8192,
			QueueBlockMS:         100,
			HoardBudgetMB:        512,
			LogLevel:             "info",
			LogFormat:            "text",
			GatewayRetries:       4,
			GatewayRetryBaseMS:   25,
			GatewayTimeoutMS:     30_000,
			DrainTimeoutMS:       60_000,
			Tracing:              true,
			SLOFastWindowSec:     300,
			SLOSlowWindowSec:     3600,
			SLOBurnThreshold:     14,
			FlightMinIntervalSec: 60,
		},
		Admit: Admission{
			PlanMaxInFlight:  16,
			RumorMaxInFlight: 256,
			// MaxQueuePct and MaxLatencyMS default off: a degraded feeder
			// already sheds ingestion via the bounded queue, and turning
			// queue pressure into plan 429s is an operator policy choice.
			MaxQueuePct:   0,
			MaxLatencyMS:  0,
			RetryAfterSec: 1,
		},
	}
}

// Validate reports the first inconsistency across the whole Runtime.
func (r Runtime) Validate() error {
	if err := r.Params.Validate(); err != nil {
		return err
	}
	d := r.Daemon
	switch {
	case d.QueueCap < 1:
		return fmt.Errorf("config: queue capacity %d < 1", d.QueueCap)
	case d.QueueBlockMS < 0:
		return fmt.Errorf("config: negative queue-block-ms %d", d.QueueBlockMS)
	case d.HoardBudgetMB < 0:
		return fmt.Errorf("config: negative hoard budget %d MB", d.HoardBudgetMB)
	case d.Shards < 1:
		return fmt.Errorf("config: shard count %d < 1", d.Shards)
	case d.Shards > 1024:
		return fmt.Errorf("config: shard count %d > 1024", d.Shards)
	case d.GatewayRetries < 0:
		return fmt.Errorf("config: negative gateway retries %d", d.GatewayRetries)
	case d.GatewayRetryBaseMS < 0:
		return fmt.Errorf("config: negative gateway retry base %d ms", d.GatewayRetryBaseMS)
	case d.GatewayTimeoutMS < 0:
		return fmt.Errorf("config: negative gateway timeout %d ms", d.GatewayTimeoutMS)
	case d.DrainTimeoutMS < 0:
		return fmt.Errorf("config: negative drain timeout %d ms", d.DrainTimeoutMS)
	case d.SLOFastWindowSec < 0 || d.SLOSlowWindowSec < 0:
		return fmt.Errorf("config: negative SLO window")
	case d.SLOFastWindowSec > 0 && d.SLOSlowWindowSec > 0 && d.SLOFastWindowSec > d.SLOSlowWindowSec:
		return fmt.Errorf("config: SLO fast window %ds longer than slow window %ds",
			d.SLOFastWindowSec, d.SLOSlowWindowSec)
	case d.SLOBurnThreshold < 0:
		return fmt.Errorf("config: negative SLO burn threshold %d", d.SLOBurnThreshold)
	case d.FlightMinIntervalSec < 0:
		return fmt.Errorf("config: negative flight min interval %d", d.FlightMinIntervalSec)
	}
	switch d.LogLevel {
	case "debug", "info", "warn", "error":
	default:
		return fmt.Errorf("config: unknown log level %q", d.LogLevel)
	}
	switch d.LogFormat {
	case "", "text", "json":
	default:
		return fmt.Errorf("config: unknown log format %q (want text or json)", d.LogFormat)
	}
	a := r.Admit
	switch {
	case a.PlanMaxInFlight < 0 || a.RumorMaxInFlight < 0:
		return fmt.Errorf("config: negative admission in-flight limit")
	case a.MaxQueuePct < 0 || a.MaxQueuePct > 100:
		return fmt.Errorf("config: max-queue-pct %d outside [0,100]", a.MaxQueuePct)
	case a.MaxLatencyMS < 0:
		return fmt.Errorf("config: negative max-latency-ms %d", a.MaxLatencyMS)
	case a.RetryAfterSec < 0:
		return fmt.Errorf("config: negative retry-after %d", a.RetryAfterSec)
	}
	return nil
}

// DaemonMask selects which commands expose a knob.
type DaemonMask uint8

const (
	// ForSeerd marks knobs surfaced as seerd flags.
	ForSeerd DaemonMask = 1 << iota
	// ForRumord marks knobs surfaced as rumord flags.
	ForRumord
	// ForSeerctl marks knobs honoured when seerctl loads a config file.
	ForSeerctl
)

// Knob is one named tunable: the single definition behind a
// command-line flag, a config-file key, the /debug/config rendering,
// and the reload diff. Name doubles as both the flag name and the file
// key, so `seerd -queue 4096` and a `queue 4096` file line are the same
// setting.
type Knob struct {
	// Name is the flag name and config-file key.
	Name string
	// Usage is the flag help text.
	Usage string
	// Structural knobs cannot change on a live reload (listen
	// addresses, input bindings); a reload that alters one is rejected.
	Structural bool
	// Bool marks knobs registered as boolean flags (bare -follow).
	Bool bool
	// Secret knobs render as REDACTED at /debug/config. None of the
	// current knobs are secret; the hook exists so a future credential
	// field cannot leak by default.
	Secret bool
	// Daemons is the set of commands exposing this knob as a flag.
	Daemons DaemonMask
	// Set parses value into r; Get renders the current value.
	Set func(r *Runtime, value string) error
	Get func(r *Runtime) string
}

// intKnob builds a Set/Get pair over an int field.
func intKnob(f func(*Runtime) *int) (func(*Runtime, string) error, func(*Runtime) string) {
	return func(r *Runtime, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			*f(r) = n
			return nil
		}, func(r *Runtime) string {
			return strconv.Itoa(*f(r))
		}
}

// int64Knob builds a Set/Get pair over an int64 field.
func int64Knob(f func(*Runtime) *int64) (func(*Runtime, string) error, func(*Runtime) string) {
	return func(r *Runtime, v string) error {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return err
			}
			*f(r) = n
			return nil
		}, func(r *Runtime) string {
			return strconv.FormatInt(*f(r), 10)
		}
}

// strKnob builds a Set/Get pair over a string field.
func strKnob(f func(*Runtime) *string) (func(*Runtime, string) error, func(*Runtime) string) {
	return func(r *Runtime, v string) error {
			*f(r) = v
			return nil
		}, func(r *Runtime) string {
			return *f(r)
		}
}

// boolKnob builds a Set/Get pair over a bool field.
func boolKnob(f func(*Runtime) *bool) (func(*Runtime, string) error, func(*Runtime) string) {
	return func(r *Runtime, v string) error {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return err
			}
			*f(r) = b
			return nil
		}, func(r *Runtime) string {
			return strconv.FormatBool(*f(r))
		}
}

// knobs is the full knob table. Order is the /debug/config and
// flag-help order.
var knobs = buildKnobs()

func buildKnobs() []Knob {
	type spec struct {
		name, usage       string
		structural, bool_ bool
		daemons           DaemonMask
		set               func(*Runtime, string) error
		get               func(*Runtime) string
	}
	var out []Knob
	add := func(s spec) {
		out = append(out, Knob{
			Name: s.name, Usage: s.usage, Structural: s.structural,
			Bool: s.bool_, Daemons: s.daemons, Set: s.set, Get: s.get,
		})
	}
	var set func(*Runtime, string) error
	var get func(*Runtime) string

	set, get = strKnob(func(r *Runtime) *string { return &r.Daemon.Strace })
	add(spec{name: "strace", usage: "strace output file (- = stdin)",
		structural: true, daemons: ForSeerd, set: set, get: get})
	set, get = strKnob(func(r *Runtime) *string { return &r.Daemon.Listen })
	add(spec{name: "listen", usage: "HTTP listen address",
		structural: true, daemons: ForSeerd | ForRumord, set: set, get: get})
	set, get = strKnob(func(r *Runtime) *string { return &r.Daemon.DebugAddr })
	add(spec{name: "debug-addr", usage: "optional listen address for pprof and debug endpoints",
		structural: true, daemons: ForSeerd | ForRumord, set: set, get: get})
	set, get = boolKnob(func(r *Runtime) *bool { return &r.Daemon.Follow })
	add(spec{name: "follow", usage: "keep tailing the strace file for appended lines (requires -listen)",
		structural: true, bool_: true, daemons: ForSeerd, set: set, get: get})
	set, get = boolKnob(func(r *Runtime) *bool { return &r.Daemon.Rumor })
	add(spec{name: "rumor", usage: "serve the CheapRumor replication-master endpoints under /rumor/ (requires -listen)",
		structural: true, bool_: true, daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.Shards })
	add(spec{name: "shards", usage: "host this many fault-isolated user shards behind the gateway (with 1, the strace input feeds it; more require -listen)",
		structural: true, daemons: ForSeerd, set: set, get: get})
	set, get = strKnob(func(r *Runtime) *string { return &r.Daemon.ShardDir })
	add(spec{name: "shard-dir", usage: "directory for per-shard snapshot files shard-NNN.db: restored at start, checkpointed while serving and at exit (empty = no checkpoints)",
		structural: true, daemons: ForSeerd, set: set, get: get})
	set, get = strKnob(func(r *Runtime) *string { return &r.Daemon.RumorURL })
	add(spec{name: "rumor-url", usage: "upstream replication-master base URL for traced hoard-fill syncs (empty = no sync)",
		structural: true, daemons: ForSeerd, set: set, get: get})
	set, get = strKnob(func(r *Runtime) *string { return &r.Daemon.FlightDir })
	add(spec{name: "flight-dir", usage: "directory for flight-recorder bundles (empty = recorder disabled)",
		structural: true, daemons: ForSeerd | ForRumord, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.FlightMinIntervalSec })
	add(spec{name: "flight-min-interval-sec", usage: "min seconds between automatic (SLO-breach) flight captures",
		structural: true, daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.SLOFastWindowSec })
	add(spec{name: "slo-fast-window-sec", usage: "fast (paging) SLO burn-rate window in seconds",
		structural: true, daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.SLOSlowWindowSec })
	add(spec{name: "slo-slow-window-sec", usage: "slow (confirming) SLO burn-rate window in seconds",
		structural: true, daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.SLOBurnThreshold })
	add(spec{name: "slo-burn-threshold", usage: "fast-window burn rate that marks an SLO breached",
		structural: true, daemons: ForSeerd, set: set, get: get})

	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.QueueCap })
	add(spec{name: "queue", usage: "bounded ingestion queue capacity of each shard",
		daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.QueueBlockMS })
	add(spec{name: "queue-block-ms", usage: "how long an overflowing queue put blocks before shedding the oldest event",
		daemons: ForSeerd, set: set, get: get})
	set, get = int64Knob(func(r *Runtime) *int64 { return &r.Daemon.HoardBudgetMB })
	add(spec{name: "budget", usage: "hoard budget in MB",
		daemons: ForSeerd | ForSeerctl, set: set, get: get})
	set, get = strKnob(func(r *Runtime) *string { return &r.Daemon.LogLevel })
	add(spec{name: "log-level", usage: "log level: debug, info, warn, or error",
		daemons: ForSeerd | ForRumord, set: set, get: get})
	set, get = strKnob(func(r *Runtime) *string { return &r.Daemon.LogFormat })
	add(spec{name: "log-format", usage: "log format: text (key=value) or json",
		daemons: ForSeerd | ForRumord, set: set, get: get})
	set, get = boolKnob(func(r *Runtime) *bool { return &r.Daemon.Tracing })
	add(spec{name: "tracing", usage: "record request spans (-tracing=false disables; exemplars and /debug/traces stop accumulating)",
		bool_: true, daemons: ForSeerd | ForRumord, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.GatewayRetries })
	add(spec{name: "gateway-retries", usage: "max gateway attempts per request across shard re-routes on transient errors",
		daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.GatewayRetryBaseMS })
	add(spec{name: "gateway-retry-base-ms", usage: "first gateway retry backoff in ms (doubles per attempt, jittered)",
		daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.GatewayTimeoutMS })
	add(spec{name: "gateway-timeout-ms", usage: "whole-request gateway timeout in ms including retries",
		daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Daemon.DrainTimeoutMS })
	add(spec{name: "drain-timeout-ms", usage: "shard drain/migrate timeout in ms",
		daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Params.ClusterChurnPct })
	add(spec{name: "cluster-churn-threshold", usage: "incremental clustering churn threshold as a percent of tracked files; above it the correlator falls back to a full rebuild (0 = always rebuild)",
		daemons: ForSeerd, set: set, get: get})

	set, get = intKnob(func(r *Runtime) *int { return &r.Admit.PlanMaxInFlight })
	add(spec{name: "admit-plan-inflight", usage: "max concurrent requests per shard across its routed endpoints (0 = unlimited)",
		daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Admit.RumorMaxInFlight })
	add(spec{name: "admit-rumor-inflight", usage: "max concurrent /rumor/ requests (0 = unlimited)",
		daemons: ForSeerd | ForRumord, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Admit.MaxQueuePct })
	add(spec{name: "admit-queue-pct", usage: "shed a shard's requests while its ingestion queue is at least this percent full (0 = disabled)",
		daemons: ForSeerd, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Admit.MaxLatencyMS })
	add(spec{name: "admit-latency-ms", usage: "shed requests while recent endpoint latency exceeds this EWMA in ms (0 = disabled)",
		daemons: ForSeerd | ForRumord, set: set, get: get})
	set, get = intKnob(func(r *Runtime) *int { return &r.Admit.RetryAfterSec })
	add(spec{name: "admit-retry-after", usage: "Retry-After seconds advertised on shed (429) responses",
		daemons: ForSeerd | ForRumord, set: set, get: get})
	return out
}

// Knobs returns the knob table (shared; do not mutate).
func Knobs() []Knob { return knobs }

// KnobByName returns the named knob, or nil.
func KnobByName(name string) *Knob {
	for i := range knobs {
		if knobs[i].Name == name {
			return &knobs[i]
		}
	}
	return nil
}

// FlagSet is the subset of *flag.FlagSet RegisterFlags needs; it
// matches the standard library, so config does not import package flag.
type FlagSet interface {
	Func(name, usage string, fn func(string) error)
	BoolFunc(name, usage string, fn func(string) error)
}

// RegisterFlags binds every knob in mask onto fs, writing parsed values
// into r. Flag defaults in help text come from r's current values, so
// register after filling r with DefaultRuntime().
func RegisterFlags(fs FlagSet, r *Runtime, mask DaemonMask) {
	for i := range knobs {
		k := &knobs[i]
		if k.Daemons&mask == 0 {
			continue
		}
		usage := fmt.Sprintf("%s (default %q)", k.Usage, k.Get(r))
		if k.Bool {
			fs.BoolFunc(k.Name, usage, func(v string) error {
				if v == "" {
					v = "true"
				}
				return k.Set(r, v)
			})
		} else {
			fs.Func(k.Name, usage, func(v string) error { return k.Set(r, v) })
		}
	}
}

// ApplyFile applies a runtime config file to r: line-oriented
// `key value` pairs where key is any knob name, plus the control-file
// `param Name Value` directive for paper Params. Unknown keys are
// errors so typos cannot silently change production behaviour.
//
//	# seerd runtime config
//	queue 16384
//	budget 512
//	log-level debug
//	admit-plan-inflight 32
//	param KNear 4
func ApplyFile(r *Runtime, src io.Reader) error {
	sc := bufio.NewScanner(src)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		errf := func(format string, args ...any) error {
			return fmt.Errorf("runtime config: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch {
		case fields[0] == "param":
			if len(fields) != 3 {
				return errf("param wants name and value")
			}
			if err := setParam(&r.Params, fields[1], fields[2]); err != nil {
				return errf("%v", err)
			}
		default:
			k := KnobByName(fields[0])
			if k == nil {
				return errf("unknown key %q", fields[0])
			}
			if len(fields) != 2 {
				return errf("%s wants exactly one value", fields[0])
			}
			if err := k.Set(r, fields[1]); err != nil {
				return errf("%s: %v", fields[0], err)
			}
		}
	}
	return sc.Err()
}

// hotParams names the Params fields that take effect on a live reload:
// they are read at clustering/plan/fill time (or when new investigator
// relations register), so a SetParams + cache invalidation suffices.
// Every other param is frozen into the observer or neighbor table at
// construction and is treated as structural.
var hotParams = map[string]bool{
	"KNear":                 true,
	"KFar":                  true,
	"DirDistanceWeight":     true,
	"InvestigatorWeight":    true,
	"SkipUnfittingClusters": true,
	"HoardSize":             true,
}

// paramNames lists every Params field accepted by the `param`
// directive, in rendering order.
var paramNames = []string{
	"NeighborTableSize", "Window", "KNear", "KFar",
	"FrequentFileFraction", "FrequentFileMinRefs", "AgeLimit",
	"DeletionDelay", "MeaninglessRatio", "MeaninglessMinLearned",
	"DirDistanceWeight", "InvestigatorWeight", "SkipUnfittingClusters",
	"HoardSize", "AutoTempMinCreates", "AutoTempRatio", "DistanceMode",
}

// ParamNames returns the accepted `param` directive names.
func ParamNames() []string { return append([]string(nil), paramNames...) }

// ParamValue renders the named Params field, or "" for unknown names.
func ParamValue(p Params, name string) string {
	switch name {
	case "NeighborTableSize":
		return strconv.Itoa(p.NeighborTableSize)
	case "Window":
		return strconv.Itoa(p.Window)
	case "KNear":
		return strconv.Itoa(p.KNear)
	case "KFar":
		return strconv.Itoa(p.KFar)
	case "FrequentFileFraction":
		return strconv.FormatFloat(p.FrequentFileFraction, 'g', -1, 64)
	case "FrequentFileMinRefs":
		return strconv.Itoa(p.FrequentFileMinRefs)
	case "AgeLimit":
		return strconv.FormatUint(p.AgeLimit, 10)
	case "DeletionDelay":
		return strconv.Itoa(p.DeletionDelay)
	case "MeaninglessRatio":
		return strconv.FormatFloat(p.MeaninglessRatio, 'g', -1, 64)
	case "MeaninglessMinLearned":
		return strconv.Itoa(p.MeaninglessMinLearned)
	case "DirDistanceWeight":
		return strconv.FormatFloat(p.DirDistanceWeight, 'g', -1, 64)
	case "InvestigatorWeight":
		return strconv.FormatFloat(p.InvestigatorWeight, 'g', -1, 64)
	case "SkipUnfittingClusters":
		return strconv.FormatBool(p.SkipUnfittingClusters)
	case "HoardSize":
		return strconv.FormatInt(p.HoardSize, 10)
	case "AutoTempMinCreates":
		return strconv.Itoa(p.AutoTempMinCreates)
	case "AutoTempRatio":
		return strconv.FormatFloat(p.AutoTempRatio, 'g', -1, 64)
	case "DistanceMode":
		return strconv.Itoa(p.DistanceMode)
	}
	return ""
}

// StructuralDiff lists the structural settings that differ between old
// and new: structural knobs plus ingest-frozen params. A non-empty
// result means a reload from old to new must be rejected.
func StructuralDiff(old, new Runtime) []string {
	var diffs []string
	for i := range knobs {
		k := &knobs[i]
		if k.Structural && k.Get(&old) != k.Get(&new) {
			diffs = append(diffs, k.Name)
		}
	}
	for _, name := range paramNames {
		if !hotParams[name] && ParamValue(old.Params, name) != ParamValue(new.Params, name) {
			diffs = append(diffs, "param "+name)
		}
	}
	return diffs
}

// Changed lists every setting (knob or param) that differs between old
// and new, for reload logging.
func Changed(old, new Runtime) []string {
	var diffs []string
	for i := range knobs {
		k := &knobs[i]
		if k.Get(&old) != k.Get(&new) {
			diffs = append(diffs, k.Name)
		}
	}
	for _, name := range paramNames {
		if ParamValue(old.Params, name) != ParamValue(new.Params, name) {
			diffs = append(diffs, "param "+name)
		}
	}
	sort.Strings(diffs)
	return diffs
}

// Describe renders the active settings as an ordered list of
// name→value pairs for /debug/config, with secret knobs redacted.
func Describe(r Runtime) []KV {
	out := make([]KV, 0, len(knobs)+len(paramNames))
	for i := range knobs {
		k := &knobs[i]
		v := k.Get(&r)
		if k.Secret {
			v = "REDACTED"
		}
		out = append(out, KV{Key: k.Name, Value: v})
	}
	for _, name := range paramNames {
		out = append(out, KV{Key: "param " + name, Value: ParamValue(r.Params, name)})
	}
	return out
}

// KV is one rendered setting.
type KV struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}
