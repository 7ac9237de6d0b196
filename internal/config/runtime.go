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
	// FlightDir is where flight-recorder bundles are written; ""
	// disables the recorder. Structural.
	FlightDir string `json:"flight_dir,omitempty"`
	// GatewayTimeoutMS bounds one whole gateway request including
	// retries. Hot.
	GatewayTimeoutMS int `json:"gateway_timeout_ms,omitempty"`
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
	// LogFormat is text (slog's key=value lines) or json. Hot.
	LogFormat string `json:"log_format"`
}

// Admission configures admission control: how many requests may run
// concurrently, which pressure signals shed early, and what the shed
// response advertises. Zero values disable a limit. All fields are
// hot-reloadable.
type Admission struct {
	// PlanMaxInFlight bounds the concurrent requests one shard admits
	// across its routed endpoints (/plan, /hoard, /clusters, /miss,
	// /events).
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
			Strace:           "-",
			Shards:           1,
			QueueCap:         8192,
			QueueBlockMS:     100,
			HoardBudgetMB:    512,
			LogLevel:         "info",
			LogFormat:        "text",
			GatewayTimeoutMS: 30_000,
			Tracing:          true,
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
	case d.GatewayTimeoutMS < 0:
		return fmt.Errorf("config: negative gateway timeout %d ms", d.GatewayTimeoutMS)
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

// knob is one named tunable: the single definition behind a
// command-line flag, a config-file key, the /debug/config rendering,
// and the reload diff. name doubles as both the flag name and the file
// key, so `seerd -queue 4096` and a `queue 4096` file line are the same
// setting.
type knob struct {
	name, usage string
	// structural knobs cannot change on a live reload (listen
	// addresses, input bindings); a reload that alters one is rejected.
	structural bool
	// isBool marks knobs registered as boolean flags (bare -follow).
	isBool bool
	// daemons is the set of commands exposing this knob as a flag.
	daemons DaemonMask
	field[Runtime]
}

// knobs is the full knob table. Order is the /debug/config and
// flag-help order.
var knobs = []knob{
	{name: "strace", usage: "strace output file (- = stdin)",
		structural: true, daemons: ForSeerd,
		field: fieldOf(func(r *Runtime) *string { return &r.Daemon.Strace }, parseString, formatString)},
	{name: "listen", usage: "HTTP listen address",
		structural: true, daemons: ForSeerd | ForRumord,
		field: fieldOf(func(r *Runtime) *string { return &r.Daemon.Listen }, parseString, formatString)},
	{name: "debug-addr", usage: "optional listen address for pprof and debug endpoints",
		structural: true, daemons: ForSeerd | ForRumord,
		field: fieldOf(func(r *Runtime) *string { return &r.Daemon.DebugAddr }, parseString, formatString)},
	{name: "follow", usage: "keep tailing the strace file for appended lines (requires -listen)",
		structural: true, isBool: true, daemons: ForSeerd,
		field: fieldOf(func(r *Runtime) *bool { return &r.Daemon.Follow }, strconv.ParseBool, strconv.FormatBool)},
	{name: "rumor", usage: "serve the CheapRumor replication-master endpoints under /rumor/ (requires -listen)",
		structural: true, isBool: true, daemons: ForSeerd,
		field: fieldOf(func(r *Runtime) *bool { return &r.Daemon.Rumor }, strconv.ParseBool, strconv.FormatBool)},
	{name: "shards", usage: "host this many fault-isolated user shards behind the gateway (with 1, the strace input feeds it; more require -listen)",
		structural: true, daemons: ForSeerd,
		field: fieldOf(func(r *Runtime) *int { return &r.Daemon.Shards }, strconv.Atoi, strconv.Itoa)},
	{name: "shard-dir", usage: "directory for per-shard snapshot files shard-NNN.db: restored at start, checkpointed while serving and at exit (empty = no checkpoints)",
		structural: true, daemons: ForSeerd,
		field: fieldOf(func(r *Runtime) *string { return &r.Daemon.ShardDir }, parseString, formatString)},
	{name: "rumor-url", usage: "upstream replication-master base URL for traced hoard-fill syncs (empty = no sync)",
		structural: true, daemons: ForSeerd,
		field: fieldOf(func(r *Runtime) *string { return &r.Daemon.RumorURL }, parseString, formatString)},
	{name: "flight-dir", usage: "directory for flight-recorder bundles (empty = recorder disabled)",
		structural: true, daemons: ForSeerd | ForRumord,
		field: fieldOf(func(r *Runtime) *string { return &r.Daemon.FlightDir }, parseString, formatString)},

	{name: "queue", usage: "bounded ingestion queue capacity of each shard",
		daemons: ForSeerd,
		field:   fieldOf(func(r *Runtime) *int { return &r.Daemon.QueueCap }, strconv.Atoi, strconv.Itoa)},
	{name: "queue-block-ms", usage: "how long an overflowing queue put blocks before shedding the oldest event",
		daemons: ForSeerd,
		field:   fieldOf(func(r *Runtime) *int { return &r.Daemon.QueueBlockMS }, strconv.Atoi, strconv.Itoa)},
	{name: "budget", usage: "hoard budget in MB",
		daemons: ForSeerd | ForSeerctl,
		field:   fieldOf(func(r *Runtime) *int64 { return &r.Daemon.HoardBudgetMB }, parseInt64, formatInt64)},
	{name: "log-level", usage: "log level: debug, info, warn, or error",
		daemons: ForSeerd | ForRumord,
		field:   fieldOf(func(r *Runtime) *string { return &r.Daemon.LogLevel }, parseString, formatString)},
	{name: "log-format", usage: "log format: text (key=value) or json",
		daemons: ForSeerd | ForRumord,
		field:   fieldOf(func(r *Runtime) *string { return &r.Daemon.LogFormat }, parseString, formatString)},
	{name: "tracing", usage: "record request spans (-tracing=false disables; exemplars and /debug/traces stop accumulating)",
		isBool: true, daemons: ForSeerd | ForRumord,
		field: fieldOf(func(r *Runtime) *bool { return &r.Daemon.Tracing }, strconv.ParseBool, strconv.FormatBool)},
	{name: "gateway-timeout-ms", usage: "whole-request gateway timeout in ms including retries",
		daemons: ForSeerd,
		field:   fieldOf(func(r *Runtime) *int { return &r.Daemon.GatewayTimeoutMS }, strconv.Atoi, strconv.Itoa)},
	{name: "cluster-churn-threshold", usage: "incremental clustering churn threshold as a percent of tracked files; above it the correlator falls back to a full rebuild (0 = always rebuild)",
		daemons: ForSeerd,
		field:   fieldOf(func(r *Runtime) *int { return &r.Params.ClusterChurnPct }, strconv.Atoi, strconv.Itoa)},

	{name: "admit-plan-inflight", usage: "max concurrent requests per shard across its routed endpoints (0 = unlimited)",
		daemons: ForSeerd,
		field:   fieldOf(func(r *Runtime) *int { return &r.Admit.PlanMaxInFlight }, strconv.Atoi, strconv.Itoa)},
	{name: "admit-rumor-inflight", usage: "max concurrent /rumor/ requests (0 = unlimited)",
		daemons: ForSeerd | ForRumord,
		field:   fieldOf(func(r *Runtime) *int { return &r.Admit.RumorMaxInFlight }, strconv.Atoi, strconv.Itoa)},
	{name: "admit-queue-pct", usage: "shed a shard's requests while its ingestion queue is at least this percent full (0 = disabled)",
		daemons: ForSeerd,
		field:   fieldOf(func(r *Runtime) *int { return &r.Admit.MaxQueuePct }, strconv.Atoi, strconv.Itoa)},
	{name: "admit-latency-ms", usage: "shed requests while recent endpoint latency exceeds this EWMA in ms (0 = disabled)",
		daemons: ForSeerd | ForRumord,
		field:   fieldOf(func(r *Runtime) *int { return &r.Admit.MaxLatencyMS }, strconv.Atoi, strconv.Itoa)},
	{name: "admit-retry-after", usage: "Retry-After seconds advertised on shed (429) responses",
		daemons: ForSeerd | ForRumord,
		field:   fieldOf(func(r *Runtime) *int { return &r.Admit.RetryAfterSec }, strconv.Atoi, strconv.Itoa)},
}

// knobByName returns the named knob, or nil.
func knobByName(name string) *knob {
	for i := range knobs {
		if knobs[i].name == name {
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
		if k.daemons&mask == 0 {
			continue
		}
		usage := fmt.Sprintf("%s (default %q)", k.usage, k.get(r))
		if k.isBool {
			fs.BoolFunc(k.name, usage, func(v string) error {
				if v == "" {
					v = "true"
				}
				return k.set(r, v)
			})
		} else {
			fs.Func(k.name, usage, func(v string) error { return k.set(r, v) })
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
			k := knobByName(fields[0])
			if k == nil {
				return errf("unknown key %q", fields[0])
			}
			if len(fields) != 2 {
				return errf("%s wants exactly one value", fields[0])
			}
			if err := k.set(r, fields[1]); err != nil {
				return errf("%s: %v", fields[0], err)
			}
		}
	}
	return sc.Err()
}

// diff lists the settings that differ between old and new, limited to
// the structural ones when structuralOnly is set: knobs by name, params
// as "param Name".
func diff(old, new Runtime, structuralOnly bool) []string {
	var diffs []string
	for i := range knobs {
		k := &knobs[i]
		if (k.structural || !structuralOnly) && k.get(&old) != k.get(&new) {
			diffs = append(diffs, k.name)
		}
	}
	for i := range params {
		p := &params[i]
		if (!p.hot || !structuralOnly) && p.get(&old.Params) != p.get(&new.Params) {
			diffs = append(diffs, "param "+p.name)
		}
	}
	return diffs
}

// StructuralDiff lists the structural settings that differ between old
// and new: structural knobs plus ingest-frozen params. A non-empty
// result means a reload from old to new must be rejected.
func StructuralDiff(old, new Runtime) []string { return diff(old, new, true) }

// Changed lists every setting (knob or param) that differs between old
// and new, for reload logging.
func Changed(old, new Runtime) []string {
	diffs := diff(old, new, false)
	sort.Strings(diffs)
	return diffs
}

// Describe renders the active settings as an ordered list of
// name→value pairs for /debug/config.
func Describe(r Runtime) []KV {
	out := make([]KV, 0, len(knobs)+len(params))
	for i := range knobs {
		out = append(out, KV{Key: knobs[i].name, Value: knobs[i].get(&r)})
	}
	for i := range params {
		out = append(out, KV{Key: "param " + params[i].name, Value: params[i].get(&r.Params)})
	}
	return out
}

// KV is one rendered setting.
type KV struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}
