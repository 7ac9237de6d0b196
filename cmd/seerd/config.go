package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/fmg/seer/internal/admit"
	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/shard"
)

// applyConfig is the hot-reload path: parse data over the flag-derived
// base runtime (so removing a file line reverts that setting to its
// flag value), validate the result as a whole, refuse structural
// changes, then swap the store and push every hot setting into the live
// components. Shards get it through Manager.ApplyRuntime, which reaches
// only serving shards, so a SIGHUP landing mid-drain can neither
// resurrect the draining shard nor retune a closed one (its replacement
// opens with the new runtime instead). A rejected reload leaves the
// active config serving untouched; both outcomes are counted and
// recorded for /debug/config.
func (p *pipeline) applyConfig(data []byte) error {
	next := p.base
	err := func() error {
		if err := config.ApplyFile(&next, bytes.NewReader(data)); err != nil {
			return err
		}
		if err := next.Validate(); err != nil {
			return err
		}
		if diffs := config.StructuralDiff(*p.store.Get(), next); len(diffs) > 0 {
			return fmt.Errorf("structural settings cannot change on a live reload: %s",
				strings.Join(diffs, ", "))
		}
		return nil
	}()
	if err != nil {
		p.store.RecordReload(err)
		p.mReloadRejected.Inc()
		logger.Warn("config reload rejected; active config unchanged",
			"component", "confwatch", "err", err)
		return err
	}
	changed := config.Changed(*p.store.Get(), next)
	gen := p.store.Swap(next)
	if lv, lerr := obs.ParseLevel(next.Daemon.LogLevel); lerr == nil {
		logger.SetLevel(lv)
	}
	logger.SetJSON(next.Daemon.LogFormat == "json")
	p.tracer.SetEnabled(next.Daemon.Tracing)
	p.gw.SetPolicy(shard.PolicyFromRuntime(next))
	if p.rumorLim != nil {
		p.rumorLim.SetLimits(rumorLimits(next))
	}
	skipped := p.mgr.ApplyRuntime(next)
	p.store.RecordReload(nil)
	p.mReloadApplied.Inc()
	logger.Info("config reloaded", "component", "confwatch",
		"generation", gen, "changed", strings.Join(changed, " "),
		"shards_skipped", fmt.Sprint(skipped))
	return nil
}

// rumorLimits is the embedded replication master's admission policy.
func rumorLimits(rt config.Runtime) admit.Limits {
	return admit.Limits{
		MaxInFlight: rt.Admit.RumorMaxInFlight,
		MaxLatency:  time.Duration(rt.Admit.MaxLatencyMS) * time.Millisecond,
		RetryAfter:  time.Duration(rt.Admit.RetryAfterSec) * time.Second,
	}
}

// kickReload forces an immediate config-file check (SIGHUP); a no-op
// without a watched file.
func (p *pipeline) kickReload() {
	if p.watcher != nil {
		p.watcher.Kick()
	}
}

// debugConfigResponse is the /debug/config body.
type debugConfigResponse struct {
	Generation uint64               `json:"generation"`
	ConfigFile string               `json:"config_file,omitempty"`
	Settings   []config.KV          `json:"settings"`
	LastReload *config.ReloadStatus `json:"last_reload,omitempty"`
}

// handleDebugConfig serves the active (redacted) configuration and the
// outcome of the last reload attempt. GET only; other methods get 405
// with Allow, matching the other endpoints.
func (p *pipeline) handleDebugConfig(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed; use GET", http.StatusMethodNotAllowed)
		return
	}
	resp := debugConfigResponse{
		Generation: p.store.Generation(),
		ConfigFile: p.cfgPath,
		Settings:   config.Describe(*p.store.Get()),
	}
	if st := p.store.LastReload(); !st.At.IsZero() {
		resp.LastReload = &st
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}
