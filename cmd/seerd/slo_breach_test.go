package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/daemon"
	"github.com/fmg/seer/internal/obs/slo"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/supervise"
)

// The SLO acceptance chain, end to end on a real two-shard pipeline: an
// upstream failure burns the rumor-sync error budget, the fast-window
// burn rate crosses the page threshold, the slo health probe degrades
// the daemon, and the breach hook auto-captures a flight bundle with
// spans and profiles in it — all without a single sleep-based window
// (the monitor is ticked directly).
func TestSLOBreachDegradesHealthAndCapturesFlight(t *testing.T) {
	dir := t.TempDir()
	rt := config.DefaultRuntime()
	rt.Daemon.Shards = 2
	rt.Daemon.ShardDir = filepath.Join(dir, "shards")
	// A port nothing listens on: every sync round trip fails fast.
	rt.Daemon.RumorURL = "http://127.0.0.1:1/rumor"
	rt.Daemon.FlightDir = filepath.Join(dir, "flight")

	sp := newPipeline(pipelineConfig{Options: daemon.Options{Runtime: rt, Base: rt}})
	defer sp.close()
	if sp.Flight == nil {
		t.Fatal("flight recorder not built despite -flight-dir")
	}
	sp.Flight.CPUProfile = 50 * time.Millisecond // keep the capture fast

	// Baseline sample, then burn: every sync errors, so 100% of the
	// rumor-sync events are bad — far over any sane threshold.
	sp.slo.Tick()
	for i := 0; i < 5; i++ {
		if err := sp.rumor.Fetch(simfs.FileID(i + 1)); err == nil {
			t.Fatal("Fetch against a dead master unexpectedly succeeded")
		}
	}
	sp.slo.Tick()

	br := sp.slo.Breached()
	if len(br) != 1 || br[0] != "rumor-sync" {
		t.Fatalf("Breached() = %v, want [rumor-sync]", br)
	}
	if burn := sp.slo.Burn("rumor-sync", slo.DefaultFastWindow); burn < slo.DefaultThreshold {
		t.Fatalf("fast burn %.1f under threshold %d after total failure",
			burn, slo.DefaultThreshold)
	}

	// The burn is a live series on the pipeline's registry.
	var buf bytes.Buffer
	if err := sp.Reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `seer_slo_burn_rate{slo="rumor-sync",window="fast"}`) {
		t.Fatalf("seer_slo_burn_rate{slo=rumor-sync} missing from /metrics:\n%s", buf.String())
	}

	// The slo probe flips aggregate health to degraded, naming the
	// objective in the health document.
	if h := sp.Sup.Health(); h != supervise.Degraded {
		t.Fatalf("health = %v after breach, want degraded", h)
	}
	found := false
	for _, p := range sp.Sup.Report().Probes {
		if p.Name == "slo" && strings.Contains(p.Detail, "rumor-sync") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slo probe naming rumor-sync in %+v", sp.Sup.Report().Probes)
	}

	// The breach auto-captured a flight bundle: reason names the SLO,
	// and the bundle carries spans, metrics, config, shard states, the
	// goroutine dump, and the CPU profile.
	bundle := sp.Flight.Last()
	if bundle == "" {
		t.Fatal("no flight bundle captured on breach")
	}
	reason, err := os.ReadFile(filepath.Join(bundle, "reason.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reason), "slo-breach:rumor-sync") {
		t.Fatalf("bundle reason %q does not name the breached SLO", reason)
	}
	for _, name := range []string{
		"traces.json", "metrics.prom", "config.txt", "shards.json",
		"goroutines.txt", "cpu.pprof",
	} {
		fi, err := os.Stat(filepath.Join(bundle, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("bundle file %s is empty", name)
		}
	}

	// A second breach inside the debounce window must not capture again.
	if dir, err := sp.Flight.TryCapture("again"); err != nil || dir != "" {
		t.Fatalf("TryCapture inside MinInterval = (%q, %v), want debounced no-op", dir, err)
	}
}
