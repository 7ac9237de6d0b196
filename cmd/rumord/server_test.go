package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/admit"
	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/daemon"
	"github.com/fmg/seer/internal/supervise"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServerAdmissionReloadAndDebugConfig drives rumord end to end on
// the shared daemon scaffold: /rumor/ sheds past the in-flight limit
// with 429 + Retry-After, the health document (stages http, debug and
// confwatch) flips to degraded while the shed is recent and recovers
// once the real shed window has passed, a hot reload raises the limit
// with zero restarts, a structural reload is rejected, and
// /debug/config serves (GET only) the active settings.
func TestServerAdmissionReloadAndDebugConfig(t *testing.T) {
	oldPoll := daemon.ConfigPoll
	daemon.ConfigPoll = 2 * time.Millisecond
	t.Cleanup(func() { daemon.ConfigPoll = oldPoll })

	cfgPath := filepath.Join(t.TempDir(), "rumord.conf")
	rt := config.DefaultRuntime()
	rt.Daemon.Listen = "127.0.0.1:0"
	rt.Daemon.DebugAddr = "127.0.0.1:0"
	rt.Admit.RumorMaxInFlight = 1
	rt.Admit.RetryAfterSec = 2
	d := newDaemon(daemon.Options{Runtime: rt, Base: rt, ConfigPath: cfgPath})
	ctx, cancel := context.WithCancel(context.Background())
	d.Sup.Start(ctx)
	defer func() {
		cancel()
		d.Sup.Wait()
	}()
	waitFor(t, "listeners up", 5*time.Second, func() bool { return d.Addr() != "" && d.DebugAddr() != "" })
	base := "http://" + d.Addr()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	get := func(url string) (int, string) {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	health := func() supervise.Report {
		var rep supervise.Report
		if _, body := get(base + "/healthz"); json.Unmarshal([]byte(body), &rep) != nil {
			t.Fatalf("/healthz is not the supervisor report: %s", body)
		}
		return rep
	}

	// --- One health document: the process stages, served on both
	// listeners. ---
	rep := health()
	var stages []string
	for _, st := range rep.Stages {
		stages = append(stages, st.Name)
	}
	if got := strings.Join(stages, " "); got != "confwatch http debug" || rep.State != "healthy" {
		t.Fatalf("health = %s with stages %q, want healthy with confwatch http debug", rep.State, got)
	}
	if code, _ := get("http://" + d.DebugAddr() + "/healthz"); code != http.StatusOK {
		t.Fatalf("debug /healthz: %d", code)
	}

	// --- /debug/config: GET works, other methods get 405 + Allow. ---
	var dc struct {
		Generation uint64      `json:"generation"`
		Settings   []config.KV `json:"settings"`
	}
	if _, body := get(base + "/debug/config"); json.Unmarshal([]byte(body), &dc) != nil {
		t.Fatalf("/debug/config: %s", body)
	}
	if dc.Generation != 1 {
		t.Fatalf("startup generation = %d, want 1", dc.Generation)
	}
	found := false
	for _, kv := range dc.Settings {
		if kv.Key == "admit-rumor-inflight" {
			found = kv.Value == "1"
		}
	}
	if !found {
		t.Fatal("admit-rumor-inflight 1 missing from /debug/config")
	}
	resp, err := client.Post(base+"/debug/config", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet {
		t.Fatalf("POST /debug/config: code=%d allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}

	// --- Saturate the single admission slot with a slow request (its
	// body never arrives, so the handler blocks in the read). ---
	pr, pw := io.Pipe()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		req, _ := http.NewRequest(http.MethodPost, base+"/rumor/version", pr)
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	defer func() {
		pw.Close()
		<-slowDone
	}()
	waitFor(t, "slow request admitted", 5*time.Second, func() bool {
		_, metrics := get(base + "/metrics")
		return strings.Contains(metrics, `seer_admit_inflight{endpoint="rumor"} 1`)
	})

	// A second request is shed with 429 + the configured Retry-After.
	shedAt := time.Now()
	resp, err = client.Post(base+"/rumor/version", "application/x-seer-rumor", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit /rumor/version: code=%d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}

	// The health document degrades while the shed is recent, naming the
	// limiter's probe.
	rep = health()
	if rep.State != "degraded" {
		t.Fatalf("health after shed = %q, want degraded", rep.State)
	}
	named := false
	for _, p := range rep.Probes {
		named = named || (p.Name == "rumor-admission" && p.State == "degraded")
	}
	if !named {
		t.Fatalf("no degraded rumor-admission probe in %+v", rep.Probes)
	}

	// --- Hot reload: raise the limit; the blocked slot no longer starves
	// new requests, with zero restarts. ---
	if err := os.WriteFile(cfgPath, []byte("admit-rumor-inflight 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reload applied", 5*time.Second, func() bool { return d.Store.Generation() == 2 })
	resp, err = client.Post(base+"/rumor/version", "application/x-seer-rumor", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("still shedding after the limit was raised")
	}

	// --- A structural change (listen address) is rejected: generation
	// stays, the error is recorded for /debug/config. ---
	if err := os.WriteFile(cfgPath, []byte("admit-rumor-inflight 8\nlisten :9999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rejected reload recorded", 5*time.Second, func() bool {
		st := d.Store.LastReload()
		return !st.OK && st.Err != ""
	})
	if d.Store.Generation() != 2 {
		t.Fatalf("generation = %d after rejected reload, want 2", d.Store.Generation())
	}
	if st := d.Store.LastReload(); !strings.Contains(st.Err, "listen") {
		t.Fatalf("rejection error %q does not name the structural knob", st.Err)
	}

	// --- Recovery: once the real shed window has passed, health returns
	// on its own. ---
	waitFor(t, "health recovery", admit.ShedWindow+10*time.Second, func() bool {
		return health().State == "healthy"
	})
	if since := time.Since(shedAt); since < admit.ShedWindow {
		t.Fatalf("healthy %v after the shed, inside the %v window", since, admit.ShedWindow)
	}
	if n := d.Sup.Restarts(); n != 0 {
		t.Fatalf("stage restarts = %d, want 0", n)
	}
}
