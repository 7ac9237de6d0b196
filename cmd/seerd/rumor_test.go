package main

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"github.com/fmg/seer/internal/daemon"
	"github.com/fmg/seer/internal/replic"
)

// A seerd started with -rumor serves the replication-master protocol on
// its main mux: a RemoteRumor pointed at the daemon must be able to
// run the full hoard workflow — create, fetch, write-through push, and
// a reconnect reconciliation — against it.
func TestPipelineServesRumorEndpoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	rt.Daemon.Rumor = true
	p, _ := startTestPipeline(t, pipelineConfig{Options: daemon.Options{Runtime: rt}}, nil)

	rr := replic.NewRemoteRumor("http://"+p.Addr()+"/rumor", nil)
	if p.master.Create(7) != 1 {
		t.Fatal("master create")
	}
	if err := rr.Fetch(7); err != nil {
		t.Fatalf("fetch through seerd: %v", err)
	}
	rr.WriteLocal(7)
	if v, ok := p.master.Version(7); !ok || v != 2 {
		t.Errorf("write-through version = %d/%v, want 2", v, ok)
	}
	rr.SetConnected(false)
	rr.WriteLocal(7)
	rr.WriteLocal(9) // disconnected creation
	if rep := rr.SetConnected(true); rep.Propagated != 2 {
		t.Errorf("reconcile report = %+v, want 2 propagated", rep)
	}
	if v, ok := p.master.Version(9); !ok || v != 1 {
		t.Errorf("disconnected creation version = %d/%v, want 1", v, ok)
	}

	// The hoarding endpoints still answer alongside /rumor/.
	resp, err := http.Get("http://" + p.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}
}

// Without -rumor the endpoints must not exist.
func TestPipelineRumorDisabledByDefault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	p, _ := startTestPipeline(t, pipelineConfig{Options: daemon.Options{Runtime: rt}}, nil)
	resp, err := http.Post("http://"+p.Addr()+"/rumor/version", "application/x-seer-rumor", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/rumor/version without -rumor = %d, want 404", resp.StatusCode)
	}
}
