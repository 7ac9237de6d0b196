package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"github.com/fmg/seer/benchmark/ops"
)

// TestSmoke runs every workload at toy size against freshly built
// daemons, plus one traced replay, with every output check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dir := t.TempDir()
	bins, err := build(ctx, filepath.Join("..", ".."), dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{bins: bins, measure: time.Second, scale: ops.Toy, traceTo: filepath.Join(dir, "trace.json")}
	for _, name := range ops.Names {
		rep, err := runOnce(ctx, cfg, name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%q",
				name, rep.Correct, rep.Attempted, rep.Failed, rep.problems)
		}
		for _, m := range endToEndCatalogue {
			if _, ok := rep.Metrics[m]; !ok {
				t.Errorf("%s: no %s", name, m)
			}
		}
	}
	cfg.trace = true
	rep, err := runOnce(ctx, cfg, "reconnect", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("traced reconnect: %q", rep.problems)
	}
	for _, m := range perLayerCatalogue {
		if _, ok := rep.Metrics[m]; !ok {
			t.Errorf("traced reconnect: no %s", m)
		}
	}
	if v := rep.Metrics["replic.sync_files_p50"].Value; v == 0 {
		t.Error("traced reconnect synced no files")
	}
}
