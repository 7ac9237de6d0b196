package replic_test

import (
	"net/http"
	"strings"
	"testing"

	"github.com/fmg/seer/internal/obs"
)

// scrape renders a registry and parses it back into a key → value map.
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, b.String())
	}
	return m
}

// TestMasterMetrics verifies the master's op counters are scrapeable
// and that the handler counts per-endpoint requests and errors.
func TestMasterMetrics(t *testing.T) {
	m, rr, ts := newMasterServer(t, nil)
	m.Create(1)
	rr.WriteLocal(1) // push: base 0 against master v1 → conflict
	rr.WriteLocal(2) // push: unknown file → created
	if _, err := rr.Reconcile(); err != nil {
		t.Fatal(err)
	}
	// A bad body on a known endpoint is a per-endpoint error.
	resp, err := ts.Client().Post(ts.URL+"/rumor/push", "application/x-seer-rumor",
		strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage push returned %d, want 400", resp.StatusCode)
	}

	vals := scrape(t, m.Metrics())
	checks := map[string]float64{
		"seer_rumor_files":                                2,
		"seer_rumor_creates_total":                        1,
		"seer_rumor_pushes_total":                         2,
		"seer_rumor_conflicts_total":                      1,
		"seer_rumor_reconciles_total":                     1,
		`seer_rumor_requests_total{endpoint="push"}`:      3, // 2 writes + 1 garbage
		`seer_rumor_requests_total{endpoint="reconcile"}`: 1,
		`seer_rumor_errors_total{endpoint="push"}`:        1,
	}
	for k, want := range checks {
		if got := vals[k]; got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
}

// TestRemoteRumorMetrics verifies the client-side instruments: RTT
// samples per round trip, transition counters, and the dirty gauge.
func TestRemoteRumorMetrics(t *testing.T) {
	_, rr, ts := newMasterServer(t, nil)
	reg := obs.NewRegistry()
	rr.InstrumentOn(reg)

	rr.WriteLocal(1) // one /push round trip
	rr.SetConnected(false)
	rr.WriteLocal(2) // stays dirty while partitioned
	vals := scrape(t, reg)
	if got := vals["seer_replication_rtt_seconds_count"]; got != 1 {
		t.Errorf("rtt count = %v, want 1", got)
	}
	if got := vals["seer_replication_disconnects_total"]; got != 1 {
		t.Errorf("disconnects = %v, want 1", got)
	}
	if got := vals["seer_replication_dirty_files"]; got != 1 {
		t.Errorf("dirty gauge = %v, want 1", got)
	}

	rr.SetConnected(true) // reconcile round trip
	vals = scrape(t, reg)
	if got := vals["seer_replication_reconnects_total"]; got != 1 {
		t.Errorf("reconnects = %v, want 1", got)
	}
	if got := vals["seer_replication_dirty_files"]; got != 0 {
		t.Errorf("dirty gauge after reconcile = %v, want 0", got)
	}

	// Kill the master: the next round trip fails and the reconnect
	// attempt leaves the client disconnected. The Retry hook re-invokes
	// each failed round trip once, and every re-attempt is counted.
	ts.Close()
	rr.Retry = func(op func() error) error {
		if err := op(); err == nil {
			return nil
		}
		return op()
	}
	rr.SetConnected(false)
	rr.SetConnected(true)
	vals = scrape(t, reg)
	if got := vals["seer_replication_errors_total"]; got < 1 {
		t.Errorf("errors = %v, want >= 1", got)
	}
	if got := vals["seer_replication_retries_total"]; got < 1 {
		t.Errorf("retries = %v, want >= 1", got)
	}
	if got := vals["seer_replication_disconnects_total"]; got != 3 {
		// one deliberate + one failed-reconcile + one deliberate above
		t.Errorf("disconnects = %v, want 3", got)
	}
	if rr.Connected() {
		t.Error("client connected after failed reconcile")
	}
}
