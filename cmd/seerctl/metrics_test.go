package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestPrintMetrics(t *testing.T) {
	exposition := strings.Join([]string{
		`# HELP seer_hoard_misses_total Hoard misses.`,
		`# TYPE seer_hoard_misses_total counter`,
		`seer_hoard_misses_total 3`,
		`seer_hoard_missfree_bytes 52428800`,
		`seer_hoard_files 210`,
		`seer_queue_depth 1`,
		`seer_queue_capacity 8192`,
		`seer_queue_shed_total 7`,
		`seer_stage_restarts_total{stage="tailer"} 2`,
		`seer_stage_restarts_total{stage="feeder"} 1`,
		`seer_health_state 0`,
		`seer_cluster_duration_seconds_count 4`,
		`seer_cluster_duration_seconds_sum 0.2`,
		`seer_cluster_cache_hits_total 6`,
		`seer_cluster_cache_misses_total 4`,
		`seer_replication_dirty_files 5`,
		``,
	}, "\n")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/metrics" {
			http.NotFound(w, req)
			return
		}
		w.Write([]byte(exposition))
	}))
	defer ts.Close()

	var out strings.Builder
	if err := printMetrics(&out, ts.URL); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"hoard misses           3",
		"miss-free hoard size   50.0 MB",
		"ingest queue           1/8192 (shed 7)",
		"stage restarts         3", // summed across the labeled family
		"health                 healthy",
		"clusterings            4 (avg 50.0 ms, cache 6/10)",
		"dirty replicas         5",
		"plans built            —", // absent series render as "—"
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "shard 0") {
		t.Errorf("scrape without shard series grew a shard rollup:\n%s", got)
	}

	// A daemon that answers non-200 is an error, not an empty table.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer bad.Close()
	if err := printMetrics(&out, bad.URL); err == nil {
		t.Error("printMetrics succeeded against a 503 endpoint")
	}
}

// A partial registry — an older daemon, rumord, or a freshly started
// seerd that has not registered every family yet — must render what is
// present and mark the rest "—", never error (regression: the satellite
// fix for seerctl metrics against missing metric families).
func TestPrintMetricsPartialRegistry(t *testing.T) {
	for name, exposition := range map[string]string{
		"empty":      "",
		"oneCounter": "seer_hoard_misses_total 1\n",
		"zeroCounts": "seer_cluster_duration_seconds_count 0\n" +
			"seer_cluster_patch_size_files_count 0\n" +
			"seer_replication_rtt_seconds_count 0\n",
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				w.Write([]byte(exposition))
			}))
			defer ts.Close()
			var out strings.Builder
			if err := printMetrics(&out, ts.URL); err != nil {
				t.Fatalf("printMetrics on partial registry: %v", err)
			}
			for _, want := range []string{"ingest queue", "clusterings", "stage restarts"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("row %q missing from partial-registry output:\n%s", want, out.String())
				}
			}
			if !strings.Contains(out.String(), "—") {
				t.Errorf("absent families not marked:\n%s", out.String())
			}
		})
	}
}

// A multi-tenant seerd's scrape grows the per-shard rollup: one row per
// shard with its lifecycle state and restart count, plus the gateway
// retry counters.
func TestPrintMetricsShardRollup(t *testing.T) {
	exposition := strings.Join([]string{
		`seer_shard_state{shard="0"} 1`,
		`seer_shard_state{shard="1"} 2`,
		`seer_shard_state{shard="2"} 1`,
		`seer_shard_restarts_total{shard="0"} 4`,
		`seer_shard_restarts_total{shard="1"} 0`,
		`seer_admit_admitted_total{endpoint="shard0"} 17`,
		`seer_admit_shed_total{endpoint="shard0"} 2`,
		`seer_gateway_retries_total{endpoint="plan"} 5`,
		`seer_gateway_retries_total{endpoint="events"} 3`,
		`seer_gateway_route_errors_total{endpoint="plan"} 1`,
		``,
	}, "\n")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte(exposition))
	}))
	defer ts.Close()
	var out strings.Builder
	if err := printMetrics(&out, ts.URL); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"shards                 3 (2 serving)",
		"shard 0",
		"serving  restarts 4  admitted 17  shed 2",
		"draining",
		"retries 8, route errors 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("shard rollup missing %q:\n%s", want, got)
		}
	}
}

// seerd exports the §5 hoard gauges and the ingest-queue families once
// per shard; the headline rows total them across shards.
func TestPrintMetricsSumsShardSeries(t *testing.T) {
	exposition := strings.Join([]string{
		`seer_hoard_missfree_bytes{shard="0"} 20971520`,
		`seer_hoard_missfree_bytes{shard="1"} 31457280`,
		`seer_hoard_unhoardable_files{shard="0"} 2`,
		`seer_hoard_unhoardable_files{shard="1"} 3`,
		`seer_hoard_files{shard="0"} 100`,
		`seer_hoard_files{shard="1"} 110`,
		`seer_hoard_bytes{shard="0"} 1048576`,
		`seer_hoard_bytes{shard="1"} 1048576`,
		`seer_queue_depth{shard="0"} 1`,
		`seer_queue_depth{shard="1"} 2`,
		`seer_queue_capacity{shard="0"} 4096`,
		`seer_queue_capacity{shard="1"} 4096`,
		`seer_queue_shed_total{shard="0"} 3`,
		`seer_queue_shed_total{shard="1"} 4`,
		``,
	}, "\n")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte(exposition))
	}))
	defer ts.Close()
	var out strings.Builder
	if err := printMetrics(&out, ts.URL); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"miss-free hoard size   50.0 MB",
		"unhoardable files      5",
		"hoard files            210",
		"hoard bytes            2.0 MB",
		"ingest queue           3/8192 (shed 7)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
