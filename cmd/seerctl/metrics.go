package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/fmg/seer/internal/obs"
)

// absent is what a family or probe the scraped daemon does not expose
// prints as; every row must reach it rather than erroring or dividing
// by zero.
const absent = "—"

// scrape fetches and parses base/metrics.
func scrape(base string) (map[string]float64, error) {
	body, err := call(http.MethodGet, base, "/metrics", 5*time.Second)
	if err != nil {
		return nil, err
	}
	vals, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("parsing %s/metrics: %w", base, err)
	}
	return vals, nil
}

// printMetrics scrapes base/metrics from a running seerd (or rumord)
// and renders the paper-relevant series as a one-screen table: the §5
// headline quantities first (hoard misses, miss-free hoard size, dirty
// replicas), then pipeline, shard, and replication operational detail.
// A scraped daemon missing some families — an older build, a partial
// registry, rumord vs seerd — is normal, never an error: whatever is
// present renders, and absent families print as "—".
func printMetrics(w io.Writer, base string) error {
	vals, err := scrape(base)
	if err != nil {
		return err
	}

	get := func(name string) (float64, bool) {
		v, ok := vals[name]
		return v, ok
	}
	// sumFamily totals every series of a family, labeled or not: all
	// stages of seer_stage_restarts_total, or every shard's
	// seer_hoard_missfree_bytes{shard=…}.
	sumFamily := func(name string) (float64, bool) { return sumTotal(vals, name) }
	// family collects a labeled family's series keyed by the first
	// label's value: seer_shard_state{shard="3"} → "3".
	family := func(name, label string) map[string]float64 {
		out := map[string]float64{}
		prefix := name + "{" + label + `="`
		for k, v := range vals {
			if rest, ok := strings.CutPrefix(k, prefix); ok {
				if i := strings.IndexByte(rest, '"'); i >= 0 {
					out[rest[:i]] = v
				}
			}
		}
		return out
	}
	row := func(label, value string) { fmt.Fprintf(w, "%-22s %s\n", label, value) }
	// count and mb render a family's total across shards.
	count := func(label, name string) {
		if v, ok := sumFamily(name); ok {
			row(label, fmt.Sprintf("%.0f", v))
		} else {
			row(label, absent)
		}
	}
	mb := func(label, name string) {
		if v, ok := sumFamily(name); ok {
			row(label, fmt.Sprintf("%.1f MB", v/(1<<20)))
		} else {
			row(label, absent)
		}
	}

	fmt.Fprintf(w, "# %s/metrics\n", strings.TrimRight(base, "/"))
	count("hoard misses", "seer_hoard_misses_total")
	mb("miss-free hoard size", "seer_hoard_missfree_bytes")
	count("unhoardable files", "seer_hoard_unhoardable_files")
	count("hoard files", "seer_hoard_files")
	mb("hoard bytes", "seer_hoard_bytes")
	count("plans built", "seer_plans_built_total")
	count("stale plans served", "seer_stale_plans_served_total")
	count("events ingested", "seer_events_ingested_total")
	if depth, ok := sumFamily("seer_queue_depth"); ok {
		capacity, _ := sumFamily("seer_queue_capacity")
		shed, _ := sumFamily("seer_queue_shed_total")
		row("ingest queue", fmt.Sprintf("%.0f/%.0f (shed %.0f)", depth, capacity, shed))
	} else {
		row("ingest queue", absent)
	}
	if n, ok := get("seer_cluster_duration_seconds_count"); ok && n > 0 {
		sum, _ := get("seer_cluster_duration_seconds_sum")
		hits, _ := get("seer_cluster_cache_hits_total")
		misses, _ := get("seer_cluster_cache_misses_total")
		row("clusterings", fmt.Sprintf("%.0f (avg %.1f ms, cache %.0f/%.0f)",
			n, sum/n*1000, hits, hits+misses))
	} else {
		row("clusterings", absent)
	}
	if total, ok := sumFamily("seer_cluster_rebuilds_total"); ok {
		full := vals[`seer_cluster_rebuilds_total{kind="full"}`]
		inc := vals[`seer_cluster_rebuilds_total{kind="incremental"}`]
		fallbacks, _ := get("seer_cluster_churn_fallbacks_total")
		row("cluster rebuilds", fmt.Sprintf("%.0f (%.0f full, %.0f patched, %.0f fallbacks)",
			total, full, inc, fallbacks))
	} else {
		row("cluster rebuilds", absent)
	}
	if n, ok := get("seer_cluster_patch_size_files_count"); ok && n > 0 {
		sum, _ := get("seer_cluster_patch_size_files_sum")
		row("patch size", fmt.Sprintf("avg %.1f files over %.0f patches", sum/n, n))
	}
	if restarts, ok := sumFamily("seer_stage_restarts_total"); ok {
		row("stage restarts", fmt.Sprintf("%.0f", restarts))
	} else {
		row("stage restarts", absent)
	}
	if h, ok := get("seer_health_state"); ok {
		state := map[float64]string{0: "healthy", 1: "degraded", 2: "unavailable"}[h]
		if state == "" {
			state = fmt.Sprintf("state %.0f", h)
		}
		row("health", state)
	}
	printShardRollup(w, vals, family, row)
	count("dirty replicas", "seer_replication_dirty_files")
	if n, ok := get("seer_replication_rtt_seconds_count"); ok && n > 0 {
		sum, _ := get("seer_replication_rtt_seconds_sum")
		errs, _ := get("seer_replication_errors_total")
		row("replication rtt", fmt.Sprintf("avg %.1f ms over %.0f calls (%.0f errors)",
			sum/n*1000, n, errs))
	}
	if files, ok := get("seer_rumor_files"); ok {
		pushes, _ := get("seer_rumor_pushes_total")
		conflicts, _ := get("seer_rumor_conflicts_total")
		row("rumor master", fmt.Sprintf("%.0f files (pushes %.0f, conflicts %.0f)",
			files, pushes, conflicts))
	}
	return nil
}

// shardStateNames maps seer_shard_state values to lifecycle names.
var shardStateNames = map[float64]string{
	0: "opening", 1: "serving", 2: "draining", 3: "closed",
}

// printShardRollup renders seerd's per-shard section: one line per
// shard (state + restarts + admission totals) plus the gateway
// retry/route-error counters. Silent when the scrape has no
// seer_shard_state family (rumord).
func printShardRollup(w io.Writer, vals map[string]float64,
	family func(name, label string) map[string]float64,
	row func(label, value string)) {
	states := family("seer_shard_state", "shard")
	if len(states) == 0 {
		return
	}
	restarts := family("seer_shard_restarts_total", "shard")
	admitted := family("seer_admit_admitted_total", "endpoint")
	shed := family("seer_admit_shed_total", "endpoint")

	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, _ := strconv.Atoi(ids[i])
		b, _ := strconv.Atoi(ids[j])
		return a < b
	})
	serving := 0
	for _, id := range ids {
		if shardStateNames[states[id]] == "serving" {
			serving++
		}
	}
	row("shards", fmt.Sprintf("%d (%d serving)", len(ids), serving))
	for _, id := range ids {
		state := shardStateNames[states[id]]
		if state == "" {
			state = fmt.Sprintf("state %.0f", states[id])
		}
		row("  shard "+id, fmt.Sprintf("%-8s restarts %.0f  admitted %.0f  shed %.0f",
			state, restarts[id], admitted["shard"+id], shed["shard"+id]))
	}
	if retries, ok := sumTotal(vals, "seer_gateway_retries_total"); ok {
		routeErrs, _ := sumTotal(vals, "seer_gateway_route_errors_total")
		row("gateway", fmt.Sprintf("retries %.0f, route errors %.0f", retries, routeErrs))
	}
}

// sumTotal totals a family across all its label combinations.
func sumTotal(vals map[string]float64, name string) (float64, bool) {
	var total float64
	found := false
	prefix := name + "{"
	for k, v := range vals {
		if k == name || strings.HasPrefix(k, prefix) {
			total += v
			found = true
		}
	}
	return total, found
}
