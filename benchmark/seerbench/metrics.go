package main

import (
	"fmt"
	"io"
	"sort"

	"github.com/fmg/seer/benchmark/e2e"
	"github.com/fmg/seer/benchmark/ops"
)

// primary names the requests whose latency each workload reports as
// p50_ms and p95_ms. Mixed times the same reads plan-read times
// uncontended, so the two compare; its /miss latency is nearly all
// waiting and shows in the per-layer metrics.
var primary = map[string][]ops.Kind{
	"ingest":    {ops.Post},
	"plan-read": {ops.Plan, ops.Hoard},
	"mixed":     {ops.Plan, ops.Hoard},
	"reconnect": {ops.Hoard},
}

// endToEndCatalogue and perLayerCatalogue name every metric a run
// reports without and with -trace 1; BENCHMARK.json lists the same.
var (
	endToEndCatalogue = []string{"setup_s", "ops_per_s", "p50_ms", "p95_ms", "rss_mb"}
	perLayerCatalogue = []string{
		"strace.parse_us_per_line", "strace.reject_frac",
		"core.feed_us_per_event", "observer.refs_per_event", "semdist.tracked_files",
		"cluster.calls", "cluster.hit_frac", "cluster.full", "cluster.incremental", "cluster.fallbacks",
		"cluster.full_ms_p50", "cluster.incremental_ms_p50", "cluster.patch_files_p50",
		"hoard.plan_from_ms_p50", "hoard.fill_ms_p50", "hoard.plan_entries", "hoard.missfree_mb",
		"shard.ingest_ms_p50", "shard.plan_ms_p50", "shard.hoard_ms_p50", "shard.miss_ms_p50",
		"shard.plan_self_ms_p50", "shard.render_ms_p50", "shard.plan_accounted_frac",
		"shard.feed_lag_ms_p50", "shard.feed_lag_ms_p95", "shard.queue_drops", "shard.stale_served",
		"gateway.plan_overhead_ms_p50", "gateway.hoard_overhead_ms_p50", "gateway.miss_overhead_ms_p50",
		"gateway.ingest_overhead_ms_p50", "gateway.plan_body_kb",
		"admit.sheds",
		"replic.sync_ms_p50", "replic.sync_files_p50", "replic.sync_failed",
		"seerd.cpu_s", "seerd.cpu_ms_per_op",
	}
)

// maxLatenessP99 is the open-loop generator lateness beyond which a
// mixed run measured the generator, not seerd.
const maxLatenessP99 = 10.0 // ms

func primaryLatency(w *ops.Workload, res *e2e.Result) []float64 {
	var lat []float64
	for _, k := range primary[w.Name] {
		lat = append(lat, res.Latency[k]...)
	}
	return lat
}

// endToEnd computes the metrics a user of seerd sees.
func endToEnd(w *ops.Workload, res *e2e.Result) map[string]metric {
	lat := primaryLatency(w, res)
	setup := make([]float64, len(res.Setup))
	for i, d := range res.Setup {
		setup[i] = d.Seconds()
	}
	done := float64(res.Attempted - res.Failed)
	return map[string]metric{
		"setup_s":   {e2e.Quantile(setup, 0.5), "s"},
		"ops_per_s": {done / res.Elapsed.Seconds(), "1/s"},
		"p50_ms":    {e2e.Quantile(lat, 0.50), "ms"},
		"p95_ms":    {e2e.Quantile(lat, 0.95), "ms"},
		"rss_mb":    {float64(res.PeakRSS) / (1 << 20), "MB"},
	}
}

// check applies the output checks that need the whole run.
func (r *report) check(w *ops.Workload, res *e2e.Result) {
	if len(primaryLatency(w, res)) == 0 {
		r.problems = append(r.problems, "no successful "+w.Name+" requests")
	}
	if w.Mode == ops.OpenSchedule {
		if p99 := e2e.Quantile(res.Lateness, 0.99); p99 > maxLatenessP99 {
			r.problems = append(r.problems, fmt.Sprintf(
				"invalid run: generator lateness p99 %.1f ms exceeds %.0f ms", p99, maxLatenessP99))
		}
	}
}

// summarize prints, per workload, each metric's median and
// interquartile range over the runs.
func summarize(out io.Writer, reps [][]*report) {
	for _, row := range reps {
		if len(row) == 0 {
			continue
		}
		names := make([]string, 0, len(row[0].Metrics))
		for n := range row[0].Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "%s (%d runs):", row[0].workload, len(row))
		for _, n := range names {
			vals := make([]float64, len(row))
			for i, r := range row {
				vals[i] = r.Metrics[n].Value
			}
			med := e2e.Quantile(vals, 0.5)
			iqr := e2e.Quantile(vals, 0.75) - e2e.Quantile(vals, 0.25)
			rel := 0.0
			if med != 0 {
				rel = iqr / med * 100
			}
			fmt.Fprintf(out, "  %s=%.4g %s (IQR %.1f%%)", n, med, row[0].Metrics[n].Unit, rel)
		}
		fmt.Fprintln(out)
	}
}
