package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/daemon"
	"github.com/fmg/seer/internal/obs"
)

// scrapeMetrics fetches base/metrics and parses the exposition into a
// key → value map (keys carry labels, e.g. `x_total{stage="tailer"}`).
func scrapeMetrics(t *testing.T, client *http.Client, base string) map[string]float64 {
	t.Helper()
	code, _, body := httpGet(t, client, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: code=%d", code)
	}
	vals, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v\n%s", err, body)
	}
	return vals
}

// spanJSON is the part of a /debug/traces span the tests read.
type spanJSON struct {
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent"`
	Stage  string `json:"stage"`
}

// traceSpans fetches /debug/traces, filtered to one trace when tid is
// non-empty.
func traceSpans(t *testing.T, client *http.Client, base, tid string) []spanJSON {
	t.Helper()
	url := base + "/debug/traces"
	if tid != "" {
		url += "?trace=" + tid
	}
	_, _, body := httpGet(t, client, url)
	var spans []spanJSON
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("bad /debug/traces JSON: %v\n%s", err, body)
	}
	return spans
}

// stagesOf returns the set of span stages in spans.
func stagesOf(spans []spanJSON) map[string]bool {
	out := map[string]bool{}
	for _, s := range spans {
		out[s.Stage] = true
	}
	return out
}

// TestTraceFollowsBatchToPlan pins the end-to-end tracing contract: a
// trace id assigned at strace ingestion is retrievable at /debug/traces
// with the tail batch's root, ingest, and feed spans joined under it,
// and a /plan roots its own gateway trace — echoed in X-Seer-Trace —
// with its attempt and plan spans. It also smoke-checks that the
// /metrics exposition on the main listener carries the core series the
// README documents.
func TestTraceFollowsBatchToPlan(t *testing.T) {
	oldPoll := followPoll
	followPoll = 5 * time.Millisecond
	// Cleanup, not defer: registered before startTestPipeline's cleanup,
	// so the tailer has stopped before the global is restored.
	t.Cleanup(func() { followPoll = oldPoll })

	dir := t.TempDir()
	path := dir + "/seer.strace"
	appendLine(t, path, "seed line before follow\n")

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	rt.Daemon.Rumor = true
	p, _ := startTestPipeline(t, pipelineConfig{Options: daemon.Options{Runtime: rt}}, nil)
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	base := "http://" + p.Addr()

	// One ingestion batch: the tailer reads these lines in one burst and
	// closes the batch's root span at the next EOF pause.
	time.Sleep(30 * time.Millisecond) // tailer seeks to end first
	for i := 0; i < 5; i++ {
		appendLine(t, path, chaosLine(i))
	}
	waitEvents(t, p, 3)

	// The batch's trace id resolves to the full ingestion path: the
	// tailer's root, the shard's ingest, and the feeder's feed spans.
	var tid string
	waitFor(t, "tail batch root span", func() bool {
		for _, s := range traceSpans(t, client, base, "") {
			if s.Stage == "tail" {
				tid = s.Trace
				return true
			}
		}
		return false
	})
	waitFor(t, "tail+ingest+feed spans under one trace", func() bool {
		spans := traceSpans(t, client, base, tid)
		for _, s := range spans {
			if s.Trace != tid {
				t.Fatalf("span of trace %s in filtered response for %s", s.Trace, tid)
			}
		}
		st := stagesOf(spans)
		return st["tail"] && st["ingest"] && st["feed"]
	})

	// /plan roots its own trace at the gateway edge.
	code, hdr, _ := httpGet(t, client, base+"/plan")
	if code != 200 {
		t.Fatalf("/plan: code=%d", code)
	}
	planTrace := hdr.Get("X-Seer-Trace")
	if planTrace == "" || planTrace == tid {
		t.Fatalf("/plan trace %q, want its own trace apart from ingestion %s", planTrace, tid)
	}
	waitFor(t, "gateway:plan+attempt+plan spans under the request trace", func() bool {
		st := stagesOf(traceSpans(t, client, base, planTrace))
		return st["gateway:plan"] && st["attempt"] && st["plan"]
	})

	// Core series present on the main listener (the acceptance check
	// `curl /metrics` automates in CI).
	vals := scrapeMetrics(t, client, base)
	for _, name := range []string{
		"seer_events_ingested_total",
		"seer_cluster_duration_seconds_count",
		"seer_hoard_misses_total",
		`seer_queue_depth{shard="0"}`,
		"seer_plans_built_total",
		"seer_rumor_files", // replication series via -rumor
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("/metrics is missing %s", name)
		}
	}
	if got := vals["seer_events_ingested_total"]; got < 3 {
		t.Errorf("seer_events_ingested_total = %v, want >= 3", got)
	}
	var stageSeries int
	for k := range vals {
		if strings.HasPrefix(k, "seer_stage_restarts_total{") {
			stageSeries++
		}
	}
	if stageSeries == 0 {
		t.Error("/metrics has no seer_stage_restarts_total series")
	}
}
