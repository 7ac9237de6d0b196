package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"github.com/fmg/seer/internal/obs/slo"
	"github.com/fmg/seer/internal/supervise"
)

// traceSpan mirrors internal/obs's /debug/traces wire form, plus the
// daemon it was scraped from so a cross-process tree shows which hop
// ran where.
type traceSpan struct {
	Trace      string  `json:"trace"`
	Span       string  `json:"span"`
	Parent     string  `json:"parent"`
	Stage      string  `json:"stage"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Attrs      []struct {
		Key   string `json:"key"`
		Value string `json:"value"`
	} `json:"attrs"`

	addr  string
	start time.Time
}

// fetchSpans scrapes one daemon's /debug/traces for a trace id.
// Unreachable daemons are skipped with a warning rather than failing
// the whole render — a partial tree still localizes the slow hop.
func fetchSpans(base, id string) ([]traceSpan, error) {
	body, err := call(http.MethodGet, base, "/debug/traces?trace="+url.QueryEscape(id), 5*time.Second)
	if err != nil {
		return nil, err
	}
	var spans []traceSpan
	if err := json.Unmarshal(body, &spans); err != nil {
		return nil, fmt.Errorf("decoding %s/debug/traces: %w", base, err)
	}
	return spans, nil
}

// printTrace stitches one trace's spans from every daemon in the
// comma-separated addrs list into a single parent/child tree. Spans
// whose parent lives on an unreachable daemon render as extra roots,
// so a partial scrape degrades to a forest instead of an error.
func printTrace(w io.Writer, addrs, id string) error {
	var all []traceSpan
	var scraped int
	for _, base := range strings.Split(addrs, ",") {
		base = strings.TrimSpace(base)
		if base == "" {
			continue
		}
		spans, err := fetchSpans(base, id)
		if err != nil {
			fmt.Fprintf(w, "# %s unreachable: %v\n", base, err)
			continue
		}
		scraped++
		for i := range spans {
			spans[i].addr = base
			spans[i].start, _ = time.Parse(time.RFC3339Nano, spans[i].Start)
		}
		all = append(all, spans...)
	}
	if scraped == 0 {
		return fmt.Errorf("no daemon reachable in %q", addrs)
	}
	if len(all) == 0 {
		return fmt.Errorf("trace %s not found on any of %q (ring may have evicted it)", id, addrs)
	}

	// Index by span id; children sorted by start time so the tree reads
	// in causal order. A span with an unknown or empty parent is a root.
	known := make(map[string]bool, len(all))
	for _, s := range all {
		if s.Span != "" {
			known[s.Span] = true
		}
	}
	children := make(map[string][]traceSpan)
	var roots []traceSpan
	for _, s := range all {
		if s.Parent != "" && known[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	byStart := func(spans []traceSpan) {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	}
	byStart(roots)
	for _, cs := range children {
		byStart(cs)
	}

	fmt.Fprintf(w, "trace %s (%d spans)\n", id, len(all))
	var render func(s traceSpan, depth int)
	render = func(s traceSpan, depth int) {
		attrs := make([]string, 0, len(s.Attrs))
		for _, a := range s.Attrs {
			attrs = append(attrs, a.Key+"="+a.Value)
		}
		line := fmt.Sprintf("%s%-24s %9.2fms  [%s]",
			strings.Repeat("  ", depth), s.Stage, s.DurationMS, s.addr)
		if len(attrs) > 0 {
			line += "  " + strings.Join(attrs, " ")
		}
		fmt.Fprintln(w, line)
		for _, c := range children[s.Span] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return nil
}

// printSLO renders the burn-rate monitors from the daemon's canonical
// channels: each objective's fast- and slow-window burn from
// seer_slo_burn_rate{slo,window} on /metrics, and its breach state from
// the slo probe on /healthz. The windows and threshold are the slo
// package's constants, which seerd runs with. An absent series or
// probe prints "—", as in printMetrics.
func printSLO(w io.Writer, base string) error {
	vals, err := scrape(base)
	if err != nil {
		return err
	}
	burns := map[string]map[string]float64{} // slo → window → burn
	for key, v := range vals {
		labels, ok := strings.CutPrefix(key, "seer_slo_burn_rate{")
		if !ok {
			continue
		}
		name, window := labelValue(labels, "slo"), labelValue(labels, "window")
		if burns[name] == nil {
			burns[name] = map[string]float64{}
		}
		burns[name][window] = v
	}
	names := make([]string, 0, len(burns))
	for name := range burns {
		names = append(names, name)
	}
	sort.Strings(names)

	// A 503 from /healthz still carries the report.
	breached, probed := map[string]bool{}, false
	body, _ := call(http.MethodGet, base, "/healthz", 5*time.Second)
	var rep supervise.Report
	if json.Unmarshal(body, &rep) == nil {
		for _, p := range rep.Probes {
			if p.Name != "slo" {
				continue
			}
			probed = true
			if _, list, ok := strings.Cut(p.Detail, ":"); ok {
				for _, name := range strings.Fields(list) {
					breached[name] = true
				}
			}
		}
	}

	fmt.Fprintf(w, "# %s — page threshold %d (fast %s / slow %s windows)\n",
		strings.TrimRight(base, "/"), slo.DefaultThreshold, slo.DefaultFastWindow, slo.DefaultSlowWindow)
	fmt.Fprintf(w, "%-12s %10s %10s %s\n", "slo", "burn_fast", "burn_slow", "state")
	if len(names) == 0 {
		fmt.Fprintf(w, "%-12s %10s %10s %s\n", absent, absent, absent, absent)
	}
	cell := func(m map[string]float64, window string) string {
		if v, ok := m[window]; ok {
			return fmt.Sprintf("%.2f", v)
		}
		return absent
	}
	for _, name := range names {
		state := absent
		switch {
		case breached[name]:
			state = "BREACHED"
		case probed:
			state = "ok"
		}
		fmt.Fprintf(w, "%-12s %10s %10s %s\n",
			name, cell(burns[name], "fast"), cell(burns[name], "slow"), state)
	}
	return nil
}

// labelValue returns the value of label in a Prometheus label list
// (`a="x",b="y"}`), or "" when it is absent.
func labelValue(labels, label string) string {
	_, rest, ok := strings.Cut(labels, label+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// captureFlight asks a daemon for a flight bundle (POST /debug/flight)
// and prints the directory it was written to. The capture includes a
// CPU profile, so the request takes a couple of seconds.
func captureFlight(w io.Writer, base, reason string) error {
	body, err := call(http.MethodPost, base, "/debug/flight?reason="+url.QueryEscape(reason), time.Minute)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}
