package main

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// sloDaemon serves recorded /metrics and /healthz bodies.
func sloDaemon(t *testing.T, metrics, healthz string, healthCode int) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/metrics":
			w.Write([]byte(metrics))
		case "/healthz":
			w.WriteHeader(healthCode)
			w.Write([]byte(healthz))
		default:
			http.NotFound(w, req)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// seerctl slo reads the burn rates from /metrics and the breach state
// from the slo probe on /healthz: one objective breached, one healthy,
// and a missing series rendered as "—".
func TestPrintSLO(t *testing.T) {
	metrics := strings.Join([]string{
		`# HELP seer_slo_burn_rate Error-budget burn rate per SLO and window (1 = exactly on budget).`,
		`# TYPE seer_slo_burn_rate gauge`,
		`seer_slo_burn_rate{slo="plan",window="fast"} 0.5`,
		`seer_slo_burn_rate{slo="plan",window="slow"} 0.25`,
		`seer_slo_burn_rate{slo="rumor-sync",window="fast"} 100`,
		`seer_health_state 1`,
		``,
	}, "\n")
	healthz := `{"state":"degraded","stages":[{"name":"http","state":"running","restarts":0,"since":"2026-10-19T12:00:00Z"}],
"probes":[{"name":"shards","state":"healthy"},{"name":"slo","state":"degraded","detail":"error budget burning: rumor-sync"}]}`
	ts := sloDaemon(t, metrics, healthz, http.StatusOK)

	var out strings.Builder
	if err := printSLO(&out, ts.URL); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		`(?m)^plan +0\.50 +0\.25 ok$`,
		`(?m)^rumor-sync +100\.00 +— BREACHED$`,
		`page threshold 14 \(fast 5m0s / slow 1h0m0s windows\)`,
	} {
		if !regexp.MustCompile(want).MatchString(got) {
			t.Errorf("output does not match %q:\n%s", want, got)
		}
	}

	// An unavailable daemon answers /healthz with 503 and still names
	// the breach; a daemon without the family or the probe renders "—".
	ts = sloDaemon(t, metrics, healthz, http.StatusServiceUnavailable)
	out.Reset()
	if err := printSLO(&out, ts.URL); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^rumor-sync .* BREACHED$`).MatchString(out.String()) {
		t.Errorf("breach lost behind a 503 /healthz:\n%s", out.String())
	}
	ts = sloDaemon(t, "seer_health_state 0\n", `{"state":"healthy","stages":[]}`, http.StatusOK)
	out.Reset()
	if err := printSLO(&out, ts.URL); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^— +— +— —$`).MatchString(out.String()) {
		t.Errorf("absent family not marked:\n%s", out.String())
	}

	// A daemon that answers /metrics with an error is an error.
	ts = sloDaemon(t, "", "", http.StatusOK)
	ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	})
	if err := printSLO(&out, ts.URL); err == nil {
		t.Error("printSLO succeeded against a 503 /metrics")
	}
}
