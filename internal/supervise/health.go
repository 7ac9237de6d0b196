package supervise

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"
)

// StageStatus is one stage's externally visible state.
type StageStatus struct {
	Name     string    `json:"name"`
	State    string    `json:"state"`
	Critical bool      `json:"critical,omitempty"`
	Restarts uint64    `json:"restarts"`
	LastErr  string    `json:"last_error,omitempty"`
	Since    time.Time `json:"since"`
}

// ProbeStatus is one probe's contribution to the report.
type ProbeStatus struct {
	Name   string `json:"name"`
	State  string `json:"state"`
	Detail string `json:"detail,omitempty"`
}

// Report is the full health document served by /healthz.
type Report struct {
	State  string        `json:"state"`
	Stages []StageStatus `json:"stages"`
	Probes []ProbeStatus `json:"probes,omitempty"`
}

// FirstLine truncates s at its first newline (panic errors carry full
// stack traces; logs and health documents want one line).
func FirstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// healthOf maps one stage's state to its health contribution.
func healthOf(st *stage) HealthState {
	switch st.state {
	case StageBroken:
		if st.critical {
			return Unavailable
		}
		return Degraded
	case StageBackoff:
		return Degraded
	default:
		return Healthy
	}
}

// Health returns the aggregate health: the maximum severity over every
// stage and probe.
func (s *Supervisor) Health() HealthState {
	return s.report(false).health
}

// Report returns the full health document: aggregate state, per-stage
// status (state, restart count, last error, transition time), and
// per-probe status.
func (s *Supervisor) Report() Report {
	return s.report(true).rep
}

type reported struct {
	health HealthState
	rep    Report
}

func (s *Supervisor) report(full bool) reported {
	s.mu.Lock()
	h := Healthy
	var stages []StageStatus
	for _, st := range s.stages {
		if sh := healthOf(st); sh > h {
			h = sh
		}
		if full {
			ss := StageStatus{
				Name:     st.name,
				State:    st.state.String(),
				Critical: st.critical,
				Restarts: st.restarts,
				Since:    st.since,
			}
			if st.lastErr != nil {
				// Panic errors carry a full stack; one line is enough for
				// a health document.
				ss.LastErr = FirstLine(st.lastErr.Error())
			}
			stages = append(stages, ss)
		}
	}
	probes := s.probes
	s.mu.Unlock()

	// Probes run outside the lock: they may consult state that stage
	// bodies update, and a slow probe must not block stage transitions.
	var pss []ProbeStatus
	for _, pe := range probes {
		p := pe.fn()
		if p.State > h {
			h = p.State
		}
		if full {
			pss = append(pss, ProbeStatus{Name: pe.name, State: p.State.String(), Detail: p.Detail})
		}
	}
	out := reported{health: h}
	if full {
		out.rep = Report{State: h.String(), Stages: stages, Probes: pss}
	}
	return out
}

// HealthHandler serves the full report as JSON: 200 while healthy or
// degraded (the daemon is still answering), 503 when unavailable.
// Suitable for both /healthz and, with ready=true, a stricter /readyz
// that also refuses while degraded.
func (s *Supervisor) HealthHandler(ready bool) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		rep := s.Report()
		code := http.StatusOK
		if rep.State == Unavailable.String() || (ready && rep.State != Healthy.String()) {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	}
}
