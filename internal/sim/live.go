package sim

import (
	"time"

	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/trace"
	"github.com/fmg/seer/internal/workload"
)

// Disconnection is the outcome of one live disconnection period.
type Disconnection struct {
	Span workload.Span
	// Active is the non-suspended duration (paper §5.1.1 excludes
	// suspended time from all statistics).
	Active time.Duration
	// Used reports whether any meaningful reference happened; unused
	// disconnections (vacations) are excluded from statistics.
	Used bool
	// Misses is the period's miss log.
	Misses *hoard.MissLog
	// MissFreeBytes is the smallest hoard, following the plan's
	// inclusion order at disconnection time, that would have served
	// every meaningful reference of the period without a miss (the
	// live counterpart of the paper's §5.2 miss-free hoard size);
	// Unhoardable counts referenced files absent from that plan, which
	// would have missed at any budget.
	MissFreeBytes int64
	Unhoardable   int
}

// LiveResult is a complete live replay of one machine.
type LiveResult struct {
	Machine string
	// HoardSizeMB is the configured budget.
	HoardSizeMB int64
	// Disconnections lists every ≥15-minute disconnection with use.
	Disconnections []Disconnection
	// Reconciles accumulates the replication substrate's reports.
	Reconciles replic.ReconcileReport
}

// Live replays the machine's own disconnection schedule at a fixed
// hoard budget (the paper's Tables 4 and 5 used 50 MB, 98 MB for G):
// at each disconnection the correlator fills the hoard, the CheapRumor
// substrate fetches it, and meaningful references to unhoarded files
// during the disconnection become misses with role-derived severities.
func Live(opts Options, budgetBytes int64) *LiveResult {
	m := NewMachine(opts)
	res := &LiveResult{
		Machine:     opts.Profile.Name,
		HoardSizeMB: budgetBytes / mb,
	}
	rum := replic.NewCheapRumor(m.FS)
	for _, f := range m.FS.Files() {
		rum.ServerCreate(f.ID)
	}

	var (
		connected   = true
		suspended   = false
		contents    *hoard.Contents
		plan        *hoard.Plan
		prevIDs     []simfs.FileID
		cur         *Disconnection
		discSeq     uint64
		activeAccum time.Duration
		activeSince time.Time
		missed      map[simfs.FileID]bool
		refd        map[simfs.FileID]bool
	)

	finish := func(t time.Time) {
		if cur == nil {
			return
		}
		if !suspended {
			activeAccum += t.Sub(activeSince)
		}
		cur.Active = activeAccum
		cur.Span.End = t
		if plan != nil {
			ids := make([]simfs.FileID, 0, len(refd))
			for id := range refd {
				ids = append(ids, id)
			}
			cur.MissFreeBytes, cur.Unhoardable = plan.MissFreeSize(ids)
		}
		if cur.Span.Duration() >= 15*time.Minute {
			res.Disconnections = append(res.Disconnections, *cur)
		}
		cur = nil
	}

	for _, ev := range m.Tr.Events {
		switch ev.Op {
		case trace.OpDisconnect:
			// The hoard is filled just before disconnection (§2); the
			// substrate must fetch while the network is still up.
			plan = m.Corr.Plan()
			contents = plan.Fill(budgetBytes, m.Corr.Params().SkipUnfittingClusters)
			var prev *hoard.Contents
			if prevIDs != nil {
				prev = hoard.ContentsOf(prevIDs)
			}
			fetch, evict := hoard.Diff(prev, contents)
			rum.Sync(fetch, evict)
			prevIDs = contents.IDs()
			connected = false
			rum.SetConnected(false)
			discSeq = ev.Seq
			activeAccum = 0
			activeSince = ev.Time
			missed = make(map[simfs.FileID]bool)
			refd = make(map[simfs.FileID]bool)
			cur = &Disconnection{
				Span:   workload.Span{Start: ev.Time},
				Misses: hoard.NewMissLog(),
			}
			continue
		case trace.OpReconnect:
			connected = true
			finish(ev.Time)
			rep := rum.SetConnected(true)
			res.Reconciles.Propagated += rep.Propagated
			res.Reconciles.Conflicts += rep.Conflicts
			res.Reconciles.Refreshed += rep.Refreshed
			res.Reconciles.Evicted += rep.Evicted
			continue
		case trace.OpSuspend:
			if !suspended {
				suspended = true
				if cur != nil {
					activeAccum += ev.Time.Sub(activeSince)
				}
			}
			continue
		case trace.OpResume:
			if suspended {
				suspended = false
				activeSince = ev.Time
			}
			continue
		}

		f := m.feed(ev)
		if f != nil && ev.Op == trace.OpCreate {
			// Writes (file creations) go to the local replica; while
			// disconnected they accumulate as dirty state that the
			// substrate propagates at reconnection.
			rum.WriteLocal(f.ID)
		}
		if connected || cur == nil || f == nil {
			continue
		}
		meaningful := m.meaningfulRef(ev, f)
		if !meaningful && !isAutoCandidate(m, ev, f) {
			continue
		}
		cur.Used = cur.Used || meaningful
		if meaningful && (f.CreatedSeq < discSeq || f.CreatedSeq == 0) {
			// Files created during the disconnection are excluded from
			// the miss-free size for the same reason they are not
			// misses: no hoard filled beforehand could contain them.
			refd[f.ID] = true
		}
		if contents.Has(f.ID) || missed[f.ID] {
			continue
		}
		if f.CreatedSeq >= discSeq && f.CreatedSeq != 0 {
			// Created during the disconnection: cannot have been
			// hoarded, not a miss (§5.1.2).
			continue
		}
		missed[f.ID] = true
		elapsed := activeAccum
		if !suspended {
			elapsed += ev.Time.Sub(activeSince)
		}
		// A file the correlator had never ranked could not have been
		// hoarded at any budget; the user sees it as simply absent.
		// The automatic detector may still notice it (§4.4: a
		// reference to a file known to exist but absent).
		hoardable := plan != nil && plan.Rank(f.ID) >= 0
		sev, report := severityFor(m, ev, f, meaningful && hoardable)
		if !report {
			continue
		}
		cur.Misses.Record(hoard.Miss{
			Time:            ev.Time,
			File:            f.ID,
			Path:            f.Path,
			Severity:        sev,
			SinceDisconnect: elapsed,
		})
		// The same user action that records the miss arranges for the
		// file to be hoarded at reconnection (§4.4); model the
		// brief-reconnection servicing by treating it as present for
		// the rest of the period once recorded.
	}
	finish(m.Tr.End)
	return res
}

// isAutoCandidate reports whether a non-meaningful reference can still
// trigger the automatic miss detector (§4.4): references by background
// activity to files known to exist. Scanner stats of absent files fail
// silently and are sampled sparsely, matching the small auto counts the
// paper reports.
func isAutoCandidate(m *Machine, ev trace.Event, f *simfs.File) bool {
	if ev.Failed || f.Kind != simfs.Regular {
		return false
	}
	switch ev.Op {
	case trace.OpOpen, trace.OpStat:
	default:
		return false
	}
	return m.rng.Bool(0.01)
}

// severityFor maps a missed file to the severity a user would report
// (§4.4), or to an automatic detection. Archive and background misses
// are often "not failures from the user's point of view" and surface as
// automatic detections only.
func severityFor(m *Machine, ev trace.Event, f *simfs.File, meaningful bool) (hoard.Severity, bool) {
	if !meaningful {
		return hoard.SeverityAuto, true
	}
	role := m.Gen.FileRole(f.Path)
	switch role {
	case workload.RoleMain:
		return hoard.Severity1, true
	case workload.RoleSource:
		return hoard.Severity2, true
	case workload.RoleHeader:
		if m.rng.Bool(0.5) {
			return hoard.Severity2, true
		}
		return hoard.Severity3, true
	case workload.RoleDoc:
		return hoard.Severity3, true
	case workload.RoleData:
		if m.rng.Bool(0.5) {
			return hoard.Severity3, true
		}
		return hoard.Severity4, true
	case workload.RoleObject:
		return hoard.Severity4, true
	case workload.RoleArchive:
		// Stale data the user barely needed: mostly an automatic
		// detection, occasionally a low-severity report.
		if m.rng.Bool(0.6) {
			return hoard.SeverityAuto, true
		}
		if m.rng.Bool(0.5) {
			return hoard.Severity3, true
		}
		return hoard.Severity4, true
	default:
		return hoard.SeverityAuto, true
	}
}

// Table3Row is one machine's disconnection statistics.
type Table3Row struct {
	Machine        string
	DaysMeasured   int
	Disconnections int
	TotalHours     float64
	MeanHours      float64
	MedianHours    float64
	StddevHours    float64
	MaxHours       float64
}

// Table3 summarizes the live disconnection behaviour (paper Table 3).
func (r *LiveResult) Table3(days int) Table3Row {
	var hours []float64
	for _, d := range r.Disconnections {
		hours = append(hours, d.Span.Duration().Hours())
	}
	s := stats.Summarize(hours)
	return Table3Row{
		Machine:        r.Machine,
		DaysMeasured:   days,
		Disconnections: s.N,
		TotalHours:     s.Total,
		MeanHours:      s.Mean,
		MedianHours:    s.Median,
		StddevHours:    s.Stddev,
		MaxHours:       s.Max,
	}
}

// Table4Row is one machine's failed-disconnection summary.
type Table4Row struct {
	Machine     string
	HoardSizeMB int64
	// BySeverity counts disconnections with at least one miss at each
	// user severity 0–4.
	BySeverity [5]int
	// AnySeverity counts disconnections with at least one user miss.
	AnySeverity int
	// Auto counts disconnections with at least one automatic detection.
	Auto int
}

// Table4 summarizes failed disconnections (paper Table 4).
func (r *LiveResult) Table4() Table4Row {
	row := Table4Row{Machine: r.Machine, HoardSizeMB: r.HoardSizeMB}
	for _, d := range r.Disconnections {
		counts := d.Misses.CountBySeverity()
		userAny := false
		for sev := 0; sev < 5; sev++ {
			if counts[hoard.Severity(sev)] > 0 {
				row.BySeverity[sev]++
				userAny = true
			}
		}
		if userAny {
			row.AnySeverity++
		}
		if counts[hoard.SeverityAuto] > 0 {
			row.Auto++
		}
	}
	return row
}

// Table5Row is time-to-first-miss statistics for one machine and
// severity (paper Table 5), in hours of active use.
type Table5Row struct {
	Machine  string
	Severity hoard.Severity
	Stats    stats.Summary
}

// Table5 collects first-miss times per severity across failed
// disconnections.
func (r *LiveResult) Table5() []Table5Row {
	sevs := []hoard.Severity{
		hoard.Severity0, hoard.Severity1, hoard.Severity2,
		hoard.Severity3, hoard.Severity4, hoard.SeverityAuto,
	}
	var rows []Table5Row
	for _, sev := range sevs {
		var hours []float64
		for _, d := range r.Disconnections {
			if m, ok := d.Misses.FirstMiss(sev); ok {
				hours = append(hours, m.SinceDisconnect.Hours())
			}
		}
		if len(hours) == 0 {
			continue
		}
		rows = append(rows, Table5Row{
			Machine:  r.Machine,
			Severity: sev,
			Stats:    stats.Summarize(hours),
		})
	}
	return rows
}
