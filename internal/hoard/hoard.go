// Package hoard manages hoard contents and miss accounting.
//
// A hoard manager (SEER's correlator or a baseline) produces a Plan: a
// priority-ordered inclusion list of files. Filling a hoard takes a plan
// and a byte budget; the miss-free hoard size of paper §5.1.2 falls out
// of the same plan by locating the last file in priority order that the
// user actually referenced during a disconnection.
//
// The package also implements the miss log of §4.4: manual miss reports
// with severities 0–4, and automatic detection of accesses to files that
// are known to exist but are absent from the hoard.
package hoard

import (
	"fmt"
	"time"

	"github.com/fmg/seer/internal/simfs"
)

// Reason explains why a plan entry is included at its position.
type Reason uint8

// The inclusion reasons.
const (
	// ReasonAlways marks frequent files, critical files and non-file
	// objects hoarded regardless of reference behaviour.
	ReasonAlways Reason = iota
	// ReasonCluster marks a member of an active project cluster.
	ReasonCluster
	// ReasonRecency marks a file included by recency order (the LRU
	// tail behind the clusters, or everything for the LRU baseline).
	ReasonRecency
)

// String returns the reason name.
func (r Reason) String() string {
	switch r {
	case ReasonAlways:
		return "always"
	case ReasonCluster:
		return "cluster"
	case ReasonRecency:
		return "recency"
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Entry is one file in a plan's priority order.
type Entry struct {
	File *simfs.File
	// Cum is the cumulative size in bytes including this file.
	Cum int64
	// Reason explains the inclusion.
	Reason Reason
	// Cluster is the project cluster id for ReasonCluster entries.
	Cluster int
}

// Plan is a priority-ordered inclusion list. Entries appear once per
// file, highest priority first; directories and deleted files are not
// planned (directories are left to the replication substrate, §4.6).
type Plan struct {
	Entries []Entry
	index   map[simfs.FileID]int
}

// Builder accumulates plan entries, skipping duplicates, directories,
// and files that no longer exist.
type Builder struct {
	plan Plan
	cum  int64
}

// NewBuilder returns an empty plan builder sized for n files.
func NewBuilder(n int) *Builder {
	return &Builder{plan: Plan{
		Entries: make([]Entry, 0, n),
		index:   make(map[simfs.FileID]int, n),
	}}
}

// Add appends f to the plan if it is a plannable, not-yet-planned file.
// It reports whether the file was added.
func (b *Builder) Add(f *simfs.File, reason Reason, clusterID int) bool {
	if f == nil || !f.Exists {
		return false
	}
	if f.Kind == simfs.Directory {
		return false
	}
	if _, dup := b.plan.index[f.ID]; dup {
		return false
	}
	b.cum += f.Size
	b.plan.index[f.ID] = len(b.plan.Entries)
	b.plan.Entries = append(b.plan.Entries, Entry{
		File: f, Cum: b.cum, Reason: reason, Cluster: clusterID,
	})
	return true
}

// Plan finalizes and returns the plan.
func (b *Builder) Plan() *Plan {
	p := b.plan
	return &p
}

// Len returns the number of planned files.
func (p *Plan) Len() int { return len(p.Entries) }

// TotalBytes returns the size of the complete plan.
func (p *Plan) TotalBytes() int64 {
	if len(p.Entries) == 0 {
		return 0
	}
	return p.Entries[len(p.Entries)-1].Cum
}

// Rank returns the position of the file in the plan, or -1.
func (p *Plan) Rank(id simfs.FileID) int {
	if i, ok := p.index[id]; ok {
		return i
	}
	return -1
}

// MissFreeSize returns the hoard size in bytes that would have avoided
// every miss for the given set of referenced files (paper §5.1.2): the
// cumulative size at the deepest referenced plan entry. Referenced files
// absent from the plan are unhoardable (they did not exist or were never
// known at hoard time) and are reported separately.
func (p *Plan) MissFreeSize(referenced []simfs.FileID) (size int64, unhoardable int) {
	deepest := -1
	for _, id := range referenced {
		i, ok := p.index[id]
		if !ok {
			unhoardable++
			continue
		}
		if i > deepest {
			deepest = i
		}
	}
	if deepest < 0 {
		return 0, unhoardable
	}
	return p.Entries[deepest].Cum, unhoardable
}

// Fill returns the hoard contents for the given byte budget: the plan
// prefix that fits. wholeClusters controls cluster atomicity: when true,
// a cluster whose remaining members do not all fit is skipped entirely
// (only complete projects are hoarded, paper §2) and filling continues
// with later entries; when false filling is a pure prefix.
func (p *Plan) Fill(budget int64, wholeClusters bool) *Contents {
	c := &Contents{
		files:  make(map[simfs.FileID]bool),
		budget: budget,
	}
	if !wholeClusters {
		for _, e := range p.Entries {
			if c.used+e.File.Size > budget {
				break
			}
			c.add(e.File)
		}
		return c
	}
	// Group consecutive entries of the same cluster; admit a cluster's
	// run only if the whole run fits.
	i := 0
	for i < len(p.Entries) {
		e := p.Entries[i]
		if e.Reason != ReasonCluster {
			if c.used+e.File.Size <= budget {
				c.add(e.File)
			} else if e.Reason == ReasonRecency {
				// Recency tail is a strict prefix: stop at first misfit.
				break
			}
			i++
			continue
		}
		j := i
		var runSize int64
		for j < len(p.Entries) && p.Entries[j].Reason == ReasonCluster &&
			p.Entries[j].Cluster == e.Cluster {
			runSize += p.Entries[j].File.Size
			j++
		}
		if c.used+runSize <= budget {
			for k := i; k < j; k++ {
				c.add(p.Entries[k].File)
			}
		}
		i = j
	}
	return c
}

// Contents is a filled hoard.
type Contents struct {
	files  map[simfs.FileID]bool
	order  []simfs.FileID // files in the order Fill admitted them
	used   int64
	budget int64
}

func (c *Contents) add(f *simfs.File) {
	c.files[f.ID] = true
	c.order = append(c.order, f.ID)
	c.used += f.Size
}

// Has reports whether the file is hoarded.
func (c *Contents) Has(id simfs.FileID) bool { return c.files[id] }

// Len returns the number of hoarded files.
func (c *Contents) Len() int { return len(c.files) }

// UsedBytes returns the bytes consumed.
func (c *Contents) UsedBytes() int64 { return c.used }

// Budget returns the configured budget.
func (c *Contents) Budget() int64 { return c.budget }

// IDs returns the hoarded file ids in the order Fill admitted them —
// plan order, so the hoard's head comes first — as a fresh slice.
func (c *Contents) IDs() []simfs.FileID {
	return append([]simfs.FileID(nil), c.order...)
}

// ContentsOf builds a membership-only Contents from a list of file ids,
// keeping their order; size accounting is not preserved. Diff uses it
// to compare a new fill against a remembered previous one.
func ContentsOf(ids []simfs.FileID) *Contents {
	c := &Contents{files: make(map[simfs.FileID]bool, len(ids))}
	for _, id := range ids {
		if !c.files[id] {
			c.files[id] = true
			c.order = append(c.order, id)
		}
	}
	return c
}

// Diff compares a new fill against the previous one and returns the
// files to fetch (newly hoarded) and to evict (no longer hoarded) — the
// instructions handed to the replication substrate.
func Diff(prev, next *Contents) (fetch, evict []simfs.FileID) {
	if next != nil {
		for _, id := range next.order {
			if prev == nil || !prev.files[id] {
				fetch = append(fetch, id)
			}
		}
	}
	if prev != nil {
		for _, id := range prev.order {
			if next == nil || !next.files[id] {
				evict = append(evict, id)
			}
		}
	}
	return fetch, evict
}

// Severity grades a hoard miss (paper §4.4).
type Severity int

// The severity levels, quoted from the paper.
const (
	// Severity0: the lack of the file has made the entire computer
	// unusable.
	Severity0 Severity = iota
	// Severity1: the current task will change because of the missing
	// file.
	Severity1
	// Severity2: the task will remain the same, but activity within the
	// task will be modified.
	Severity2
	// Severity3: the lack of the file will cause little or no trouble.
	Severity3
	// Severity4: the file isn't actually needed now, but the hoard
	// should be preloaded so it is available in the future.
	Severity4
	// SeverityAuto marks automatically detected misses (the backup
	// mechanism of §4.4): a reference to a file known to exist but
	// absent from the hoard.
	SeverityAuto
)

// String returns the severity label used in the paper's tables.
func (s Severity) String() string {
	if s == SeverityAuto {
		return "Auto"
	}
	return fmt.Sprintf("%d", int(s))
}

// Miss is one hoard-miss record.
type Miss struct {
	Time     time.Time
	File     simfs.FileID
	Path     string
	Severity Severity
	// SinceDisconnect is the active (non-suspended) time between the
	// disconnection and the miss, the paper's time-to-first-miss input.
	SinceDisconnect time.Duration
}

// MissLog accumulates misses for one disconnection period.
type MissLog struct {
	Misses []Miss
	// seen suppresses duplicate automatic reports for the same file
	// within one disconnection.
	seen map[simfs.FileID]bool
}

// NewMissLog returns an empty log.
func NewMissLog() *MissLog {
	return &MissLog{seen: make(map[simfs.FileID]bool)}
}

// Record appends a miss. The same user action records the miss and
// arranges for the file to be hoarded at reconnection (§4.4), so the
// caller should also queue the file for the next hoard fill. Duplicate
// reports for a file already recorded this period are dropped.
func (l *MissLog) Record(m Miss) bool {
	if l.seen[m.File] {
		return false
	}
	l.seen[m.File] = true
	l.Misses = append(l.Misses, m)
	return true
}

// Failed reports whether the period experienced at least one miss at a
// user-reported severity (the paper's "failed disconnection"), and
// whether it had any automatic detections.
func (l *MissLog) Failed() (userFailed, autoDetected bool) {
	for _, m := range l.Misses {
		if m.Severity == SeverityAuto {
			autoDetected = true
		} else {
			userFailed = true
		}
	}
	return userFailed, autoDetected
}

// CountBySeverity returns the number of misses at each severity.
func (l *MissLog) CountBySeverity() map[Severity]int {
	out := make(map[Severity]int)
	for _, m := range l.Misses {
		out[m.Severity]++
	}
	return out
}

// FirstMiss returns the earliest miss at the given severity and whether
// one exists.
func (l *MissLog) FirstMiss(sev Severity) (Miss, bool) {
	var best Miss
	found := false
	for _, m := range l.Misses {
		if m.Severity != sev {
			continue
		}
		if !found || m.SinceDisconnect < best.SinceDisconnect {
			best = m
			found = true
		}
	}
	return best, found
}
