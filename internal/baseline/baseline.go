// Package baseline implements the hoard managers SEER is compared
// against: the strict LRU manager used by early disconnected-operation
// systems (paper §6.1) and three schemes inspired by the CODA hoard
// priority formula (paper §5.1.2), operated — as in the paper's
// simulations — without the ongoing hand management they were designed
// to expect.
//
// Baselines deliberately consume the *raw* event stream, not the
// observer's cleaned references: the paper notes that directory scanners
// such as find "destroy any LRU history that might have been useful in
// hoarding decisions", and that this problem "is even more severe in
// LRU-based systems" (§4.1). Feeding baselines the raw stream reproduces
// exactly that weakness.
package baseline

import (
	"sort"
	"time"

	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/trace"
)

// Manager is a hoard manager under evaluation: it observes references
// and can produce a priority-ordered hoard plan at any time.
type Manager interface {
	// Name identifies the manager in reports.
	Name() string
	// Observe records one raw file reference.
	Observe(ev trace.Event, f *simfs.File)
	// Plan returns the current inclusion order.
	Plan() *hoard.Plan
}

// Rename wraps a manager under a different reporting name, e.g. to
// distinguish a hand-managed CODA configuration from the unmanaged one.
func Rename(m Manager, name string) Manager {
	return renamed{Manager: m, name: name}
}

type renamed struct {
	Manager
	name string
}

func (r renamed) Name() string { return r.name }

// refInfo is the recency record for one file.
type refInfo struct {
	file    *simfs.File
	lastSeq uint64
	last    time.Time
}

// recencyTable is the shared bookkeeping for recency-driven managers.
type recencyTable struct {
	refs map[simfs.FileID]*refInfo
}

func newRecencyTable() recencyTable {
	return recencyTable{refs: make(map[simfs.FileID]*refInfo)}
}

func (t *recencyTable) observe(ev trace.Event, f *simfs.File) {
	if f == nil || !ev.Op.IsFileRef() {
		return
	}
	switch ev.Op {
	case trace.OpClose, trace.OpChdir:
		return // closes carry no new reference information
	}
	if ev.Failed {
		return
	}
	ri := t.refs[f.ID]
	if ri == nil {
		ri = &refInfo{file: f}
		t.refs[f.ID] = ri
	}
	ri.lastSeq = ev.Seq
	ri.last = ev.Time
}

// sortedBy returns the live regular files ordered by the given less
// function (highest priority first).
func (t *recencyTable) sortedBy(less func(a, b *refInfo) bool) []*refInfo {
	out := make([]*refInfo, 0, len(t.refs))
	for _, ri := range t.refs {
		if ri.file.Exists && ri.file.Kind != simfs.Directory {
			out = append(out, ri)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func buildPlan(infos []*refInfo) *hoard.Plan {
	b := hoard.NewBuilder(len(infos))
	for _, ri := range infos {
		b.Add(ri.file, hoard.ReasonRecency, 0)
	}
	return b.Plan()
}

// LRU is the strict least-recently-used hoard manager: files are
// included in order of most recent reference (paper §5.1.2 step 1).
type LRU struct {
	recencyTable
}

// NewLRU returns an empty LRU manager.
func NewLRU() *LRU {
	return &LRU{recencyTable: newRecencyTable()}
}

// Name implements Manager.
func (m *LRU) Name() string { return "lru" }

// Observe implements Manager.
func (m *LRU) Observe(ev trace.Event, f *simfs.File) { m.observe(ev, f) }

// Plan implements Manager.
func (m *LRU) Plan() *hoard.Plan {
	infos := m.sortedBy(func(a, b *refInfo) bool {
		if a.lastSeq != b.lastSeq {
			return a.lastSeq > b.lastSeq
		}
		return a.file.Path < b.file.Path
	})
	return buildPlan(infos)
}

// Profile is a CODA-style hoard profile: a priority per path prefix.
// The paper's CODA users loaded profiles by hand at each attention
// shift; an unmanaged run uses an empty profile.
type Profile map[string]int64

// priorityOf returns the profile priority of a path: the priority of
// the longest matching prefix, or zero.
func (p Profile) priorityOf(path string) int64 {
	var best int64
	bestLen := -1
	for prefix, prio := range p {
		if len(prefix) > bestLen && hasPrefixDir(path, prefix) {
			best = prio
			bestLen = len(prefix)
		}
	}
	return best
}

func hasPrefixDir(path, prefix string) bool {
	if len(path) < len(prefix) || path[:len(prefix)] != prefix {
		return false
	}
	return len(path) == len(prefix) || path[len(prefix)] == '/'
}

// CodaStatic orders purely by profile priority (ties by path): the
// "assembly language" extreme where the reference stream is ignored and
// everything depends on hand-built profiles (paper §6.2). Unmanaged, it
// degenerates to alphabetical order.
type CodaStatic struct {
	recencyTable
	profile Profile
}

// NewCodaStatic returns the static-priority manager.
func NewCodaStatic(profile Profile) *CodaStatic {
	return &CodaStatic{recencyTable: newRecencyTable(), profile: profile}
}

// Name implements Manager.
func (m *CodaStatic) Name() string { return "coda-static" }

// Observe implements Manager.
func (m *CodaStatic) Observe(ev trace.Event, f *simfs.File) { m.observe(ev, f) }

// Plan implements Manager.
func (m *CodaStatic) Plan() *hoard.Plan {
	infos := m.sortedBy(func(a, b *refInfo) bool {
		pa, pb := m.profile.priorityOf(a.file.Path), m.profile.priorityOf(b.file.Path)
		if pa != pb {
			return pa > pb
		}
		return a.file.Path < b.file.Path
	})
	return buildPlan(infos)
}

// CodaBounded mixes profile priority with recency under a global bound:
// within the horizon recency orders files, beyond it only the profile
// priority matters ("a global bound arranged that for older files, the
// offset controlled the hoarding decision regardless of the original
// reference order", paper §6.2).
type CodaBounded struct {
	recencyTable
	profile Profile
	// Horizon is the bound in sequence numbers.
	Horizon uint64
	lastSeq uint64
}

// NewCodaBounded returns the bounded recency manager.
func NewCodaBounded(profile Profile, horizon uint64) *CodaBounded {
	if horizon == 0 {
		horizon = 10000
	}
	return &CodaBounded{
		recencyTable: newRecencyTable(),
		profile:      profile,
		Horizon:      horizon,
	}
}

// Name implements Manager.
func (m *CodaBounded) Name() string { return "coda-bounded" }

// Observe implements Manager.
func (m *CodaBounded) Observe(ev trace.Event, f *simfs.File) {
	if ev.Seq > m.lastSeq {
		m.lastSeq = ev.Seq
	}
	m.observe(ev, f)
}

// Plan implements Manager.
func (m *CodaBounded) Plan() *hoard.Plan {
	infos := m.sortedBy(func(a, b *refInfo) bool {
		pa, pb := m.profile.priorityOf(a.file.Path), m.profile.priorityOf(b.file.Path)
		ra, rb := m.boundedRecency(a), m.boundedRecency(b)
		if pa != pb {
			return pa > pb
		}
		if ra != rb {
			return ra > rb
		}
		return a.file.Path < b.file.Path
	})
	return buildPlan(infos)
}

func (m *CodaBounded) boundedRecency(ri *refInfo) uint64 {
	age := m.lastSeq - ri.lastSeq
	if age >= m.Horizon {
		return 0 // beyond the bound all files look alike
	}
	return m.Horizon - age
}

// CodaBucket coarsens recency into day-granularity buckets combined
// with profile priority: within a day files are indistinguishable, so
// the manager loses the fine ordering LRU exploits.
type CodaBucket struct {
	recencyTable
	profile Profile
	// Bucket is the coarsening interval.
	Bucket time.Duration
}

// NewCodaBucket returns the bucketed recency manager.
func NewCodaBucket(profile Profile, bucket time.Duration) *CodaBucket {
	if bucket <= 0 {
		bucket = 24 * time.Hour
	}
	return &CodaBucket{
		recencyTable: newRecencyTable(),
		profile:      profile,
		Bucket:       bucket,
	}
}

// Name implements Manager.
func (m *CodaBucket) Name() string { return "coda-bucket" }

// Observe implements Manager.
func (m *CodaBucket) Observe(ev trace.Event, f *simfs.File) { m.observe(ev, f) }

// Plan implements Manager.
func (m *CodaBucket) Plan() *hoard.Plan {
	infos := m.sortedBy(func(a, b *refInfo) bool {
		pa, pb := m.profile.priorityOf(a.file.Path), m.profile.priorityOf(b.file.Path)
		ba := a.last.UnixNano() / int64(m.Bucket)
		bb := b.last.UnixNano() / int64(m.Bucket)
		if pa != pb {
			return pa > pb
		}
		if ba != bb {
			return ba > bb
		}
		return a.file.Path < b.file.Path
	})
	return buildPlan(infos)
}
