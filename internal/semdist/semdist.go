// Package semdist maintains SEER's semantic-distance tables.
//
// Individual distance samples between file references (produced by
// internal/proc according to Definition 3) are reduced to a single
// relationship per file pair using a geometric mean, which gives small
// distances the dominant weight (paper §3.1.2). To avoid the O(N²)
// storage of all pairwise distances, each file keeps only its n closest
// neighbors (n = 20), with a replacement priority of deletion-marked
// entries first, then the largest-distance entry (ties broken randomly),
// then aged-out entries (paper §3.1.3).
//
// The per-file state lives in a dense slice indexed through a single
// FileID → index map; neighbor lists are short (n ≤ a few dozen), so
// membership tests are linear scans rather than per-file maps. Both
// choices cut the allocation count per tracked file from several map
// headers to one slice, which is what makes clustering-scale tables
// (20k files) cheap to build and walk.
package semdist

import (
	"math"
	"sort"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
)

// Neighbor is one entry of a file's closest-neighbor list.
type Neighbor struct {
	ID simfs.FileID
	// count is the number of samples, held as an int32 beside the
	// 32-bit ID so the entry stays 32 bytes; it saturates at MaxInt32.
	count int32
	// sumLog accumulates log(1+d) over samples; the geometric-mean
	// distance is exp(sumLog/count) − 1, so distance-0 samples are
	// representable and pull the mean strongly toward zero.
	sumLog float64
	// dist caches exp(sumLog/count) − 1. Every change to sumLog or count
	// is followed by reduce, so Distance — read once per incumbent on
	// every replacement scan — is a pure load rather than an exp.
	dist float64
	// lastUpdate is the global open counter at the last sample; entries
	// that have not been refreshed within AgeLimit opens may be replaced
	// by newer relationships.
	lastUpdate uint64
}

// Distance returns the geometric-mean semantic distance of this entry.
func (nb *Neighbor) Distance() float64 {
	if nb.count == 0 {
		return math.Inf(1)
	}
	return nb.dist
}

// reduce recomputes the cached geometric-mean distance from sumLog and
// count.
func (nb *Neighbor) reduce() {
	nb.dist = math.Exp(nb.sumLog/float64(nb.count)) - 1
}

// Count returns the number of samples reduced into this entry.
func (nb *Neighbor) Count() int64 { return int64(nb.count) }

// entry is the per-file state: its neighbor list. Membership tests are
// linear scans — the list is capped at NeighborTableSize.
type entry struct {
	id        simfs.FileID
	neighbors []Neighbor
}

// findNeighbor returns the position of id on the list, or -1.
func (e *entry) findNeighbor(id simfs.FileID) int {
	for i := range e.neighbors {
		if e.neighbors[i].ID == id {
			return i
		}
	}
	return -1
}

// Table is the semantic-distance store for all files.
type Table struct {
	p   config.Params
	rng *stats.Rand

	// idx maps a file to its slot in entries; slots are never reused, so
	// a forgotten file leaves a zeroed hole that only idx can reach (it
	// can't — the key is deleted).
	idx     map[simfs.FileID]int32
	entries []entry
	// filesCache is the sorted id list Files() returns, rebuilt lazily
	// after an entry is added or forgotten.
	filesCache []simfs.FileID
	// opens is the global open counter used for aging.
	opens uint64
	// marked files are flagged for deletion: their neighbor entries are
	// first-priority replacement victims, and after DeletionDelay
	// further deletions they are forgotten entirely (paper §4.8).
	marked map[simfs.FileID]bool
	// forgotten files have been fully removed; lazy cleanup drops them
	// from other files' neighbor lists as those lists are touched.
	forgotten map[simfs.FileID]bool
	// deleteQueue orders marked files for eventual forgetting.
	deleteQueue []simfs.FileID

	// pending journals the files whose list membership (or existence)
	// changed since the last TakeChanged drain — exactly the set an
	// incremental clustering must re-score. pendingSeen dedups it.
	pending     []simfs.FileID
	pendingSeen map[simfs.FileID]bool
}

// NewTable returns an empty table using the given parameters. The rng
// breaks replacement ties; pass a seeded stats.Rand for reproducible
// experiments.
func NewTable(p config.Params, rng *stats.Rand) *Table {
	if rng == nil {
		rng = stats.NewRand(0)
	}
	return &Table{
		p:           p,
		rng:         rng,
		idx:         make(map[simfs.FileID]int32),
		marked:      make(map[simfs.FileID]bool),
		forgotten:   make(map[simfs.FileID]bool),
		pendingSeen: make(map[simfs.FileID]bool),
	}
}

// touch journals id for the next TakeChanged drain: its neighbor-list
// membership (or its existence) changed. Sample updates to an existing
// neighbor do not call it: clustering only reads list membership.
func (t *Table) touch(id simfs.FileID) {
	if !t.pendingSeen[id] {
		t.pendingSeen[id] = true
		t.pending = append(t.pending, id)
	}
}

// Has reports whether the table holds relationship state for id (i.e.
// id appears in Files()).
func (t *Table) Has(id simfs.FileID) bool {
	_, ok := t.idx[id]
	return ok
}

// TakeChanged appends the files whose neighbor-list membership changed
// since the previous call to dst, returns the extended slice, and resets
// the journal. The order is the order the changes were first observed.
// An incremental clustering drains this to learn which files to
// re-score; a full rebuild drains and discards it.
func (t *Table) TakeChanged(dst []simfs.FileID) []simfs.FileID {
	dst = append(dst, t.pending...)
	t.pending = t.pending[:0]
	clear(t.pendingSeen)
	return dst
}

// PendingChanges returns how many files are currently journaled.
func (t *Table) PendingChanges() int { return len(t.pending) }

// Len returns the number of files with relationship state.
func (t *Table) Len() int { return len(t.idx) }

// Opens returns the global open counter.
func (t *Table) Opens() uint64 { return t.opens }

// TickOpen advances the global open counter; the correlator calls it
// once per observed file open, giving aging a uniform clock.
func (t *Table) TickOpen() { t.opens++ }

// entryOf returns the entry for id, or nil. The pointer is valid only
// until the next addEntry.
func (t *Table) entryOf(id simfs.FileID) *entry {
	i, ok := t.idx[id]
	if !ok {
		return nil
	}
	return &t.entries[i]
}

// addEntry creates the entry for id and returns its slot. The new file
// is journaled: it now appears in Files() and deserves (at least) a
// singleton cluster.
func (t *Table) addEntry(id simfs.FileID) int32 {
	i := int32(len(t.entries))
	t.entries = append(t.entries, entry{id: id})
	t.idx[id] = i
	t.filesCache = nil
	t.touch(id)
	return i
}

// Observe records one distance sample from → to. Clamped samples (the
// window compensation of §3.1.3) only update relationships that already
// exist; they never create a new neighbor entry.
func (t *Table) Observe(from, to simfs.FileID, d float64, clamped bool) {
	if from == to || t.forgotten[from] || t.forgotten[to] {
		return
	}
	ei, ok := t.idx[from]
	if !ok {
		if clamped {
			return
		}
		ei = t.addEntry(from)
	}
	e := &t.entries[ei]
	t.cleanForgotten(e)
	if i := e.findNeighbor(to); i >= 0 {
		nb := &e.neighbors[i]
		// A saturated entry keeps its mean and only refreshes its age.
		if nb.count < math.MaxInt32 {
			nb.sumLog += math.Log1p(d)
			nb.count++
			nb.reduce()
		}
		nb.lastUpdate = t.opens
		return
	}
	if clamped {
		return
	}
	t.insert(e, to, d)
}

// insert places a brand-new relationship, evicting per the replacement
// priority when the list is full.
func (t *Table) insert(e *entry, to simfs.FileID, d float64) {
	nb := Neighbor{ID: to, sumLog: math.Log1p(d), count: 1, lastUpdate: t.opens}
	nb.reduce()
	if len(e.neighbors) < t.p.NeighborTableSize {
		if e.neighbors == nil {
			// The list will grow to the cap and stay there; size it once
			// instead of paying the append doubling sequence per file.
			e.neighbors = make([]Neighbor, 0, t.p.NeighborTableSize)
		}
		e.neighbors = append(e.neighbors, nb)
		t.touch(e.id)
		return
	}
	victim := t.chooseVictim(e, d)
	if victim < 0 {
		return // no candidate: drop the new observation
	}
	e.neighbors[victim] = nb
	t.touch(e.id)
}

// chooseVictim implements the replacement priority of §3.1.3:
//  1. an entry whose file is marked for deletion;
//  2. the entry with the largest geometric-mean distance (ties broken
//     randomly), if that distance exceeds the candidate's;
//  3. an entry unrefreshed for longer than AgeLimit opens.
//
// It returns -1 when the new candidate loses to every incumbent.
func (t *Table) chooseVictim(e *entry, candidate float64) int {
	maxIdx := -1
	maxDist := math.Inf(-1)
	ties := 0
	oldestIdx := -1
	var oldestAge uint64
	for i := range e.neighbors {
		nb := &e.neighbors[i]
		if t.marked[nb.ID] {
			return i
		}
		dist := nb.Distance()
		switch {
		case dist > maxDist:
			maxDist = dist
			maxIdx = i
			ties = 1
		case dist == maxDist:
			// Reservoir-sample among ties for a uniformly random pick.
			ties++
			if t.rng.Intn(ties) == 0 {
				maxIdx = i
			}
		}
		age := t.opens - nb.lastUpdate
		if age > oldestAge {
			oldestAge = age
			oldestIdx = i
		}
	}
	if maxIdx >= 0 && maxDist > candidate {
		return maxIdx
	}
	if oldestIdx >= 0 && oldestAge > t.p.AgeLimit {
		return oldestIdx
	}
	return -1
}

// cleanForgotten drops neighbors that have been fully forgotten.
func (t *Table) cleanForgotten(e *entry) {
	if len(t.forgotten) == 0 {
		return
	}
	kept := e.neighbors[:0]
	for _, nb := range e.neighbors {
		if t.forgotten[nb.ID] {
			continue
		}
		kept = append(kept, nb)
	}
	e.neighbors = kept
}

// Neighbors returns the ids on the file's closest-neighbor list, i.e.
// the files this file considers related. Forgotten files are filtered.
func (t *Table) Neighbors(id simfs.FileID) []simfs.FileID {
	e := t.entryOf(id)
	if e == nil {
		return nil
	}
	t.cleanForgotten(e)
	out := make([]simfs.FileID, len(e.neighbors))
	for i := range e.neighbors {
		out[i] = e.neighbors[i].ID
	}
	return out
}

// AppendNeighbors appends the ids on the file's closest-neighbor list
// to dst and returns the extended slice. It is the allocation-free form
// of Neighbors used by the clustering pass (cluster.AppendSource).
func (t *Table) AppendNeighbors(id simfs.FileID, dst []simfs.FileID) []simfs.FileID {
	e := t.entryOf(id)
	if e == nil {
		return dst
	}
	t.cleanForgotten(e)
	for i := range e.neighbors {
		dst = append(dst, e.neighbors[i].ID)
	}
	return dst
}

// NeighborEntries returns copies of the file's neighbor entries sorted
// by increasing distance; inspection tooling uses this.
func (t *Table) NeighborEntries(id simfs.FileID) []Neighbor {
	e := t.entryOf(id)
	if e == nil {
		return nil
	}
	t.cleanForgotten(e)
	out := make([]Neighbor, len(e.neighbors))
	copy(out, e.neighbors)
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Distance(), out[j].Distance()
		if di != dj {
			return di < dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Distance returns the reduced semantic distance from → to and whether
// the relationship is known.
func (t *Table) Distance(from, to simfs.FileID) (float64, bool) {
	e := t.entryOf(from)
	if e == nil {
		return 0, false
	}
	i := e.findNeighbor(to)
	if i < 0 || t.forgotten[to] {
		return 0, false
	}
	return e.neighbors[i].Distance(), true
}

// MarkDeleted flags a deleted file. Its relationship data survives for
// DeletionDelay further deletions (many programs delete and immediately
// recreate files, paper §4.8) but its neighbor entries become priority
// eviction victims immediately.
func (t *Table) MarkDeleted(id simfs.FileID) {
	if t.marked[id] || t.forgotten[id] {
		return
	}
	t.marked[id] = true
	t.deleteQueue = append(t.deleteQueue, id)
	for len(t.deleteQueue) > t.p.DeletionDelay {
		victim := t.deleteQueue[0]
		t.deleteQueue = t.deleteQueue[1:]
		t.forget(victim)
	}
}

// Revive cancels a pending deletion: the file was recreated before the
// delay expired, so its relationships are retained.
func (t *Table) Revive(id simfs.FileID) {
	if !t.marked[id] {
		return
	}
	delete(t.marked, id)
	for i, q := range t.deleteQueue {
		if q == id {
			t.deleteQueue = append(t.deleteQueue[:i], t.deleteQueue[i+1:]...)
			break
		}
	}
}

// forget removes a file's state entirely. Only the forgotten id itself
// is journaled: other lists still naming it are cleaned lazily, and the
// incremental path discovers them through its reverse index.
func (t *Table) forget(id simfs.FileID) {
	if !t.marked[id] {
		return // revived in the meantime
	}
	delete(t.marked, id)
	if i, ok := t.idx[id]; ok {
		t.entries[i] = entry{} // free the slot's memory; idx no longer reaches it
		delete(t.idx, id)
		t.filesCache = nil
	}
	t.forgotten[id] = true
	t.touch(id)
}

// Forgotten reports whether the file has been fully removed.
func (t *Table) Forgotten(id simfs.FileID) bool { return t.forgotten[id] }

// Files returns the ids of all files with relationship state, sorted
// for deterministic iteration. The result is cached until the file set
// changes; callers must not modify it.
func (t *Table) Files() []simfs.FileID {
	if t.filesCache == nil {
		out := make([]simfs.FileID, 0, len(t.idx))
		for id := range t.idx {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		t.filesCache = out
	}
	return t.filesCache
}
