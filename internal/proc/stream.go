// Package proc maintains per-process reference streams.
//
// A modern multitasking user generates multiple independent reference
// streams at once (reading mail while a compilation runs), and feeding
// the interleaved stream to the semantic-distance calculation creates
// spurious relationships (paper §4.7). SEER therefore keeps a separate
// reference history per process, computes lifetime semantic distance
// (paper Definition 3) on a process-local basis, inherits histories from
// parent processes on fork, and merges them back when children exit.
package proc

import (
	"container/list"
	"sort"

	"github.com/fmg/seer/internal/simfs"
)

// compensationFactor extends the lookback beyond the window M: pairs at
// distance (M, compensationFactor*M] are reported clamped to M so the
// semantic-distance table can apply the paper's partial-adjustment rule
// ("inserting M whenever a value larger than M would have occurred",
// §3.1.3) to already-known neighbors.
const compensationFactor = 4

// Mode selects which of the paper's semantic-distance definitions the
// stream computes (§3.1.1).
type Mode uint8

// The distance modes.
const (
	// Lifetime is Definition 3, the paper's choice: 0 while the earlier
	// file is still open, otherwise the count of intervening opens.
	Lifetime Mode = iota
	// Sequence is Definition 2: the count of intervening opens, with no
	// special treatment of files still open. The compile case (a source
	// held open across its headers) degrades under it.
	Sequence
	// Temporal is Definition 1: elapsed clock time between references,
	// in seconds. Subject to human-vs-computer time-scale distortion
	// (telephone interruptions, system load).
	Temporal
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Lifetime:
		return "lifetime"
	case Sequence:
		return "sequence"
	case Temporal:
		return "temporal"
	}
	return "mode?"
}

// RefPair is one directed distance sample produced by an open: the
// reference stream observed that From was referenced Dist opens before
// the file just opened.
type RefPair struct {
	From simfs.FileID
	Dist float64
	// Clamped marks compensation pairs (true distance exceeded the
	// window M and was clamped); the distance table only applies these
	// to neighbor relationships that already exist.
	Clamped bool
}

// distinctRef is a node in the recency list: the most recent open of a
// file in this stream.
type distinctRef struct {
	file simfs.FileID
	seq  uint64 // stream-local open sequence number of that open
	// sec is the wall-clock second of that open (Temporal mode).
	sec float64
}

// Stream is the reference history of one process.
type Stream struct {
	window int
	mode   Mode
	// now is the wall-clock position (seconds) of the current event,
	// used by the Temporal mode; callers set it via SetNow.
	now float64
	// opens counts file opens in this stream; lifetime semantic
	// distance is a difference of these counts (Definition 3).
	opens uint64
	// recency lists distinct files by most-recent open, newest first.
	recency *list.List
	nodes   map[simfs.FileID]*list.Element
	// openFiles counts outstanding opens per file: a file that is still
	// open when another is opened yields distance 0 no matter how long
	// ago its open happened (the compilation example of §3.1.1).
	openFiles map[simfs.FileID]int
	// forkSeq is the value of opens when this stream was forked from a
	// parent; opens after this point are replayed into the parent when
	// the child exits.
	forkSeq uint64
}

// NewStream returns an empty stream with lookback window M computing
// lifetime distance (Definition 3).
func NewStream(window int) *Stream {
	return NewStreamMode(window, Lifetime)
}

// NewStreamMode returns an empty stream computing the given definition.
func NewStreamMode(window int, mode Mode) *Stream {
	if window < 1 {
		window = 1
	}
	return &Stream{
		window:    window,
		mode:      mode,
		recency:   list.New(),
		nodes:     make(map[simfs.FileID]*list.Element),
		openFiles: make(map[simfs.FileID]int),
	}
}

// SetNow positions the stream's wall clock (seconds); only the Temporal
// mode (Definition 1) consumes it.
func (s *Stream) SetNow(sec float64) { s.now = sec }

// Opens returns the number of opens recorded in this stream.
func (s *Stream) Opens() uint64 { return s.opens }

// OpenCount returns the number of outstanding opens of f.
func (s *Stream) OpenCount(f simfs.FileID) int { return s.openFiles[f] }

// Open records an open of f and returns the distance samples from prior
// references to this one: 0 for every file still open, the open-count
// difference for files closed within the window, and clamped samples
// within the compensation region.
func (s *Stream) Open(f simfs.FileID) []RefPair {
	s.opens++
	seq := s.opens
	pairs := s.collectPairs(f, seq)
	s.record(f, seq)
	s.openFiles[f]++
	return pairs
}

// record moves f to the front of the recency list with the given seq and
// prunes entries that have receded beyond the compensation region.
func (s *Stream) record(f simfs.FileID, seq uint64) {
	if el, ok := s.nodes[f]; ok {
		ref := el.Value.(*distinctRef)
		ref.seq = seq
		ref.sec = s.now
		s.recency.MoveToFront(el)
	} else {
		s.nodes[f] = s.recency.PushFront(&distinctRef{file: f, seq: seq, sec: s.now})
	}
	s.prune(seq)
}

func (s *Stream) prune(now uint64) {
	horizon := uint64(compensationFactor * s.window)
	for back := s.recency.Back(); back != nil; back = s.recency.Back() {
		ref := back.Value.(*distinctRef)
		if now-ref.seq <= horizon {
			return
		}
		// Files still open must survive pruning: they produce distance
		// 0 however old their open is.
		if s.openFiles[ref.file] > 0 {
			// Move it just before the horizon boundary conceptually by
			// leaving it; stop pruning to keep the list ordered.
			return
		}
		s.recency.Remove(back)
		delete(s.nodes, ref.file)
	}
}

func (s *Stream) collectPairs(f simfs.FileID, seq uint64) []RefPair {
	var pairs []RefPair
	// Definition 3 only: every currently open file relates at distance
	// 0 no matter how long ago its open was. Iterate in id order — map
	// order would randomize neighbor-table insertion order and with it
	// the whole downstream clustering.
	pairedOpen := s.mode == Lifetime && len(s.openFiles) > 0
	if pairedOpen {
		ids := make([]simfs.FileID, 0, len(s.openFiles))
		for of, n := range s.openFiles {
			if n > 0 && of != f {
				ids = append(ids, of)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, of := range ids {
			pairs = append(pairs, RefPair{From: of, Dist: 0})
		}
	}
	window := uint64(s.window)
	horizon := uint64(compensationFactor * s.window)
	// The recency list holds each file once (record dedups through
	// nodes), so the only files to skip are f itself and, under
	// Definition 3, the open files already paired at distance 0.
	for el := s.recency.Front(); el != nil; el = el.Next() {
		ref := el.Value.(*distinctRef)
		if ref.file == f || pairedOpen && s.openFiles[ref.file] > 0 {
			continue
		}
		delta := seq - ref.seq
		switch {
		case delta <= window:
			pairs = append(pairs, RefPair{From: ref.file, Dist: s.distance(ref, delta)})
		case delta <= horizon:
			pairs = append(pairs, RefPair{From: ref.file, Dist: s.distance(ref, window), Clamped: true})
		default:
			// Recency-ordered: everything further back is older still,
			// except possibly stale open-file nodes already handled.
			if s.openFiles[ref.file] == 0 {
				return pairs
			}
		}
	}
	return pairs
}

// distance converts an open-count delta into the mode's distance value.
func (s *Stream) distance(ref *distinctRef, delta uint64) float64 {
	if s.mode == Temporal {
		// Definition 1: elapsed clock time, in seconds.
		d := s.now - ref.sec
		if d < 0 {
			d = 0
		}
		return d
	}
	return float64(delta)
}

// Skip records an open that must count as an intervening reference for
// Definition 3 without itself forming relationships: opens of
// frequently-referenced files such as shared libraries (§4.2) and other
// excluded objects. The open advances the stream's counter — pushing
// later pairs farther apart — but the file never enters the recency
// list.
func (s *Stream) Skip() { s.opens++ }

// Close records a close of f. Extra closes are ignored.
func (s *Stream) Close(f simfs.FileID) {
	if s.openFiles[f] > 0 {
		s.openFiles[f]--
		if s.openFiles[f] == 0 {
			delete(s.openFiles, f)
		}
	}
}

// PointRef records an instantaneous reference (open immediately followed
// by close): renames, attribute examinations, deletions (paper §4.8).
func (s *Stream) PointRef(f simfs.FileID) []RefPair {
	pairs := s.Open(f)
	s.Close(f)
	return pairs
}

// Fork returns a child stream that inherits this stream's reference
// history and open-file table (paper §4.7).
func (s *Stream) Fork() *Stream {
	c := NewStreamMode(s.window, s.mode)
	c.opens = s.opens
	c.now = s.now
	c.forkSeq = s.opens
	for el := s.recency.Back(); el != nil; el = el.Prev() {
		ref := el.Value.(*distinctRef)
		c.nodes[ref.file] = c.recency.PushFront(&distinctRef{file: ref.file, seq: ref.seq})
	}
	for f, n := range s.openFiles {
		c.openFiles[f] = n
	}
	return c
}

// MergeChild folds an exited child's post-fork references into this
// stream so later parent references can relate to files the child
// touched. Distances were already computed inside the child; the merge
// is bookkeeping only and generates no new samples.
func (s *Stream) MergeChild(c *Stream) {
	if c == nil {
		return
	}
	type rec struct {
		file simfs.FileID
		seq  uint64
	}
	var recs []rec
	for el := c.recency.Front(); el != nil; el = el.Next() {
		ref := el.Value.(*distinctRef)
		if ref.seq > c.forkSeq {
			recs = append(recs, rec{ref.file, ref.seq})
		}
	}
	// Replay in the child's chronological order, preserving the child's
	// open-count spacing so its activity does not compact into an
	// artificially tight run at the parent's session boundary.
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	base := s.opens
	for _, r := range recs {
		s.record(r.file, base+(r.seq-c.forkSeq))
	}
	if c.opens > c.forkSeq {
		s.opens = base + (c.opens - c.forkSeq)
	}
}

// Recent returns the distinct files in the stream's lookback region,
// newest first. Used by inspection tooling.
func (s *Stream) Recent() []simfs.FileID {
	out := make([]simfs.FileID, 0, s.recency.Len())
	for el := s.recency.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*distinctRef).file)
	}
	return out
}
