// Package observer implements SEER's observation layer: it watches the
// raw trace-event stream, classifies each access, converts pathnames to
// absolute form, and emits cleaned references for the correlator.
//
// Most of the paper's "real-world intrusions" (§4) live here:
//
//   - meaningless-process detection via the potential-vs-actual access
//     threshold with per-program history (§4.1, approach 4);
//   - getcwd pattern detection (§4.1);
//   - frequently-referenced files — shared libraries — excluded from
//     distance calculations but always hoarded (§4.2);
//   - critical files and the dot-file heuristic (§4.3);
//   - transient directories, completely ignored (§4.5);
//   - non-file objects, excluded from distances but always hoarded
//     (§4.6);
//   - per-process reference streams with fork inheritance and exit
//     merging (§4.7);
//   - non-open references: execs as lifetime opens, deletes with delayed
//     table removal, attribute examinations folded into a following open
//     (§4.8);
//   - superuser filtering (§4.10).
package observer

import (
	"path"
	"strings"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/proc"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/trace"
)

// RefKind classifies a cleaned reference for the correlator.
type RefKind uint8

// The reference kinds.
const (
	// RefOpen is a file open; Pairs carries the distance samples.
	RefOpen RefKind = iota
	// RefPoint is a point-in-time reference (stat, rename, mkdir).
	RefPoint
	// RefCreate is a file creation (open of a fresh file); a pending
	// deletion of the same name must be revived.
	RefCreate
	// RefDelete is a deletion; the file's relationship data should be
	// marked for delayed removal.
	RefDelete
)

// Reference is one cleaned, classified file reference.
type Reference struct {
	Kind RefKind
	File *simfs.File
	// Pairs are the Definition-3 distance samples from prior references
	// in the same process stream to this one.
	Pairs []proc.RefPair
}

// Stats counts what the observer did, for tooling and tests.
type Stats struct {
	Events            uint64
	References        uint64 // cleaned references emitted
	DroppedSuperuser  uint64
	DroppedTemp       uint64
	DroppedFailed     uint64
	DroppedMeaningles uint64
	DroppedGetcwd     uint64
	DroppedExcluded   uint64
	StatsFolded       uint64 // attribute examinations folded into opens
}

// progHistory accumulates the potential-vs-actual access behaviour of a
// program across process lifetimes (§4.1, approach 4).
type progHistory struct {
	learned float64
	touched float64
	runs    int
}

// pidState is the observer's per-process bookkeeping beyond what
// proc.Process holds.
type pidState struct {
	learned     int // files learned about from directory reads
	touched     int // files actually referenced
	meaningless bool
	inGetcwd    bool
	lastReadDir string
	// pendingStat delays an attribute examination one event so that an
	// immediately following open absorbs it (§4.8).
	pendingStat *simfs.File
	// execFile is the program image held open for the process lifetime.
	execFile *simfs.File
}

// Observer is the observation layer. It is not safe for concurrent use.
type Observer struct {
	p       config.Params
	ctl     *config.Control
	fs      *simfs.FS
	procs   *proc.Table
	dirSize func(path string) int

	refCounts map[simfs.FileID]uint64
	totalRefs uint64
	// lastRef records the most recent meaningful reference per file on
	// the observer's event clock; hoard ranking consumes it. Unlike
	// LRU's raw history it is NOT updated by meaningless processes.
	lastRef map[simfs.FileID]uint64
	// frequent is the sticky frequently-referenced set (§4.2). A file
	// is promoted when its share of references exceeds
	// FrequentFileFraction and demoted only when it falls below half
	// the threshold, so borderline files do not oscillate.
	frequent map[simfs.FileID]bool
	// always contains files hoarded regardless of reference behaviour
	// for path-based reasons: critical files and non-file objects.
	// Frequent files are added dynamically by AlwaysHoard.
	always map[simfs.FileID]bool
	// excluded files generate no semantic-distance relationships for
	// path-based reasons; frequent files are excluded dynamically.
	excluded map[simfs.FileID]bool

	hist  map[string]*progHistory
	state map[trace.PID]*pidState
	// churn tracks per-directory create/delete behaviour for automatic
	// temporary-directory detection (§4.5 future work).
	churn map[string]*dirChurn

	// exclChanged journals files newly added to the exclusion set
	// (frequent promotions, critical/non-file discoveries) since the last
	// TakeExclusionChanges drain; exclSeen dedups it. exclDirty is set
	// when a file LEAVES the exclusion set (a frequent demotion): the
	// file's old relationships reappear everywhere at once, which an
	// incremental clustering cannot localize, so the drain reports it as
	// a full-rebuild signal.
	exclChanged []simfs.FileID
	exclSeen    map[simfs.FileID]bool
	exclDirty   bool

	stats Stats
}

// DefaultDirSize is the directory fan-out assumed when no DirSizer is
// provided (real traces do not say how many entries a readdir saw).
const DefaultDirSize = 20

// New returns an Observer writing file state into fs. dirSize reports
// how many entries a directory read learns about; nil uses
// DefaultDirSize.
func New(p config.Params, ctl *config.Control, fs *simfs.FS, dirSize func(path string) int) *Observer {
	if ctl == nil {
		ctl = config.EmptyControl()
	}
	if dirSize == nil {
		dirSize = func(string) int { return DefaultDirSize }
	}
	procs := proc.NewTable(p.Window)
	procs.Mode = proc.Mode(p.DistanceMode)
	return &Observer{
		p:         p,
		ctl:       ctl,
		fs:        fs,
		procs:     procs,
		dirSize:   dirSize,
		refCounts: make(map[simfs.FileID]uint64),
		lastRef:   make(map[simfs.FileID]uint64),
		frequent:  make(map[simfs.FileID]bool),
		always:    make(map[simfs.FileID]bool),
		excluded:  make(map[simfs.FileID]bool),
		hist:      make(map[string]*progHistory),
		state:     make(map[trace.PID]*pidState),
		churn:     make(map[string]*dirChurn),
		exclSeen:  make(map[simfs.FileID]bool),
	}
}

// noteExcluded journals a file that just joined the exclusion set.
func (o *Observer) noteExcluded(id simfs.FileID) {
	if !o.exclSeen[id] {
		o.exclSeen[id] = true
		o.exclChanged = append(o.exclChanged, id)
	}
}

// TakeExclusionChanges appends the files that joined the exclusion set
// since the previous call to dst and reports (via full) whether any file
// LEFT it — an un-exclusion resurfaces relationships an incremental
// clustering never saw, so the caller must fall back to a full rebuild.
// Both journals reset.
func (o *Observer) TakeExclusionChanges(dst []simfs.FileID) (_ []simfs.FileID, full bool) {
	dst = append(dst, o.exclChanged...)
	o.exclChanged = o.exclChanged[:0]
	clear(o.exclSeen)
	full = o.exclDirty
	o.exclDirty = false
	return dst, full
}

// Stats returns the event accounting so far.
func (o *Observer) Stats() Stats { return o.stats }

// Procs exposes the process table (inspection tooling).
func (o *Observer) Procs() *proc.Table { return o.procs }

// AlwaysHoard returns the ids of files that must be hoarded regardless
// of reference behaviour: frequent files, critical files and non-file
// objects (§4.2, §4.3, §4.6).
func (o *Observer) AlwaysHoard() []simfs.FileID {
	out := make([]simfs.FileID, 0, len(o.always))
	for id := range o.always {
		out = append(out, id)
	}
	for _, id := range o.FrequentFiles() {
		if !o.always[id] {
			out = append(out, id)
		}
	}
	return out
}

// IsExcluded reports whether the file is excluded from semantic-distance
// and clustering calculations.
func (o *Observer) IsExcluded(id simfs.FileID) bool {
	return o.excluded[id] || o.IsFrequent(id)
}

// IsFrequent reports whether the file is currently designated
// frequently-referenced (§4.2).
func (o *Observer) IsFrequent(id simfs.FileID) bool { return o.frequent[id] }

// FrequentFiles returns the current frequently-referenced set.
func (o *Observer) FrequentFiles() []simfs.FileID {
	out := make([]simfs.FileID, 0, len(o.frequent))
	for id := range o.frequent {
		out = append(out, id)
	}
	return out
}

// updateFrequent applies the promotion/demotion hysteresis after a
// reference to f. A file that was merely hot during a burst early in
// the trace loses the designation as the denominator grows.
func (o *Observer) updateFrequent(id simfs.FileID) {
	if o.totalRefs < uint64(o.p.FrequentFileMinRefs) {
		return
	}
	ratio := float64(o.refCounts[id]) / float64(o.totalRefs)
	switch {
	case !o.frequent[id] && ratio > o.p.FrequentFileFraction:
		o.frequent[id] = true
		o.noteExcluded(id)
	case o.frequent[id] && ratio < o.p.FrequentFileFraction/2:
		delete(o.frequent, id)
		// Demotion un-excludes: its stored relationships come back into
		// view everywhere at once, which only a full rebuild can honour.
		o.exclDirty = true
	}
}

// LastRef returns the observer-clock position of the file's most recent
// meaningful reference (0 if never meaningfully referenced).
func (o *Observer) LastRef(id simfs.FileID) uint64 { return o.lastRef[id] }

// LastRefs exposes the recency table. The returned map is live; callers
// must treat it as read-only.
func (o *Observer) LastRefs() map[simfs.FileID]uint64 { return o.lastRef }

// ProgramMeaningless reports whether the program's history marks it
// meaningless (it habitually touches most files it learns about).
func (o *Observer) ProgramMeaningless(prog string) bool {
	if o.ctl.IsMeaninglessProgram(prog) {
		return true
	}
	h := o.hist[prog]
	if h == nil || h.learned < float64(o.p.MeaninglessMinLearned) {
		return false
	}
	return h.touched/h.learned >= o.p.MeaninglessRatio
}

func (o *Observer) pid(pid trace.PID) *pidState {
	s := o.state[pid]
	if s == nil {
		s = &pidState{}
		o.state[pid] = s
	}
	return s
}

// Observe processes one trace event and returns the cleaned references
// it produced (possibly none, possibly several: a flushed pending stat
// plus the current reference).
func (o *Observer) Observe(ev trace.Event) []Reference {
	o.stats.Events++
	if ev.Op.IsConnectivity() {
		return nil
	}
	switch ev.Op {
	case trace.OpFork:
		o.fork(ev)
		return nil
	case trace.OpExit:
		return o.exit(ev)
	}
	// Superuser calls are mostly not traced (§4.10).
	if ev.Uid == 0 {
		o.stats.DroppedSuperuser++
		return nil
	}
	p := o.procs.Get(ev.PID)
	p.Stream.SetNow(float64(ev.Time.UnixNano()) / 1e9)
	ps := o.pid(ev.PID)
	path := o.absolutize(p, ev.Path)

	var out []Reference
	// An attribute examination immediately followed by an open of the
	// same file is discarded; anything else flushes it as a point
	// reference (§4.8).
	if ps.pendingStat != nil {
		pending := ps.pendingStat
		ps.pendingStat = nil
		if ev.Op == trace.OpOpen && pending.Path == path {
			o.stats.StatsFolded++
		} else if ref, ok := o.emitRef(p, ps, pending, RefPoint); ok {
			out = append(out, ref)
		}
	}

	switch ev.Op {
	case trace.OpChdir:
		p.Cwd = path
		o.endGetcwd(ps)
		return out
	case trace.OpReadDir:
		o.readDir(p, ps, path)
		return out
	case trace.OpExec:
		out = append(out, o.exec(ev, p, ps, path)...)
		return out
	}

	// Anything else ends a getcwd climb (§4.1).
	o.endGetcwd(ps)

	if ev.Failed {
		// Accesses to nonexistent files are common and meaningless for
		// relationship inference (§4.4).
		o.stats.DroppedFailed++
		return out
	}

	switch ev.Op {
	case trace.OpOpen, trace.OpCreate:
		prev := o.fs.Lookup(path)
		kind := RefOpen
		if prev == nil || !prev.Exists {
			// A fresh file, or a recreation within the deletion delay:
			// the correlator revives any pending relationship removal.
			kind = RefCreate
		}
		f := o.fs.Intern(path, simfs.Regular, ev.Seq)
		if kind == RefCreate {
			o.noteCreate(path)
		}
		if ref, ok := o.emitRef(p, ps, f, kind); ok {
			out = append(out, ref)
		}
	case trace.OpClose:
		if f := o.fs.Lookup(path); f != nil {
			p.Stream.Close(f.ID)
		}
	case trace.OpStat:
		f := o.fs.Intern(path, simfs.Regular, ev.Seq)
		// Defer: the examination is counted only if it is not absorbed
		// by an immediately following open (§4.8).
		if !o.ctl.IsTemp(path) && !o.filteredPath(f) {
			ps.pendingStat = f
		}
	case trace.OpDelete:
		if f := o.fs.Lookup(path); f != nil && f.Exists {
			o.noteDelete(path)
			if ref, ok := o.emitRef(p, ps, f, RefDelete); ok {
				out = append(out, ref)
			}
			o.fs.Remove(path)
		}
	case trace.OpRename:
		if f := o.fs.Lookup(path); f != nil && f.Exists {
			newPath := o.absolutize(p, ev.Path2)
			o.fs.Rename(path, newPath, ev.Seq)
			if ref, ok := o.emitRef(p, ps, f, RefPoint); ok {
				out = append(out, ref)
			}
		}
	case trace.OpMkdir:
		o.fs.Intern(path, simfs.Directory, ev.Seq)
	case trace.OpSymlink:
		// Symbolic links are non-file objects: nearly free to store and
		// critical when present, so always hoarded and never related
		// (§4.6).
		f := o.fs.Intern(path, simfs.Symlink, ev.Seq)
		o.always[f.ID] = true
		if !o.excluded[f.ID] {
			o.excluded[f.ID] = true
			o.noteExcluded(f.ID)
		}
	}
	return out
}

// emitRef runs the shared filtering (temp, critical, non-file, frequent,
// meaningless) and, when the reference survives, drives the process
// stream and produces the Reference. It returns ok=false when filtered.
func (o *Observer) emitRef(p *proc.Process, ps *pidState, f *simfs.File, kind RefKind) (Reference, bool) {
	switch o.countAndFilter(p, ps, f) {
	case verdictAllow:
	case verdictExcluded:
		// Excluded files still count as intervening opens for the
		// lifetime distance measure (Definition 3): a run of shared
		// library references genuinely separates what comes before it
		// from what comes after, even though the library itself forms
		// no relationships.
		p.Stream.Skip()
		return Reference{}, false
	default:
		return Reference{}, false
	}
	var pairs []proc.RefPair
	switch kind {
	case RefOpen, RefCreate:
		pairs = p.Stream.Open(f.ID)
	default:
		pairs = p.Stream.PointRef(f.ID)
	}
	o.stats.References++
	return Reference{Kind: kind, File: f, Pairs: o.filterPairs(pairs)}, true
}

// filterPairs drops samples whose source file is excluded (frequent
// files must not link unrelated projects, §4.2).
func (o *Observer) filterPairs(pairs []proc.RefPair) []proc.RefPair {
	kept := pairs[:0]
	for _, pr := range pairs {
		if o.IsExcluded(pr.From) {
			continue
		}
		kept = append(kept, pr)
	}
	return kept
}

// filteredPath applies the path-based exclusion filters (non-file,
// critical), recording always-hoard and exclusion state as a side
// effect, and reports whether the file is excluded.
func (o *Observer) filteredPath(f *simfs.File) bool {
	path := f.Path
	if o.ctl.IsIgnored(path) || o.ctl.IsCritical(path) {
		// Non-file objects: always hoarded, never related (§4.6).
		// Critical files: outside SEER's control, always hoarded (§4.3).
		o.always[f.ID] = true
		if !o.excluded[f.ID] {
			o.excluded[f.ID] = true
			o.noteExcluded(f.ID)
		}
		o.stats.DroppedExcluded++
		return true
	}
	return false
}

// verdict is the outcome of per-reference filtering.
type verdict uint8

const (
	verdictAllow verdict = iota
	// verdictExcluded drops the relationship but the open still counts
	// as an intervening reference (frequent, critical, non-file).
	verdictExcluded
	// verdictIgnore drops the reference entirely (temporary files,
	// meaningless processes).
	verdictIgnore
)

// countAndFilter applies the per-reference bookkeeping and decides
// whether the reference should produce relationship data.
func (o *Observer) countAndFilter(p *proc.Process, ps *pidState, f *simfs.File) verdict {
	if o.ctl.IsTemp(f.Path) || o.IsAutoTemp(f.Path) {
		o.stats.DroppedTemp++
		return verdictIgnore
	}
	if o.filteredPath(f) {
		return verdictExcluded
	}

	// Meaninglessness accounting (§4.1): the process touched a file.
	ps.touched++
	if !ps.meaningless && ps.learned >= o.p.MeaninglessMinLearned &&
		float64(ps.touched)/float64(ps.learned) >= o.p.MeaninglessRatio {
		ps.meaningless = true
	}
	if ps.meaningless {
		o.stats.DroppedMeaningles++
		return verdictIgnore
	}

	// Frequent-file accounting (§4.2) and recency for hoard ranking.
	o.totalRefs++
	o.refCounts[f.ID]++
	o.lastRef[f.ID] = o.stats.Events
	o.updateFrequent(f.ID)
	if o.frequent[f.ID] {
		o.stats.DroppedExcluded++
		return verdictExcluded
	}
	return verdictAllow
}

func (o *Observer) fork(ev trace.Event) {
	// OpFork carries the child in PID and the parent in PPID.
	o.procs.Fork(ev.PPID, ev.PID)
	parentState := o.pid(ev.PPID)
	o.state[ev.PID] = &pidState{
		execFile:    parentState.execFile,
		meaningless: parentState.meaningless,
	}
}

func (o *Observer) exit(ev trace.Event) []Reference {
	ps := o.state[ev.PID]
	var out []Reference
	if ps != nil {
		p := o.procs.Get(ev.PID)
		if ps.pendingStat != nil {
			pending := ps.pendingStat
			ps.pendingStat = nil
			if ref, ok := o.emitRef(p, ps, pending, RefPoint); ok {
				out = append(out, ref)
			}
		}
		if ps.execFile != nil {
			p.Stream.Close(ps.execFile.ID)
		}
		o.foldHistory(p.Prog, ps)
		delete(o.state, ev.PID)
	}
	o.procs.Exit(ev.PID)
	return out
}

func (o *Observer) exec(ev trace.Event, p *proc.Process, ps *pidState, path string) []Reference {
	// Exec replaces the process image: close the previous one (§4.8) and
	// fold the old image's meaninglessness counters into its history.
	if ps.execFile != nil {
		p.Stream.Close(ps.execFile.ID)
		ps.execFile = nil
	}
	o.foldHistory(p.Prog, ps)
	ps.learned, ps.touched = 0, 0
	prog := ev.Prog
	if prog == "" {
		prog = basename(path)
	}
	p.Prog = prog
	// A fresh image gets a fresh meaninglessness verdict from the new
	// program's history.
	ps.meaningless = o.ProgramMeaningless(prog)
	if ev.Failed {
		o.stats.DroppedFailed++
		return nil
	}
	f := o.fs.Intern(path, simfs.Regular, ev.Seq)
	ref, ok := o.emitRef(p, ps, f, RefOpen)
	if !ok {
		return nil
	}
	ps.execFile = f
	return []Reference{ref}
}

// foldHistory accumulates a finished run's potential-vs-actual counters
// into the program's history (§4.1).
func (o *Observer) foldHistory(prog string, ps *pidState) {
	if prog == "" || ps.learned == 0 {
		return
	}
	h := o.hist[prog]
	if h == nil {
		h = &progHistory{}
		o.hist[prog] = h
	}
	h.learned += float64(ps.learned)
	h.touched += float64(ps.touched)
	h.runs++
}

func (o *Observer) readDir(p *proc.Process, ps *pidState, path string) {
	o.fs.Intern(path, simfs.Directory, 0)
	// getcwd climbs the tree reading each parent directory (§4.1): a
	// directory read of the parent of the previous directory read.
	if ps.lastReadDir != "" && path == simfs.Dir(ps.lastReadDir) {
		ps.inGetcwd = true
	}
	ps.lastReadDir = path
	if ps.inGetcwd {
		// All references during a getcwd are ignored, even for
		// inferring meaninglessness.
		o.stats.DroppedGetcwd++
		return
	}
	if o.ctl.IsTemp(path) || o.ctl.IsIgnored(path) {
		return
	}
	ps.learned += o.dirSize(path)
}

func (o *Observer) endGetcwd(ps *pidState) {
	ps.inGetcwd = false
	ps.lastReadDir = ""
}

// absolutize converts a possibly relative pathname to absolute form
// using the process working directory, and normalizes "." and ".."
// components.
func (o *Observer) absolutize(p *proc.Process, path string) string {
	if path == "" {
		return p.Cwd
	}
	if !strings.HasPrefix(path, "/") {
		cwd := p.Cwd
		if cwd == "" {
			cwd = "/"
		}
		if cwd == "/" {
			path = "/" + path
		} else {
			path = cwd + "/" + path
		}
	}
	return Clean(path)
}

// Clean normalizes a path to absolute form: collapses repeated slashes
// and resolves "." and ".." components ("/.." is "/"). An already clean
// path comes back unchanged, without allocating.
func Clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

func basename(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
