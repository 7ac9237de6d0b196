package observer

import (
	"testing"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/strace"
	"github.com/fmg/seer/internal/trace"
)

type harness struct {
	o   *Observer
	fs  *simfs.FS
	seq uint64
}

func newHarness(mutate func(*config.Params), ctl *config.Control) *harness {
	p := config.Defaults()
	p.MeaninglessMinLearned = 10
	if mutate != nil {
		mutate(&p)
	}
	if ctl == nil {
		ctl = config.DefaultControl()
	}
	fs := simfs.New(stats.NewRand(1))
	return &harness{o: New(p, ctl, fs, nil), fs: fs}
}

func (h *harness) ev(op trace.Op, pid trace.PID, path string) []Reference {
	h.seq++
	return h.o.Observe(trace.Event{Seq: h.seq, PID: pid, Op: op, Path: path, Uid: 1000})
}

func (h *harness) evFull(e trace.Event) []Reference {
	h.seq++
	e.Seq = h.seq
	if e.Uid == 0 && !e.Op.IsConnectivity() {
		e.Uid = 1000
	}
	return h.o.Observe(e)
}

func (h *harness) open(pid trace.PID, path string) []Reference {
	return h.ev(trace.OpOpen, pid, path)
}

func (h *harness) close(pid trace.PID, path string) {
	h.ev(trace.OpClose, pid, path)
}

func TestOpenEmitsReferenceWithPairs(t *testing.T) {
	h := newHarness(nil, nil)
	r1 := h.open(1, "/home/u/a")
	if len(r1) != 1 || r1[0].Kind != RefCreate {
		t.Fatalf("first open refs = %+v, want one RefCreate", r1)
	}
	h.close(1, "/home/u/a")
	r2 := h.open(1, "/home/u/b")
	if len(r2) != 1 {
		t.Fatalf("second open refs = %+v", r2)
	}
	if len(r2[0].Pairs) != 1 || r2[0].Pairs[0].Dist != 1 {
		t.Errorf("pairs = %+v, want one pair at distance 1", r2[0].Pairs)
	}
	// Reopening an existing file is RefOpen, not RefCreate.
	r3 := h.open(1, "/home/u/a")
	if len(r3) != 1 || r3[0].Kind != RefOpen {
		t.Errorf("reopen = %+v, want RefOpen", r3)
	}
}

func TestRelativePathsAbsolutized(t *testing.T) {
	h := newHarness(nil, nil)
	h.ev(trace.OpChdir, 1, "/home/u/proj")
	refs := h.open(1, "main.c")
	if len(refs) != 1 || refs[0].File.Path != "/home/u/proj/main.c" {
		t.Fatalf("refs = %+v, want /home/u/proj/main.c", refs)
	}
	refs = h.open(1, "../other/x.c")
	if len(refs) != 1 || refs[0].File.Path != "/home/u/other/x.c" {
		t.Fatalf("refs = %+v, want /home/u/other/x.c", refs)
	}
}

func TestCleanPaths(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/a//b", "/a/b"},
		{"/a/./b", "/a/b"},
		{"/a/b/../c", "/a/c"},
		{"/../x", "/x"},
		{"/", "/"},
		{"/a/b/..", "/a"},
	}
	for _, c := range cases {
		if got := Clean(c.in); got != c.want {
			t.Errorf("Clean(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSuperuserDropped(t *testing.T) {
	h := newHarness(nil, nil)
	refs := h.evFull(trace.Event{PID: 1, Op: trace.OpOpen, Path: "/root/x", Uid: 0})
	_ = refs
	h.seq++
	got := h.o.Observe(trace.Event{Seq: h.seq, PID: 1, Op: trace.OpOpen, Path: "/root/x", Uid: 0})
	if len(got) != 0 {
		t.Errorf("superuser open produced refs %+v", got)
	}
	if h.o.Stats().DroppedSuperuser == 0 {
		t.Error("superuser drop not counted")
	}
}

func TestTempFilesCompletelyIgnored(t *testing.T) {
	h := newHarness(nil, nil)
	refs := h.open(1, "/tmp/cc001.o")
	if len(refs) != 0 {
		t.Fatalf("temp open produced refs %+v", refs)
	}
	// Temp files must not displace relationships: open a,temp,b — the
	// a→b distance skips the temp file? No: the temp file never entered
	// the stream, so a→b sees distance 1.
	h.open(1, "/home/u/a")
	h.close(1, "/home/u/a")
	h.open(1, "/tmp/t1")
	h.ev(trace.OpClose, 1, "/tmp/t1")
	refs = h.open(1, "/home/u/b")
	if len(refs) != 1 || len(refs[0].Pairs) != 1 || refs[0].Pairs[0].Dist != 1 {
		t.Errorf("pairs after temp interleave = %+v, want a→b dist 1", refs)
	}
}

func TestCriticalFilesAlwaysHoardedAndExcluded(t *testing.T) {
	h := newHarness(nil, nil)
	if refs := h.open(1, "/etc/passwd"); len(refs) != 0 {
		t.Errorf("critical file produced refs %+v", refs)
	}
	if refs := h.open(1, "/home/u/.login"); len(refs) != 0 {
		t.Errorf("dot file produced refs %+v", refs)
	}
	always := h.o.AlwaysHoard()
	if len(always) != 2 {
		t.Fatalf("always hoard = %v, want 2 entries", always)
	}
	for _, id := range always {
		if !h.o.IsExcluded(id) {
			t.Error("always-hoard file not excluded from distances")
		}
	}
}

func TestNonFilesAlwaysHoarded(t *testing.T) {
	h := newHarness(nil, nil)
	if refs := h.open(1, "/dev/tty1"); len(refs) != 0 {
		t.Errorf("device produced refs %+v", refs)
	}
	if len(h.o.AlwaysHoard()) != 1 {
		t.Error("device not in always-hoard set")
	}
}

// A shared library crossing the 1% threshold becomes frequent: excluded
// from distances, filtered from pair lists, but always hoarded (§4.2).
func TestFrequentFileDetection(t *testing.T) {
	h := newHarness(func(p *config.Params) {
		p.FrequentFileMinRefs = 10
		p.FrequentFileFraction = 0.10
	}, nil)
	lib := "/lib/libc.so"
	// Interleave: every other access is the library.
	for i := 0; i < 30; i++ {
		h.open(1, lib)
		h.close(1, lib)
		other := "/home/u/f" + string(rune('a'+i%26))
		h.open(1, other)
		h.close(1, other)
	}
	libID := h.fs.Lookup(lib).ID
	if !h.o.IsFrequent(libID) {
		t.Fatal("library not marked frequent")
	}
	if !h.o.IsExcluded(libID) {
		t.Error("frequent file not excluded")
	}
	found := false
	for _, id := range h.o.FrequentFiles() {
		if id == libID {
			found = true
		}
	}
	if !found {
		t.Error("FrequentFiles missing the library")
	}
	// New references must not carry pairs from the library.
	refs := h.open(1, "/home/u/new")
	for _, r := range refs {
		for _, pr := range r.Pairs {
			if pr.From == libID {
				t.Error("pair from frequent file leaked through")
			}
		}
	}
}

// A find-like process that reads directories and touches most files it
// learns about becomes meaningless; its references are dropped (§4.1).
func TestMeaninglessProcessDetection(t *testing.T) {
	h := newHarness(nil, nil)
	const pid = 7
	h.evFull(trace.Event{PID: pid, Op: trace.OpExec, Path: "/usr/bin/find", Prog: "find"})
	dropped := 0
	for d := 0; d < 5; d++ {
		dir := "/home/u/dir" + string(rune('a'+d))
		h.ev(trace.OpReadDir, pid, dir)
		for i := 0; i < DefaultDirSize; i++ {
			refs := h.ev(trace.OpStat, pid, dir+"/f"+string(rune('a'+i)))
			if len(refs) == 0 {
				dropped++
			}
		}
	}
	if dropped == 0 {
		t.Error("no find references were dropped")
	}
	// After enough touches the process must be meaningless.
	refs := h.open(pid, "/home/u/dira/extra2")
	if len(refs) != 0 {
		t.Errorf("meaningless process still produced refs: %+v", refs)
	}
	// On exit the history records find as meaningless for next time.
	h.ev(trace.OpExit, pid, "")
	if !h.o.ProgramMeaningless("find") {
		t.Error("program history did not mark find meaningless")
	}
	// A second run of find is meaningless from the first reference.
	h.evFull(trace.Event{PID: 8, Op: trace.OpExec, Path: "/usr/bin/find", Prog: "find"})
	if refs := h.open(8, "/home/u/x1"); len(refs) != 0 {
		t.Errorf("second find run produced refs %+v", refs)
	}
	_ = refs
}

// An editor reads a directory for filename completion but touches only a
// few files: it must stay meaningful (§4.1 rejects approach 2).
func TestEditorStaysMeaningful(t *testing.T) {
	h := newHarness(nil, nil)
	const pid = 9
	h.evFull(trace.Event{PID: pid, Op: trace.OpExec, Path: "/usr/bin/emacs", Prog: "emacs"})
	h.ev(trace.OpReadDir, pid, "/home/u/proj")
	h.ev(trace.OpReadDir, pid, "/home/u/proj/sub")
	refs := h.open(pid, "/home/u/proj/main.c")
	if len(refs) != 1 {
		t.Fatalf("editor open dropped: %+v", refs)
	}
	h.ev(trace.OpExit, pid, "")
	if h.o.ProgramMeaningless("emacs") {
		t.Error("editor wrongly marked meaningless")
	}
}

// Hand-listed programs are meaningless immediately (§4.1 approach 1 is
// retained as an override).
func TestHandListedMeaningless(t *testing.T) {
	h := newHarness(nil, nil)
	h.evFull(trace.Event{PID: 3, Op: trace.OpExec, Path: "/usr/bin/xargs", Prog: "xargs"})
	if refs := h.open(3, "/home/u/file"); len(refs) != 0 {
		t.Errorf("xargs produced refs %+v", refs)
	}
}

// getcwd's climb (reading each parent directory) is detected and its
// references ignored without poisoning meaninglessness (§4.1).
func TestGetcwdDetection(t *testing.T) {
	h := newHarness(nil, nil)
	const pid = 4
	h.evFull(trace.Event{PID: pid, Op: trace.OpExec, Path: "/bin/sh", Prog: "sh"})
	h.ev(trace.OpReadDir, pid, "/home/u/proj/sub")
	h.ev(trace.OpReadDir, pid, "/home/u/proj") // parent: getcwd begins
	h.ev(trace.OpReadDir, pid, "/home/u")
	h.ev(trace.OpReadDir, pid, "/home")
	if h.o.Stats().DroppedGetcwd < 3 {
		t.Errorf("getcwd drops = %d, want ≥3", h.o.Stats().DroppedGetcwd)
	}
	// The learned counter must not have grown unboundedly: only the two
	// reads before detection count.
	refs := h.open(pid, "/home/u/proj/main.c")
	if len(refs) != 1 {
		t.Errorf("post-getcwd open dropped: %+v", refs)
	}
	h.ev(trace.OpExit, pid, "")
	if h.o.ProgramMeaningless("sh") {
		t.Error("getcwd climb marked the shell meaningless")
	}
}

// An attribute examination immediately followed by an open of the same
// file is folded into the open (§4.8).
func TestStatFoldedIntoOpen(t *testing.T) {
	h := newHarness(nil, nil)
	h.ev(trace.OpStat, 1, "/home/u/a")
	refs := h.open(1, "/home/u/a")
	if len(refs) != 1 || refs[0].Kind == RefPoint {
		t.Fatalf("refs = %+v, want single open", refs)
	}
	if h.o.Stats().StatsFolded != 1 {
		t.Errorf("folded = %d, want 1", h.o.Stats().StatsFolded)
	}
}

// A stat not followed by an open of the same file is a point reference
// (make's dependency checks, §4.8).
func TestStatEmittedAsPointRef(t *testing.T) {
	h := newHarness(nil, nil)
	h.ev(trace.OpStat, 1, "/home/u/a")
	refs := h.open(1, "/home/u/b")
	if len(refs) != 2 {
		t.Fatalf("refs = %+v, want flushed stat + open", refs)
	}
	if refs[0].Kind != RefPoint || refs[0].File.Path != "/home/u/a" {
		t.Errorf("first ref = %+v, want point ref to /home/u/a", refs[0])
	}
	if refs[1].Kind != RefCreate || refs[1].File.Path != "/home/u/b" {
		t.Errorf("second ref = %+v, want create of /home/u/b", refs[1])
	}
	// The stat and open are related at distance 1.
	if len(refs[1].Pairs) != 1 || refs[1].Pairs[0].Dist != 1 {
		t.Errorf("pairs = %+v", refs[1].Pairs)
	}
}

func TestPendingStatFlushedAtExit(t *testing.T) {
	h := newHarness(nil, nil)
	h.ev(trace.OpStat, 1, "/home/u/a")
	refs := h.ev(trace.OpExit, 1, "")
	if len(refs) != 1 || refs[0].Kind != RefPoint {
		t.Errorf("exit refs = %+v, want flushed stat", refs)
	}
}

func TestDeleteAndRecreate(t *testing.T) {
	h := newHarness(nil, nil)
	h.open(1, "/home/u/a")
	h.close(1, "/home/u/a")
	refs := h.ev(trace.OpDelete, 1, "/home/u/a")
	if len(refs) != 1 || refs[0].Kind != RefDelete {
		t.Fatalf("delete refs = %+v", refs)
	}
	if h.fs.Lookup("/home/u/a").Exists {
		t.Error("file still exists after delete")
	}
	// Deleting a nonexistent file produces nothing.
	if refs := h.ev(trace.OpDelete, 1, "/home/u/nope"); len(refs) != 0 {
		t.Errorf("phantom delete refs = %+v", refs)
	}
	// Recreation is a RefCreate with the same FileID.
	id := h.fs.Lookup("/home/u/a").ID
	refs = h.ev(trace.OpCreate, 1, "/home/u/a")
	if len(refs) != 1 || refs[0].Kind != RefCreate || refs[0].File.ID != id {
		t.Errorf("recreate refs = %+v, want RefCreate of id %d", refs, id)
	}
}

func TestRenameIsPointRefAndMovesFile(t *testing.T) {
	h := newHarness(nil, nil)
	h.ev(trace.OpCreate, 1, "/home/u/cc001.o")
	refs := h.evFull(trace.Event{
		PID: 1, Op: trace.OpRename,
		Path: "/home/u/cc001.o", Path2: "/home/u/main.o",
	})
	if len(refs) != 1 || refs[0].Kind != RefPoint {
		t.Fatalf("rename refs = %+v", refs)
	}
	if h.fs.Lookup("/home/u/main.o") == nil {
		t.Error("rename target missing")
	}
}

func TestExecHoldsBinaryOpen(t *testing.T) {
	h := newHarness(nil, nil)
	const pid = 2
	refs := h.evFull(trace.Event{PID: pid, Op: trace.OpExec, Path: "/usr/bin/cc", Prog: "cc"})
	if len(refs) != 1 || refs[0].Kind != RefOpen {
		t.Fatalf("exec refs = %+v, want RefOpen of the binary", refs)
	}
	ccID := refs[0].File.ID
	// Many opens later the binary is still related at distance 0.
	for i := 0; i < 50; i++ {
		p := "/home/u/hdr" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		h.open(pid, p)
		h.close(pid, p)
	}
	got := h.open(pid, "/home/u/last.c")
	var found bool
	for _, pr := range got[0].Pairs {
		if pr.From == ccID {
			found = true
			if pr.Dist != 0 {
				t.Errorf("cc distance = %g, want 0 while executing", pr.Dist)
			}
		}
	}
	if !found {
		t.Error("executing binary missing from pairs")
	}
	h.ev(trace.OpExit, pid, "")
}

func TestForkInheritanceThroughObserver(t *testing.T) {
	h := newHarness(nil, nil)
	h.open(1, "/home/u/Makefile")
	h.close(1, "/home/u/Makefile")
	h.evFull(trace.Event{PID: 10, PPID: 1, Op: trace.OpFork})
	refs := h.open(10, "/home/u/main.c")
	if len(refs) != 1 || len(refs[0].Pairs) == 0 {
		t.Fatalf("child refs = %+v, want inherited relationship", refs)
	}
	if refs[0].Pairs[0].Dist != 1 {
		t.Errorf("Makefile→main.c = %g, want 1", refs[0].Pairs[0].Dist)
	}
	// Child activity merges back into the parent at exit.
	h.close(10, "/home/u/main.c")
	h.ev(trace.OpExit, 10, "")
	refs = h.open(1, "/home/u/main.o")
	found := false
	for _, pr := range refs[0].Pairs {
		if pr.From == h.fs.Lookup("/home/u/main.c").ID {
			found = true
		}
	}
	if !found {
		t.Error("child's file not related to parent's later reference")
	}
}

func TestFailedReferencesDropped(t *testing.T) {
	h := newHarness(nil, nil)
	h.seq++
	refs := h.o.Observe(trace.Event{
		Seq: h.seq, PID: 1, Op: trace.OpOpen, Path: "/home/u/missing",
		Failed: true, Uid: 1000,
	})
	if len(refs) != 0 {
		t.Errorf("failed open produced refs %+v", refs)
	}
	if h.o.Stats().DroppedFailed != 1 {
		t.Error("failed drop not counted")
	}
}

func TestConnectivityEventsIgnored(t *testing.T) {
	h := newHarness(nil, nil)
	for _, op := range []trace.Op{trace.OpDisconnect, trace.OpReconnect, trace.OpSuspend, trace.OpResume} {
		if refs := h.ev(op, 0, ""); len(refs) != 0 {
			t.Errorf("%v produced refs", op)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	h := newHarness(nil, nil)
	h.open(1, "/home/u/a")
	h.close(1, "/home/u/a")
	h.open(1, "/tmp/x")
	s := h.o.Stats()
	if s.Events != 3 {
		t.Errorf("events = %d, want 3", s.Events)
	}
	if s.References != 1 {
		t.Errorf("references = %d, want 1", s.References)
	}
	if s.DroppedTemp != 1 {
		t.Errorf("dropped temp = %d, want 1", s.DroppedTemp)
	}
}

// Symbolic links are non-file objects: always hoarded, never related
// (§4.6).
func TestSymlinkAlwaysHoarded(t *testing.T) {
	h := newHarness(nil, nil)
	h.evFull(trace.Event{PID: 1, Op: trace.OpSymlink,
		Path: "/home/u/bin/prog", Path2: "/home/u/proj/prog"})
	f := h.fs.Lookup("/home/u/bin/prog")
	if f == nil || f.Kind != simfs.Symlink {
		t.Fatalf("symlink not interned: %+v", f)
	}
	var found bool
	for _, id := range h.o.AlwaysHoard() {
		if id == f.ID {
			found = true
		}
	}
	if !found {
		t.Error("symlink not in always-hoard set")
	}
	if !h.o.IsExcluded(f.ID) {
		t.Error("symlink not excluded from distances")
	}
}

func TestLastRefTracking(t *testing.T) {
	h := newHarness(nil, nil)
	h.open(1, "/home/u/a")
	id := h.fs.Lookup("/home/u/a").ID
	if h.o.LastRef(id) == 0 {
		t.Fatal("LastRef not recorded")
	}
	first := h.o.LastRef(id)
	h.close(1, "/home/u/a")
	h.open(1, "/home/u/b")
	h.open(1, "/home/u/a")
	if h.o.LastRef(id) <= first {
		t.Error("LastRef not refreshed")
	}
	if len(h.o.LastRefs()) < 2 {
		t.Error("LastRefs incomplete")
	}
	// Meaningless-process references must NOT refresh recency — this is
	// what protects SEER's ranking from find scans.
	h.evFull(trace.Event{PID: 6, Op: trace.OpExec, Path: "/usr/bin/xargs", Prog: "xargs"})
	before := h.o.LastRef(id)
	h.open(6, "/home/u/a")
	if h.o.LastRef(id) != before {
		t.Error("meaningless process refreshed recency")
	}
}

func TestExecEdgeCases(t *testing.T) {
	h := newHarness(nil, nil)
	// Failed exec: no reference, no held binary.
	refs := h.evFull(trace.Event{PID: 3, Op: trace.OpExec, Path: "/usr/bin/cc", Failed: true})
	if len(refs) != 0 {
		t.Errorf("failed exec produced refs %+v", refs)
	}
	// Exec with no Prog falls back to the basename.
	h.evFull(trace.Event{PID: 3, Op: trace.OpExec, Path: "/usr/bin/emacs"})
	if p := h.o.Procs().Lookup(3); p == nil || p.Prog != "emacs" {
		t.Errorf("prog fallback = %+v", p)
	}
	// Re-exec closes the previous image.
	h.evFull(trace.Event{PID: 3, Op: trace.OpExec, Path: "/usr/bin/cc", Prog: "cc"})
	emacs := h.fs.Lookup("/usr/bin/emacs")
	if h.o.Procs().Lookup(3).Stream.OpenCount(emacs.ID) != 0 {
		t.Error("previous image still open after re-exec")
	}
}

func TestAbsolutizeEdgeCases(t *testing.T) {
	h := newHarness(nil, nil)
	// Empty path resolves to the cwd.
	h.ev(trace.OpChdir, 1, "/home/u")
	refs := h.open(1, "")
	if len(refs) != 1 || refs[0].File.Path != "/home/u" {
		t.Errorf("empty path = %+v", refs)
	}
	// Relative path with root cwd.
	refs = h.open(2, "rootfile")
	if len(refs) != 1 || refs[0].File.Path != "/rootfile" {
		t.Errorf("root-cwd relative = %+v", refs)
	}
}

func TestKilledChildMergesIntoParent(t *testing.T) {
	// strace's `+++ killed by SIG… +++` ends a process just as `+++
	// exited` does: the child leaves the process table and its history
	// merges into the parent's (§4.7), so the parent's next open relates
	// to what the child opened.
	for _, end := range []string{"exited with 0", "killed by SIGKILL"} {
		h := newHarness(nil, nil)
		p := strace.NewParser()
		feed := func(line string) []Reference {
			ev, ok := p.ParseLine(line)
			if !ok {
				return nil
			}
			return h.o.Observe(ev)
		}
		for _, l := range []string{
			`100 openat(AT_FDCWD, "/home/u/Makefile", O_RDONLY) = 3`,
			`100 close(3) = 0`,
			`100 clone(child_stack=NULL, flags=SIGCHLD) = 101`,
			`101 execve("/usr/bin/cc", ["cc"], 0x7ffe /* 30 vars */) = 0`,
			`101 openat(AT_FDCWD, "/home/u/main.c", O_RDONLY) = 3`,
			"101 +++ " + end + " +++",
		} {
			feed(l)
		}
		if n := h.o.Procs().Len(); n != 1 {
			t.Errorf("%s: %d live processes, want 1", end, n)
		}
		if h.o.Procs().Lookup(101) != nil {
			t.Errorf("%s: child still live", end)
		}
		refs := feed(`100 openat(AT_FDCWD, "/home/u/main.o", O_RDONLY) = 4`)
		mainC := h.fs.Lookup("/home/u/main.c").ID
		merged := false
		for _, r := range refs {
			for _, pr := range r.Pairs {
				merged = merged || pr.From == mainC
			}
		}
		if !merged {
			t.Errorf("%s: child's main.c not in the parent's history: %+v", end, refs)
		}
	}
}
