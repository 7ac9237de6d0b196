package strace

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/trace"
)

func parseAll(t *testing.T, src string) []trace.Event {
	t.Helper()
	evs, err := NewParser().Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestOpenCloseRoundTrip(t *testing.T) {
	src := `1234  12:00:01.000001 openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = 3
1234  12:00:01.000500 close(3) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Op != trace.OpOpen || evs[0].Path != "/etc/hosts" || evs[0].PID != 1234 {
		t.Errorf("open = %+v", evs[0])
	}
	if evs[1].Op != trace.OpClose || evs[1].Path != "/etc/hosts" {
		t.Errorf("close = %+v (fd not resolved)", evs[1])
	}
	if !evs[1].Time.After(evs[0].Time) {
		t.Error("timestamps not ordered")
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Error("sequence numbers not increasing")
	}
}

func TestCreateAndDirectoryFlags(t *testing.T) {
	src := `1 openat(AT_FDCWD, "/home/u/new.c", O_WRONLY|O_CREAT|O_TRUNC, 0666) = 4
1 openat(AT_FDCWD, "/home/u", O_RDONLY|O_DIRECTORY) = 5
1 getdents64(5, 0x55..., 32768) = 120
1 close(5) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 4 {
		t.Fatalf("events = %d: %v", len(evs), evs)
	}
	if evs[0].Op != trace.OpCreate {
		t.Errorf("O_CREAT open = %v, want create", evs[0].Op)
	}
	if evs[1].Op != trace.OpReadDir {
		t.Errorf("O_DIRECTORY open = %v, want readdir", evs[1].Op)
	}
	if evs[2].Op != trace.OpReadDir || evs[2].Path != "/home/u" {
		t.Errorf("getdents = %+v", evs[2])
	}
}

func TestExecForkExit(t *testing.T) {
	src := `100 execve("/usr/bin/make", ["make"], 0x7ffe... /* 30 vars */) = 0
100 clone(child_stack=NULL, flags=CLONE_CHILD_CLEARTID|SIGCHLD) = 101
101 execve("/usr/bin/cc", ["cc", "-c", "x.c"], ...) = 0
101 +++ exited with 0 +++
100 exit_group(0) = ?
`
	evs := parseAll(t, src)
	if len(evs) != 5 {
		t.Fatalf("events = %d: %v", len(evs), evs)
	}
	if evs[0].Op != trace.OpExec || evs[0].Prog != "make" {
		t.Errorf("exec = %+v", evs[0])
	}
	if evs[1].Op != trace.OpFork || evs[1].PID != 101 || evs[1].PPID != 100 {
		t.Errorf("fork = %+v", evs[1])
	}
	if evs[3].Op != trace.OpExit || evs[3].PID != 101 {
		t.Errorf("exit marker = %+v", evs[3])
	}
	if evs[4].Op != trace.OpExit || evs[4].PID != 100 {
		t.Errorf("exit_group = %+v", evs[4])
	}
}

func TestFailedCalls(t *testing.T) {
	src := `1 openat(AT_FDCWD, "/missing", O_RDONLY) = -1 ENOENT (No such file or directory)
1 stat("/also/missing", 0x7ffd...) = -1 ENOENT (No such file or directory)
`
	evs := parseAll(t, src)
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	for _, ev := range evs {
		if !ev.Failed {
			t.Errorf("event not marked failed: %+v", ev)
		}
	}
}

func TestStatVariants(t *testing.T) {
	src := `1 stat("/a", {st_mode=S_IFREG|0644, st_size=100, ...}) = 0
1 lstat("/b", {...}) = 0
1 access("/c", F_OK) = 0
1 newfstatat(AT_FDCWD, "/d", {...}, 0) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	want := []string{"/a", "/b", "/c", "/d"}
	for i, ev := range evs {
		if ev.Op != trace.OpStat || ev.Path != want[i] {
			t.Errorf("event %d = %+v, want stat %s", i, ev, want[i])
		}
	}
}

func TestRenameUnlinkMkdirChdir(t *testing.T) {
	src := `1 rename("/tmp/x", "/home/u/x") = 0
1 renameat2(AT_FDCWD, "/a", AT_FDCWD, "/b", RENAME_NOREPLACE) = 0
1 unlink("/tmp/junk") = 0
1 unlinkat(AT_FDCWD, "/tmp/other", 0) = 0
1 mkdir("/home/u/dir", 0755) = 0
1 chdir("/home/u/dir") = 0
`
	evs := parseAll(t, src)
	if len(evs) != 6 {
		t.Fatalf("events = %d: %+v", len(evs), evs)
	}
	if evs[0].Op != trace.OpRename || evs[0].Path != "/tmp/x" || evs[0].Path2 != "/home/u/x" {
		t.Errorf("rename = %+v", evs[0])
	}
	if evs[1].Path != "/a" || evs[1].Path2 != "/b" {
		t.Errorf("renameat2 = %+v", evs[1])
	}
	if evs[2].Op != trace.OpDelete || evs[3].Op != trace.OpDelete {
		t.Error("unlinks not deletes")
	}
	if evs[4].Op != trace.OpMkdir || evs[5].Op != trace.OpChdir {
		t.Error("mkdir/chdir wrong")
	}
}

func TestUnfinishedResumed(t *testing.T) {
	src := `100 openat(AT_FDCWD, "/slow/file", O_RDONLY <unfinished ...>
101 stat("/other", {...}) = 0
100 <... openat resumed>) = 7
100 close(7) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 3 {
		t.Fatalf("events = %d: %+v", len(evs), evs)
	}
	if evs[0].Op != trace.OpStat || evs[0].PID != 101 {
		t.Errorf("interleaved stat = %+v", evs[0])
	}
	if evs[1].Op != trace.OpOpen || evs[1].Path != "/slow/file" || evs[1].PID != 100 {
		t.Errorf("resumed open = %+v", evs[1])
	}
	if evs[2].Op != trace.OpClose || evs[2].Path != "/slow/file" {
		t.Errorf("close after resume = %+v (fd lost)", evs[2])
	}
}

func TestNoiseSkipped(t *testing.T) {
	src := `--- SIGCHLD {si_signo=SIGCHLD, si_code=CLD_EXITED} ---
strace: Process 1234 attached

1 read(3, "data", 4096) = 4
1 write(4, "x", 1) = 1
1 <... something resumed>) = 0
garbage line
`
	evs := parseAll(t, src)
	if len(evs) != 0 {
		t.Fatalf("noise produced events: %+v", evs)
	}
}

func TestEscapedPath(t *testing.T) {
	src := `1 openat(AT_FDCWD, "/home/u/with \"quotes\" and space", O_RDONLY) = 3`
	evs := parseAll(t, src)
	if len(evs) != 1 || evs[0].Path != `/home/u/with "quotes" and space` {
		t.Fatalf("escaped path = %+v", evs)
	}
}

func TestCloseOfUnknownFdSkipped(t *testing.T) {
	evs := parseAll(t, "1 close(99) = 0\n")
	if len(evs) != 0 {
		t.Fatalf("unknown fd close produced %+v", evs)
	}
}

func TestNoPidNoTimestamp(t *testing.T) {
	evs := parseAll(t, `openat(AT_FDCWD, "/x", O_RDONLY) = 3`+"\n")
	if len(evs) != 1 || evs[0].PID != 1 {
		t.Fatalf("bare line = %+v", evs)
	}
	if evs[0].Time.IsZero() {
		t.Error("zero timestamp")
	}
}

func TestTimePreservedMonotone(t *testing.T) {
	src := `1 12:00:05.000000 stat("/a", {...}) = 0
1 12:00:04.000000 stat("/b", {...}) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 2 {
		t.Fatal("events")
	}
	if evs[1].Time.Before(evs[0].Time) {
		t.Error("time went backwards across events")
	}
}

func TestFeedsCorrelatorEndToEnd(t *testing.T) {
	// A miniature compile under strace must produce distance pairs in
	// the correlator — integration of strace → observer → semdist.
	src := `50 execve("/usr/bin/cc", ["cc"], ...) = 0
50 openat(AT_FDCWD, "/home/u/p/main.c", O_RDONLY) = 3
50 openat(AT_FDCWD, "/home/u/p/defs.h", O_RDONLY) = 4
50 close(4) = 0
50 openat(AT_FDCWD, "/home/u/p/main.o", O_WRONLY|O_CREAT) = 5
50 close(5) = 0
50 close(3) = 0
50 exit_group(0) = ?
`
	evs := parseAll(t, src)
	if len(evs) != 8 {
		t.Fatalf("events = %d", len(evs))
	}
	ops := []trace.Op{trace.OpExec, trace.OpOpen, trace.OpOpen, trace.OpClose,
		trace.OpCreate, trace.OpClose, trace.OpClose, trace.OpExit}
	for i, want := range ops {
		if evs[i].Op != want {
			t.Errorf("event %d op = %v, want %v", i, evs[i].Op, want)
		}
	}
}

func TestDupTracksDescriptor(t *testing.T) {
	src := `1 openat(AT_FDCWD, "/home/u/x", O_RDONLY) = 3
1 dup(3) = 7
1 close(3) = 0
1 dup2(7, 11) = 11
1 close(7) = 0
1 close(11) = 0
`
	evs := parseAll(t, src)
	// open + 3 closes, all resolving to the same path.
	if len(evs) != 4 {
		t.Fatalf("events = %d: %+v", len(evs), evs)
	}
	for _, ev := range evs[1:] {
		if ev.Op != trace.OpClose || ev.Path != "/home/u/x" {
			t.Errorf("close = %+v, want /home/u/x", ev)
		}
	}
}

func TestDupOfUnknownFd(t *testing.T) {
	evs := parseAll(t, "1 dup(99) = 100\n1 close(100) = 0\n")
	if len(evs) != 0 {
		t.Fatalf("unknown dup produced events: %+v", evs)
	}
}

func TestForkInheritsFdTable(t *testing.T) {
	// A forked child inherits the parent's descriptors: close(3) and
	// getdents64(4) in the child must resolve to the paths the parent
	// opened. Before the fix both events were silently dropped.
	src := `100 openat(AT_FDCWD, "/home/u/p/main.c", O_RDONLY) = 3
100 openat(AT_FDCWD, "/home/u/p", O_RDONLY|O_DIRECTORY) = 4
100 fork() = 101
101 getdents64(4, 0x55..., 32768) = 120
101 close(3) = 0
100 close(3) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 6 {
		t.Fatalf("events = %d: %+v", len(evs), evs)
	}
	if evs[3].Op != trace.OpReadDir || evs[3].Path != "/home/u/p" || evs[3].PID != 101 {
		t.Errorf("child getdents = %+v, want readdir /home/u/p", evs[3])
	}
	if evs[4].Op != trace.OpClose || evs[4].Path != "/home/u/p/main.c" || evs[4].PID != 101 {
		t.Errorf("child close = %+v, want close /home/u/p/main.c", evs[4])
	}
	// The parent's own table is unaffected by the child's close: the
	// tables are copies, not shared.
	if evs[5].Op != trace.OpClose || evs[5].Path != "/home/u/p/main.c" || evs[5].PID != 100 {
		t.Errorf("parent close = %+v (fd table not copied)", evs[5])
	}
}

func TestForkCopyIsIndependent(t *testing.T) {
	// After a plain fork, a descriptor opened by the child must not
	// appear in the parent.
	src := `100 openat(AT_FDCWD, "/a", O_RDONLY) = 3
100 fork() = 101
101 openat(AT_FDCWD, "/b", O_RDONLY) = 5
100 close(5) = 0
`
	evs := parseAll(t, src)
	// open, fork, open — the parent's close(5) must not resolve.
	if len(evs) != 3 {
		t.Fatalf("events = %d: %+v (child fd leaked into parent)", len(evs), evs)
	}
}

func TestCloneFilesSharesFdTable(t *testing.T) {
	// CLONE_FILES (threads) shares one fd table: a descriptor opened by
	// the child resolves in the parent.
	src := `100 openat(AT_FDCWD, "/a", O_RDONLY) = 3
100 clone(child_stack=NULL, flags=CLONE_FILES|CLONE_VM|SIGCHLD) = 101
101 openat(AT_FDCWD, "/b", O_RDONLY) = 5
100 close(5) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 4 {
		t.Fatalf("events = %d: %+v", len(evs), evs)
	}
	if evs[3].Op != trace.OpClose || evs[3].Path != "/b" || evs[3].PID != 100 {
		t.Errorf("parent close of thread-opened fd = %+v, want /b", evs[3])
	}
}

func TestVforkInheritsFdTable(t *testing.T) {
	src := `100 openat(AT_FDCWD, "/a", O_RDONLY) = 3
100 vfork() = 102
102 close(3) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 3 || evs[2].Path != "/a" || evs[2].PID != 102 {
		t.Fatalf("vfork child close = %+v, want /a", evs)
	}
}

func TestEscapeDecoding(t *testing.T) {
	// strace escapes non-printable bytes C-style; decoding them as the
	// literal next character mangles the path. "caf\303\251" is café
	// in UTF-8; \n, \t, \x and \\ round-trip too.
	cases := []struct {
		line, want string
	}{
		{`1 openat(AT_FDCWD, "/home/u/caf\303\251/menu", O_RDONLY) = 3`, "/home/u/café/menu"},
		{`1 openat(AT_FDCWD, "/tmp/line\nbreak", O_RDONLY) = 3`, "/tmp/line\nbreak"},
		{`1 openat(AT_FDCWD, "/tmp/tab\there", O_RDONLY) = 3`, "/tmp/tab\there"},
		{`1 openat(AT_FDCWD, "/tmp/hex\x41", O_RDONLY) = 3`, "/tmp/hexA"},
		{`1 openat(AT_FDCWD, "/tmp/back\\slash", O_RDONLY) = 3`, `/tmp/back\slash`},
		{`1 openat(AT_FDCWD, "/tmp/bell\7", O_RDONLY) = 3`, "/tmp/bell\a"},
	}
	for _, c := range cases {
		evs := parseAll(t, c.line+"\n")
		if len(evs) != 1 {
			t.Errorf("%q: %d events", c.line, len(evs))
			continue
		}
		if evs[0].Path != c.want {
			t.Errorf("%q decoded to %q, want %q", c.line, evs[0].Path, c.want)
		}
	}
}

func TestMidnightRollover(t *testing.T) {
	// A trace crossing midnight wraps its time-of-day clock; events
	// after the wrap must land on the next day, not be clamped to
	// 23:59:59 forever.
	src := `1 23:59:59.500000 stat("/a", {...}) = 0
1 00:00:01.000000 stat("/b", {...}) = 0
1 00:00:02.000000 stat("/c", {...}) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	d1 := evs[1].Time.Sub(evs[0].Time)
	if d1 <= 0 || d1 > 2*time.Second {
		t.Errorf("midnight gap = %v, want ~1.5s (clamped?)", d1)
	}
	if d2 := evs[2].Time.Sub(evs[1].Time); d2 != time.Second {
		t.Errorf("post-midnight gap = %v, want 1s", d2)
	}
	if evs[1].Time.Day() == evs[0].Time.Day() {
		t.Error("date did not roll forward across midnight")
	}
}

func TestMultipleMidnights(t *testing.T) {
	src := `1 23:00:00.000000 stat("/a", {...}) = 0
1 01:00:00.000000 stat("/b", {...}) = 0
1 23:30:00.000000 stat("/c", {...}) = 0
1 00:30:00.000000 stat("/d", {...}) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if !evs[i].Time.After(evs[i-1].Time) {
			t.Errorf("event %d time %v not after %v", i, evs[i].Time, evs[i-1].Time)
		}
	}
	if got := evs[3].Time.Sub(evs[0].Time); got != 25*time.Hour+30*time.Minute {
		t.Errorf("total span = %v, want 25h30m", got)
	}
}

func TestSameDayJitterStillClamped(t *testing.T) {
	// Small backwards jumps (reordered strace buffers) are clamped
	// monotone, not treated as a day rollover.
	src := `1 12:00:05.000000 stat("/a", {...}) = 0
1 12:00:04.000000 stat("/b", {...}) = 0
1 12:00:06.000000 stat("/c", {...}) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 3 {
		t.Fatal("events")
	}
	if !evs[1].Time.Equal(evs[0].Time) {
		t.Errorf("jitter not clamped: %v vs %v", evs[1].Time, evs[0].Time)
	}
	if got := evs[2].Time.Sub(evs[0].Time); got != time.Second {
		t.Errorf("post-jitter gap = %v, want 1s (rolled a day?)", got)
	}
}

func TestSymlink(t *testing.T) {
	src := `1 symlink("/home/u/proj/prog", "/home/u/bin/prog") = 0
1 symlinkat("/a/target", AT_FDCWD, "/b/link") = 0
`
	evs := parseAll(t, src)
	if len(evs) != 2 {
		t.Fatalf("events = %d: %+v", len(evs), evs)
	}
	if evs[0].Op != trace.OpSymlink || evs[0].Path != "/home/u/bin/prog" ||
		evs[0].Path2 != "/home/u/proj/prog" {
		t.Errorf("symlink = %+v", evs[0])
	}
	if evs[1].Path != "/b/link" || evs[1].Path2 != "/a/target" {
		t.Errorf("symlinkat = %+v", evs[1])
	}
}

func TestExitMarkers(t *testing.T) {
	cases := []struct {
		line string
		exit bool
	}{
		{"101 +++ exited with 0 +++", true},
		{"101 +++ exited with 127 +++", true},
		{"101 +++ killed by SIGKILL +++", true},
		{"101 +++ killed by SIGSEGV (core dumped) +++", true},
		{"101 +++ superseded by execve in pid 102 +++", false},
	}
	for _, c := range cases {
		p := NewParser()
		p.ParseLine(`101 openat(AT_FDCWD, "/a", O_RDONLY) = 3`)
		ev, ok := p.ParseLine(c.line)
		if ok != c.exit || ok && (ev.Op != trace.OpExit || ev.PID != 101) {
			t.Errorf("%q = %+v,%v, want exit %v", c.line, ev, ok, c.exit)
		}
		// An exit frees the pid's descriptor table; a non-exit keeps it.
		if _, kept := p.fdTables[101]; kept == c.exit {
			t.Errorf("%q: fd table kept = %v", c.line, kept)
		}
	}
}

func TestExitFreesFdTables(t *testing.T) {
	// A long-running shell forks a child per command; each child's
	// descriptor table and `<unfinished ...>` stash must go at its exit
	// line, or the parser keeps one table per process it has ever seen.
	p := NewParser()
	p.ParseLine(`100 openat(AT_FDCWD, "/home/u/log", O_WRONLY) = 3`)
	ends := []string{"exited with 0", "killed by SIGTERM"}
	for i := 0; i < 1000; i++ {
		child := 1000 + i
		for _, l := range []string{
			fmt.Sprintf("100 clone(child_stack=NULL, flags=SIGCHLD) = %d", child),
			fmt.Sprintf(`%d openat(AT_FDCWD, "/home/u/f%d", O_RDONLY) = 4`, child, i),
			fmt.Sprintf("%d read(4, <unfinished ...>", child),
			fmt.Sprintf("%d +++ %s +++", child, ends[i%2]),
		} {
			p.ParseLine(l)
		}
		if len(p.fdTables) != 1 || len(p.unfinished) != 0 {
			t.Fatalf("after %d children: %d fd tables, %d stashes, want 1 and 0",
				i+1, len(p.fdTables), len(p.unfinished))
		}
	}
	// The parent's table is untouched and still resolves its descriptor.
	if ev, ok := p.ParseLine("100 close(3) = 0"); !ok || ev.Path != "/home/u/log" {
		t.Errorf("parent close = %+v,%v", ev, ok)
	}
}

func TestSharedFdTableOutlivesExit(t *testing.T) {
	// A CLONE_FILES thread holds its own reference to the shared table,
	// so the creator's exit does not take the thread's descriptors away.
	src := `100 openat(AT_FDCWD, "/a", O_RDONLY) = 3
100 clone(child_stack=NULL, flags=CLONE_FILES|CLONE_VM|SIGCHLD) = 101
100 +++ exited with 0 +++
101 close(3) = 0
`
	evs := parseAll(t, src)
	if len(evs) != 4 || evs[3].Op != trace.OpClose || evs[3].Path != "/a" || evs[3].PID != 101 {
		t.Fatalf("thread close after creator exit = %+v, want close /a", evs)
	}
}
