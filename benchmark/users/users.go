// Package users turns calibrated synthetic SEER users
// (internal/workload) into the `strace -f -tt` text seerd ingests.
//
// Each user is one workload.Generator trace, rewritten so that several
// users can share one shard: the generator's home directory /home/u
// becomes /home/<name>, its mailbox and /tmp names move likewise, and
// every pid gets a per-user offset. A shard runs one strace parser and
// one correlator for all of its users, so without the offset two users'
// file-descriptor tables and process histories would merge.
package users

import (
	"fmt"
	"strings"

	"github.com/fmg/seer/internal/trace"
	"github.com/fmg/seer/internal/workload"
)

// pidStride separates users' pid ranges; a generated trace uses far
// fewer pids than this (one per spawned program).
const pidStride = 100000

// Rec is one event of a user's trace. Line is its strace text, and Ev
// is the event the strace parser must yield for that line (paths and
// pids already rewritten). Connectivity markers (disconnect, reconnect,
// suspend, resume) have no strace form: their Line is empty.
type Rec struct {
	Ev   trace.Event
	Line string
}

// User is one synthetic user's encoded trace.
type User struct {
	Name string
	Recs []Rec
	// Skipped counts generated events the encoder could not express as
	// strace, such as a close of a file the process never opened.
	Skipped int
}

// New generates user index's trace from prof with seed seed+index and
// encodes it.
func New(index int, name string, prof workload.Profile, seed int64) *User {
	tr := workload.NewGenerator(prof, seed+int64(index)).Generate()
	return encode(name, trace.PID((index+1)*pidStride), tr.Events)
}

// encode renders evs as strace lines for the user called name, adding
// pidOffset to every pid.
func encode(name string, pidOffset trace.PID, evs []trace.Event) *User {
	e := &encoder{fds: make(map[trace.PID]*fdTable)}
	u := &User{Name: name, Recs: make([]Rec, 0, len(evs))}
	for _, ev := range evs {
		ev.Path = rewritePath(ev.Path, name)
		ev.Path2 = rewritePath(ev.Path2, name)
		if ev.PID != 0 {
			ev.PID += pidOffset
		}
		if ev.PPID != 0 {
			ev.PPID += pidOffset
		}
		if ev.Op.IsConnectivity() {
			u.Recs = append(u.Recs, Rec{Ev: ev})
			continue
		}
		line, ok := e.line(ev)
		if !ok {
			u.Skipped++
			continue
		}
		u.Recs = append(u.Recs, Rec{Ev: ev, Line: line})
	}
	return u
}

// rewritePath moves the generator's single-user paths into name's
// namespace.
func rewritePath(p, name string) string {
	for _, r := range [...]struct{ from, to string }{
		{"/home/u", "/home/" + name},
		{"/var/spool/mail/u", "/var/spool/mail/" + name},
	} {
		if p == r.from || strings.HasPrefix(p, r.from+"/") {
			return r.to + p[len(r.from):]
		}
	}
	if strings.HasPrefix(p, "/tmp/") {
		return "/tmp/" + name + "-" + p[len("/tmp/"):]
	}
	return p
}

// fdTable mirrors one process's descriptor table as strace would show
// it: the lowest free descriptor is handed out first.
type fdTable struct {
	used   map[int]string
	byPath map[string][]int
}

func newFDTable() *fdTable {
	return &fdTable{used: make(map[int]string), byPath: make(map[string][]int)}
}

func (t *fdTable) clone() *fdTable {
	c := newFDTable()
	for fd, p := range t.used {
		c.used[fd] = p
		c.byPath[p] = append(c.byPath[p], fd)
	}
	return c
}

func (t *fdTable) open(path string) int {
	fd := 3
	for t.used[fd] != "" {
		fd++
	}
	t.used[fd] = path
	t.byPath[path] = append(t.byPath[path], fd)
	return fd
}

// close releases the most recent descriptor open on path.
func (t *fdTable) close(path string) (int, bool) {
	fds := t.byPath[path]
	if len(fds) == 0 {
		return 0, false
	}
	fd := fds[len(fds)-1]
	t.byPath[path] = fds[:len(fds)-1]
	delete(t.used, fd)
	return fd, true
}

type encoder struct {
	fds map[trace.PID]*fdTable
}

func (e *encoder) table(pid trace.PID) *fdTable {
	t := e.fds[pid]
	if t == nil {
		t = newFDTable()
		e.fds[pid] = t
	}
	return t
}

// line renders one file or process event; ok is false when strace has
// no line for it.
func (e *encoder) line(ev trace.Event) (string, bool) {
	pid := ev.PID
	var call string
	switch ev.Op {
	case trace.OpOpen:
		call = fmt.Sprintf("openat(AT_FDCWD, %s, O_RDONLY) = %d", quote(ev.Path), e.table(pid).open(ev.Path))
	case trace.OpCreate:
		call = fmt.Sprintf("openat(AT_FDCWD, %s, O_WRONLY|O_CREAT|O_TRUNC, 0644) = %d", quote(ev.Path), e.table(pid).open(ev.Path))
	case trace.OpReadDir:
		call = fmt.Sprintf("openat(AT_FDCWD, %s, O_RDONLY|O_NONBLOCK|O_CLOEXEC|O_DIRECTORY) = %d", quote(ev.Path), e.table(pid).open(ev.Path))
	case trace.OpClose:
		fd, ok := e.table(pid).close(ev.Path)
		if !ok {
			return "", false
		}
		call = fmt.Sprintf("close(%d) = 0", fd)
	case trace.OpStat:
		call = fmt.Sprintf("stat(%s, {st_mode=S_IFREG|0644, st_size=4096, ...}) = 0", quote(ev.Path))
	case trace.OpExec:
		call = fmt.Sprintf("execve(%s, [%s], 0x7ffd2c8e9a40 /* 24 vars */) = 0", quote(ev.Path), quote(ev.Prog))
	case trace.OpFork:
		// The clone line belongs to the parent; its return value is the
		// child, which inherits a copy of the parent's descriptors.
		e.fds[pid] = e.table(ev.PPID).clone()
		pid = ev.PPID
		call = fmt.Sprintf("clone(child_stack=NULL, flags=CLONE_CHILD_CLEARTID|CLONE_CHILD_SETTID|SIGCHLD, child_tidptr=0x7f3a5c1e2a10) = %d", ev.PID)
	case trace.OpExit:
		call = "+++ exited with 0 +++"
	case trace.OpDelete:
		call = fmt.Sprintf("unlink(%s) = 0", quote(ev.Path))
	case trace.OpRename:
		call = fmt.Sprintf("rename(%s, %s) = 0", quote(ev.Path), quote(ev.Path2))
	case trace.OpMkdir:
		call = fmt.Sprintf("mkdir(%s, 0755) = 0", quote(ev.Path))
	case trace.OpChdir:
		call = fmt.Sprintf("chdir(%s) = 0", quote(ev.Path))
	case trace.OpSymlink:
		call = fmt.Sprintf("symlink(%s, %s) = 0", quote(ev.Path2), quote(ev.Path))
	default:
		return "", false
	}
	return fmt.Sprintf("%d  %s %s", pid, ev.Time.Format("15:04:05.000000"), call), true
}

// quote renders s as a strace string literal: C escapes for quotes,
// backslashes and non-printable bytes.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20 || c >= 0x7f:
			fmt.Fprintf(&b, "\\%03o", c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Disc is one disconnection of a user: the Recs index of its
// disconnect marker, and the paths the user opened or executed while
// disconnected that already existed when it began (the files a hoard
// filled at disconnection could have held; mirrors sim.MissFree).
type Disc struct {
	Start int
	Paths []string
}

// Disconnections lists the user's complete disconnections in trace
// order.
func (u *User) Disconnections() []Disc {
	// born maps each existing path to the Recs index at which it last
	// came into existence.
	born := make(map[string]int)
	var out []Disc
	cur := -1
	seen := make(map[string]bool)
	var paths []string
	for i, r := range u.Recs {
		ev := r.Ev
		switch ev.Op {
		case trace.OpDisconnect:
			cur, paths, seen = i, nil, make(map[string]bool)
			continue
		case trace.OpReconnect:
			if cur >= 0 {
				out = append(out, Disc{Start: cur, Paths: paths})
			}
			cur = -1
			continue
		case trace.OpDelete:
			delete(born, ev.Path)
			continue
		case trace.OpRename:
			delete(born, ev.Path)
			born[ev.Path2] = i
			continue
		case trace.OpCreate:
			born[ev.Path] = i
			continue
		}
		if !ev.Op.IsFileRef() || ev.Path == "" {
			continue
		}
		b, ok := born[ev.Path]
		if !ok {
			born[ev.Path] = i
			b = i
		}
		if cur >= 0 && (ev.Op == trace.OpOpen || ev.Op == trace.OpExec) && b < cur && !seen[ev.Path] {
			seen[ev.Path] = true
			paths = append(paths, ev.Path)
		}
	}
	return out
}
