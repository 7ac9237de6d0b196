// Package strace converts the output of strace(1) into SEER trace
// events, serving as the user-level observer on real Linux systems.
//
// The paper's observer was a kernel modification that traced system
// calls (§4.11). Without a kernel module, the same reference stream can
// be captured with
//
//	strace -f -tt -e trace=open,openat,creat,close,stat,lstat,access,
//	    execve,fork,vfork,clone,unlink,unlinkat,rename,renameat,mkdir,
//	    chdir,getdents,getdents64,exit_group -o trace.txt <shell>
//
// and fed to this parser. It tracks file descriptors per process so
// close(fd) and getdents(fd) resolve to pathnames, handles the
// `<unfinished ...>` / `<... resumed>` line splitting strace produces
// under -f, and maps each call to the corresponding trace.Op.
package strace

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/fmg/seer/internal/trace"
)

// Parser converts strace output into events.
type Parser struct {
	// Uid is the user id stamped on produced events (strace output does
	// not carry one); default 1000.
	Uid int32
	// BaseTime anchors relative/absent timestamps.
	BaseTime time.Time

	seq uint64
	// fdTables maps pid → fd → path.
	fdTables map[trace.PID]map[int]string
	// unfinished stashes the prefix of an `<unfinished ...>` line until
	// the matching `<... resumed>` arrives.
	unfinished map[trace.PID]string
	lastTime   time.Time
	// anchor carries the date strace's time-of-day timestamps are
	// anchored to; it starts at BaseTime's date and rolls forward each
	// time the clock wraps past midnight.
	anchor time.Time
}

// NewParser returns a Parser with defaults.
func NewParser() *Parser {
	return &Parser{
		Uid:        1000,
		BaseTime:   time.Date(1997, 1, 6, 8, 0, 0, 0, time.UTC),
		fdTables:   make(map[trace.PID]map[int]string),
		unfinished: make(map[trace.PID]string),
	}
}

// Parse consumes strace output and returns the events it could extract.
// Unrecognized lines are skipped; a line that looks like strace output
// but cannot be parsed is skipped silently too (strace emits plenty of
// decoration: signals, exit markers, attach notices).
func (p *Parser) Parse(r io.Reader) ([]trace.Event, error) {
	var events []trace.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if ev, ok := p.ParseLine(sc.Text()); ok {
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return events, err
	}
	return events, nil
}

// ParseLine parses one line of strace output.
func (p *Parser) ParseLine(line string) (trace.Event, bool) {
	line = strings.TrimSpace(line)
	if line == "" {
		return trace.Event{}, false
	}
	// Leading pid (present under -f); without -f assume pid 1.
	pid := trace.PID(1)
	if i := leadingDigits(line); i > 0 {
		n, _ := strconv.Atoi(line[:i])
		pid = trace.PID(n)
		line = strings.TrimSpace(line[i:])
	}
	// Optional timestamp: HH:MM:SS or HH:MM:SS.micro. Timestamps carry
	// only a time of day, so the date comes from the rolling anchor: a
	// clock that jumps backwards by more than ~12 hours is a trace
	// crossing midnight, not time travel — roll the anchored date
	// forward and keep going. (Without this, every event after
	// midnight was clamped to lastTime forever.) Small backwards
	// jitter within the same day is still clamped monotone below.
	if p.anchor.IsZero() {
		p.anchor = p.BaseTime
	}
	ts := p.lastTime
	if t, rest, ok := parseTimestamp(line, p.anchor); ok {
		if !p.lastTime.IsZero() && p.lastTime.Sub(t) > 12*time.Hour {
			p.anchor = p.anchor.AddDate(0, 0, 1)
			t = t.AddDate(0, 0, 1)
		}
		ts = t
		line = rest
	}
	if ts.IsZero() {
		ts = p.BaseTime
	}
	if ts.Before(p.lastTime) {
		ts = p.lastTime
	}
	p.lastTime = ts

	// Exit markers: `+++ exited with 0 +++` and `+++ killed by SIGKILL
	// +++` end the process; `+++ superseded by execve ... +++` does not.
	// The pid's descriptor table and stash die with it: a pid that comes
	// back is announced by the clone that returns it, which installs its
	// table anew.
	if strings.HasPrefix(line, "+++") {
		if strings.Contains(line, "exited") || strings.Contains(line, "killed by") {
			delete(p.fdTables, pid)
			delete(p.unfinished, pid)
			return p.emit(ts, pid, trace.Event{Op: trace.OpExit}), true
		}
		return trace.Event{}, false
	}
	// Signal lines: `--- SIGCHLD ... ---`.
	if strings.HasPrefix(line, "---") {
		return trace.Event{}, false
	}
	// Unfinished/resumed pairs.
	if strings.HasSuffix(line, "<unfinished ...>") {
		p.unfinished[pid] = strings.TrimSuffix(line, "<unfinished ...>")
		return trace.Event{}, false
	}
	if strings.HasPrefix(line, "<...") {
		prefix, ok := p.unfinished[pid]
		if !ok {
			return trace.Event{}, false
		}
		delete(p.unfinished, pid)
		end := strings.Index(line, "resumed>")
		if end < 0 {
			return trace.Event{}, false
		}
		line = prefix + strings.TrimSpace(line[end+len("resumed>"):])
	}

	call, args, result, ok := splitCall(line)
	if !ok {
		return trace.Event{}, false
	}
	failed := strings.HasPrefix(result, "-1")
	retval, _ := strconv.Atoi(firstField(result))

	switch call {
	case "open", "openat", "creat":
		path, ok := pathArg(args, call == "openat")
		if !ok {
			return trace.Event{}, false
		}
		op := trace.OpOpen
		if call == "creat" || strings.Contains(args, "O_CREAT") {
			op = trace.OpCreate
		}
		if strings.Contains(args, "O_DIRECTORY") {
			op = trace.OpReadDir
		}
		if !failed && retval >= 0 {
			p.fdTable(pid)[retval] = path
		}
		return p.emit(ts, pid, trace.Event{Op: op, Path: path, Failed: failed}), true
	case "close":
		fd, err := strconv.Atoi(firstField(args))
		if err != nil {
			return trace.Event{}, false
		}
		path, ok := p.fdTable(pid)[fd]
		if !ok {
			return trace.Event{}, false
		}
		delete(p.fdTable(pid), fd)
		return p.emit(ts, pid, trace.Event{Op: trace.OpClose, Path: path, Failed: failed}), true
	case "stat", "stat64", "lstat", "lstat64", "access", "statx", "newfstatat", "faccessat":
		path, ok := pathArg(args, call == "statx" || call == "newfstatat" || call == "faccessat")
		if !ok {
			return trace.Event{}, false
		}
		return p.emit(ts, pid, trace.Event{Op: trace.OpStat, Path: path, Failed: failed}), true
	case "execve":
		path, ok := pathArg(args, false)
		if !ok {
			return trace.Event{}, false
		}
		return p.emit(ts, pid, trace.Event{
			Op: trace.OpExec, Path: path, Prog: basename(path), Failed: failed,
		}), true
	case "fork", "vfork", "clone", "clone3":
		if failed || retval <= 0 {
			return trace.Event{}, false
		}
		// The child pid is the return value; the caller is the parent.
		// The child inherits the parent's file descriptors: without
		// this, close(fd)/getdents(fd) in a forked child resolve to
		// nothing and those events are silently dropped. CLONE_FILES
		// shares one fd table between parent and child; fork/vfork and
		// plain clone copy it.
		child := trace.PID(retval)
		if strings.Contains(args, "CLONE_FILES") {
			p.fdTables[child] = p.fdTable(pid)
		} else {
			parent := p.fdTable(pid)
			ct := make(map[int]string, len(parent))
			for fd, path := range parent {
				ct[fd] = path
			}
			p.fdTables[child] = ct
		}
		return p.emit(ts, child, trace.Event{Op: trace.OpFork, PPID: pid}), true
	case "unlink", "unlinkat":
		path, ok := pathArg(args, call == "unlinkat")
		if !ok {
			return trace.Event{}, false
		}
		return p.emit(ts, pid, trace.Event{Op: trace.OpDelete, Path: path, Failed: failed}), true
	case "rename", "renameat", "renameat2":
		at := call != "rename"
		from, to, ok := twoPathArgs(args, at)
		if !ok {
			return trace.Event{}, false
		}
		return p.emit(ts, pid, trace.Event{
			Op: trace.OpRename, Path: from, Path2: to, Failed: failed,
		}), true
	case "mkdir", "mkdirat":
		path, ok := pathArg(args, call == "mkdirat")
		if !ok {
			return trace.Event{}, false
		}
		return p.emit(ts, pid, trace.Event{Op: trace.OpMkdir, Path: path, Failed: failed}), true
	case "chdir":
		path, ok := pathArg(args, false)
		if !ok {
			return trace.Event{}, false
		}
		return p.emit(ts, pid, trace.Event{Op: trace.OpChdir, Path: path, Failed: failed}), true
	case "getdents", "getdents64":
		fd, err := strconv.Atoi(firstField(args))
		if err != nil {
			return trace.Event{}, false
		}
		path, ok := p.fdTable(pid)[fd]
		if !ok {
			return trace.Event{}, false
		}
		return p.emit(ts, pid, trace.Event{Op: trace.OpReadDir, Path: path, Failed: failed}), true
	case "symlink", "symlinkat":
		// symlink(target, linkpath) / symlinkat(target, dirfd, linkpath):
		// the target string comes first in both; the quoted-string
		// scanner skips the unquoted dirfd naturally.
		target, link, ok := twoPathArgs(args, false)
		if !ok {
			return trace.Event{}, false
		}
		return p.emit(ts, pid, trace.Event{
			Op: trace.OpSymlink, Path: link, Path2: target, Failed: failed,
		}), true
	case "dup", "dup2", "dup3":
		// Descriptor duplication: the new fd aliases the old one's file,
		// so a later close(newfd) resolves correctly.
		if failed || retval < 0 {
			return trace.Event{}, false
		}
		oldFd, err := strconv.Atoi(firstField(args))
		if err != nil {
			return trace.Event{}, false
		}
		if path, ok := p.fdTable(pid)[oldFd]; ok {
			p.fdTable(pid)[retval] = path
		}
		return trace.Event{}, false
	case "exit", "exit_group":
		return p.emit(ts, pid, trace.Event{Op: trace.OpExit}), true
	}
	return trace.Event{}, false
}

func (p *Parser) emit(ts time.Time, pid trace.PID, ev trace.Event) trace.Event {
	p.seq++
	ev.Seq = p.seq
	ev.Time = ts
	ev.PID = pid
	if ev.Uid == 0 {
		ev.Uid = p.Uid
	}
	return ev
}

func (p *Parser) fdTable(pid trace.PID) map[int]string {
	t := p.fdTables[pid]
	if t == nil {
		t = make(map[int]string)
		p.fdTables[pid] = t
	}
	return t
}

func leadingDigits(s string) int {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	// Require whitespace after the pid so `open(...)` is not mistaken.
	if i > 0 && i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		return i
	}
	return 0
}

// parseTimestamp accepts `HH:MM:SS` or `HH:MM:SS.micros` prefixes (each
// field ASCII digits) and anchors them to base's date.
func parseTimestamp(line string, base time.Time) (time.Time, string, bool) {
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return time.Time{}, line, false
	}
	hs, rest, ok1 := strings.Cut(line[:sp], ":")
	ms, ss, ok2 := strings.Cut(rest, ":")
	whole, frac, hasFrac := strings.Cut(ss, ".")
	if !ok1 || !ok2 || !isDigits(hs) || !isDigits(ms) || !isDigits(whole) || hasFrac && !isDigits(frac) {
		return time.Time{}, line, false
	}
	h, errH := strconv.Atoi(hs)
	m, errM := strconv.Atoi(ms)
	sec, errS := strconv.ParseFloat(ss, 64)
	if errH != nil || errM != nil || errS != nil {
		return time.Time{}, line, false
	}
	t := time.Date(base.Year(), base.Month(), base.Day(), h, m, 0, 0, base.Location()).
		Add(time.Duration(sec * float64(time.Second)))
	return t, strings.TrimSpace(line[sp:]), true
}

// isDigits reports whether s is a non-empty run of ASCII digits.
func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return s != ""
}

// splitCall breaks `name(args) = result ...` into its parts.
func splitCall(line string) (call, args, result string, ok bool) {
	open := strings.IndexByte(line, '(')
	if open <= 0 {
		return "", "", "", false
	}
	call = line[:open]
	if strings.ContainsAny(call, " \t<") {
		return "", "", "", false
	}
	argsEnd, resStart := resultSplit(line)
	if argsEnd < open {
		return "", "", "", false
	}
	args = line[open+1 : argsEnd]
	result = strings.TrimSpace(line[resStart:])
	return call, args, result, true
}

// resultSplit locates the `) = result` separator. strace pads short
// calls so the `=` column lines up (`close(3)          = 0`), so any
// run of spaces between the closing paren and the `=` must be
// accepted, not just a single one.
func resultSplit(line string) (argsEnd, resStart int) {
	if eq := strings.LastIndex(line, ") = "); eq >= 0 {
		return eq, eq + 4
	}
	for i := len(line) - 2; i > 0; i-- {
		if line[i] != '=' || line[i+1] != ' ' {
			continue
		}
		j := i - 1
		for j >= 0 && line[j] == ' ' {
			j--
		}
		if j >= 0 && line[j] == ')' {
			return j, i + 2
		}
	}
	return -1, -1
}

// pathArg extracts the first quoted string argument; for *at calls the
// dirfd argument precedes it and is skipped.
func pathArg(args string, at bool) (string, bool) {
	s := args
	if at {
		comma := strings.IndexByte(s, ',')
		if comma < 0 {
			return "", false
		}
		s = s[comma+1:]
	}
	return quotedString(s)
}

func twoPathArgs(args string, at bool) (string, string, bool) {
	s := args
	if at {
		if comma := strings.IndexByte(s, ','); comma >= 0 {
			s = s[comma+1:]
		}
	}
	from, rest, ok := quotedStringRest(s)
	if !ok {
		return "", "", false
	}
	if at {
		// renameat: ..., newdirfd, "newpath" — skip the fd.
		if comma := strings.IndexByte(rest, ','); comma >= 0 {
			rest = rest[comma+1:]
		}
	}
	to, _, ok := quotedStringRest(rest)
	if !ok {
		return "", "", false
	}
	return from, to, true
}

func quotedString(s string) (string, bool) {
	out, _, ok := quotedStringRest(s)
	return out, ok
}

func quotedStringRest(s string) (string, string, bool) {
	start := strings.IndexByte(s, '"')
	if start < 0 {
		return "", "", false
	}
	i := start + 1
	var b strings.Builder
	for i < len(s) {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			n := decodeEscape(&b, s[i+1:])
			i += 1 + n
			continue
		}
		if c == '"' {
			return b.String(), s[i+1:], true
		}
		b.WriteByte(c)
		i++
	}
	return "", "", false
}

// decodeEscape decodes one strace string escape starting after the
// backslash, writes the decoded byte to b, and returns how many input
// bytes were consumed. strace emits C-style escapes: \n, \t and
// friends, \" and \\, and octal \NNN (1–3 digits) for everything
// non-printable — decoding them as the literal next character mangles
// any path with a newline, tab, or non-ASCII byte in it.
func decodeEscape(b *strings.Builder, s string) int {
	if len(s) == 0 {
		return 0
	}
	switch s[0] {
	case 'n':
		b.WriteByte('\n')
	case 't':
		b.WriteByte('\t')
	case 'r':
		b.WriteByte('\r')
	case 'f':
		b.WriteByte('\f')
	case 'v':
		b.WriteByte('\v')
	case 'a':
		b.WriteByte('\a')
	case 'b':
		b.WriteByte('\b')
	case 'x':
		// Hex escape (strace -xx): \xNN.
		v, n := 0, 0
		for n < 2 && 1+n < len(s) && isHexDigit(s[1+n]) {
			v = v<<4 | hexVal(s[1+n])
			n++
		}
		if n == 0 {
			b.WriteByte('x')
			return 1
		}
		b.WriteByte(byte(v))
		return 1 + n
	case '0', '1', '2', '3', '4', '5', '6', '7':
		// Octal escape: \NNN, up to three digits.
		v, n := 0, 0
		for n < 3 && n < len(s) && s[n] >= '0' && s[n] <= '7' {
			v = v<<3 | int(s[n]-'0')
			n++
		}
		b.WriteByte(byte(v))
		return n
	default:
		// \" and \\ decode to the character itself; so does anything
		// unrecognized.
		b.WriteByte(s[0])
	}
	return 1
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

func firstField(s string) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return ""
	}
	return strings.TrimSuffix(fields[0], ",")
}

func basename(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
