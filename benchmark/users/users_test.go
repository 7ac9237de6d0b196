package users

import (
	"testing"

	"github.com/fmg/seer/internal/strace"
	"github.com/fmg/seer/internal/trace"
	"github.com/fmg/seer/internal/workload"
)

// key is the part of an event the encoding must preserve.
type key struct {
	op          trace.Op
	path, path2 string
	pid, ppid   trace.PID
}

func keyOf(ev trace.Event) key {
	return key{ev.Op, ev.Path, ev.Path2, ev.PID, ev.PPID}
}

func profile(t *testing.T, name string, days int) workload.Profile {
	t.Helper()
	p, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	return p.Light(days)
}

// TestEncoderRoundTrip parses the encoded lines with the daemon's strace
// parser and expects the generator's event sequence back, for every
// kind of event the generator emits.
func TestEncoderRoundTrip(t *testing.T) {
	for _, prof := range []string{"D", "F"} {
		for seed := int64(1); seed <= 3; seed++ {
			p := profile(t, prof, 8)
			u := New(0, "alice", p, seed)
			generated := make(map[trace.Op]int)
			for _, ev := range workload.NewGenerator(p, seed).Generate().Events {
				if !ev.Op.IsConnectivity() {
					generated[ev.Op]++
				}
			}
			encoded := make(map[trace.Op]int)
			parser := strace.NewParser()
			for i, r := range u.Recs {
				if r.Line == "" {
					continue
				}
				got, ok := parser.ParseLine(r.Line)
				if !ok {
					t.Fatalf("%s/%d rec %d: parser rejected %q", prof, seed, i, r.Line)
				}
				if keyOf(got) != keyOf(r.Ev) {
					t.Fatalf("%s/%d rec %d: %q parsed as %+v, want %+v", prof, seed, i, r.Line, keyOf(got), keyOf(r.Ev))
				}
				if got.Op == trace.OpExec && got.Prog != r.Ev.Prog {
					t.Fatalf("%s/%d rec %d: prog %q, want %q", prof, seed, i, got.Prog, r.Ev.Prog)
				}
				encoded[got.Op]++
			}
			for op, n := range generated {
				if encoded[op] == 0 {
					t.Errorf("%s/%d: generator emitted %d %v events, none encoded", prof, seed, n, op)
				}
			}
			// Only closes of never-opened files may be dropped.
			if u.Skipped > generated[trace.OpClose]/20 {
				t.Errorf("%s/%d: skipped %d events, more than 5%% of %d closes", prof, seed, u.Skipped, generated[trace.OpClose])
			}
		}
	}
}

// TestEncoderEscapesAndRareCalls covers the calls and path bytes the
// generator does not produce.
func TestEncoderEscapesAndRareCalls(t *testing.T) {
	evs := []trace.Event{
		{Op: trace.OpMkdir, PID: 7, Path: "/home/u/new dir"},
		{Op: trace.OpChdir, PID: 7, Path: "/home/u/new dir"},
		{Op: trace.OpOpen, PID: 7, Path: "/home/u/q\"uo\\te\n"},
		{Op: trace.OpClose, PID: 7, Path: "/home/u/q\"uo\\te\n"},
	}
	u := encode("bob", 1000, evs)
	parser := strace.NewParser()
	for i, r := range u.Recs {
		got, ok := parser.ParseLine(r.Line)
		if !ok || keyOf(got) != keyOf(r.Ev) {
			t.Fatalf("rec %d: %q parsed as %+v (ok %v), want %+v", i, r.Line, keyOf(got), ok, keyOf(r.Ev))
		}
	}
	if want := "/home/bob/new dir"; u.Recs[0].Ev.Path != want {
		t.Errorf("rewritten path %q, want %q", u.Recs[0].Ev.Path, want)
	}
}

// TestInterleavedUsersStayDisjoint feeds two users' lines, alternating
// 512-line batches, through one parser (as a shard does) and checks that
// each user's events come back unchanged.
func TestInterleavedUsersStayDisjoint(t *testing.T) {
	p := profile(t, "F", 5)
	us := []*User{New(0, "alice", p, 1), New(1, "bob", p, 1)}
	parser := strace.NewParser()
	pos := make([]int, len(us))
	for done := 0; done < len(us); {
		done = 0
		for ui, u := range us {
			if pos[ui] == len(u.Recs) {
				done++
				continue
			}
			for n := 0; n < 512 && pos[ui] < len(u.Recs); pos[ui]++ {
				r := u.Recs[pos[ui]]
				if r.Line == "" {
					continue
				}
				n++
				got, ok := parser.ParseLine(r.Line)
				if !ok || keyOf(got) != keyOf(r.Ev) {
					t.Fatalf("%s rec %d: %q parsed as %+v (ok %v), want %+v",
						u.Name, pos[ui], r.Line, keyOf(got), ok, keyOf(r.Ev))
				}
			}
		}
	}
	paths := make(map[string]string)
	for _, u := range us {
		for _, r := range u.Recs {
			if len(r.Ev.Path) > len("/home/") && r.Ev.Path[:6] == "/home/" {
				if owner, ok := paths[r.Ev.Path]; ok && owner != u.Name {
					t.Fatalf("path %s shared by %s and %s", r.Ev.Path, owner, u.Name)
				}
				paths[r.Ev.Path] = u.Name
			}
		}
	}
}

func TestDisconnectionsReferenceOnlyPriorFiles(t *testing.T) {
	u := New(0, "alice", profile(t, "F", 30), 1)
	discs := u.Disconnections()
	if len(discs) == 0 {
		t.Fatal("no disconnections")
	}
	withRefs := 0
	for _, d := range discs {
		if u.Recs[d.Start].Ev.Op != trace.OpDisconnect {
			t.Fatalf("disconnection starts at a %v", u.Recs[d.Start].Ev.Op)
		}
		before := make(map[string]bool)
		for _, r := range u.Recs[:d.Start] {
			before[r.Ev.Path] = true
			before[r.Ev.Path2] = true
		}
		for _, p := range d.Paths {
			if !before[p] {
				t.Fatalf("disconnection at %d scores %s, never named before it", d.Start, p)
			}
		}
		if len(d.Paths) > 0 {
			withRefs++
		}
	}
	if withRefs == 0 {
		t.Fatal("no disconnection references an existing file")
	}
}
