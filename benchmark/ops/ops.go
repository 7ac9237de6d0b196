// Package ops builds the benchmark's four workloads as operation logs:
// the requests a load generator sends to seerd, in order, made only
// from the workload name and a seed. The end-to-end driver sends them
// over HTTP; the traced replay calls the same operations in-process.
package ops

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/fmg/seer/benchmark/users"
	"github.com/fmg/seer/internal/trace"
	"github.com/fmg/seer/internal/workload"
)

// Kind is one request type.
type Kind uint8

// The request types.
const (
	// Post sends Body to POST /events?user=.
	Post Kind = iota
	// Plan is GET /plan?user=.
	Plan
	// Hoard is GET /hoard?user=.
	Hoard
	// Miss is POST /miss?user=&path=Path.
	Miss
	// Wait blocks until every posted event has been fed to a correlator.
	Wait
)

var kindNames = [...]string{Post: "ingest", Plan: "plan", Hoard: "hoard", Miss: "miss", Wait: "wait"}

func (k Kind) String() string { return kindNames[k] }

// Op is one request.
type Op struct {
	Kind Kind
	User int
	// Body holds a Post's newline-terminated strace lines; Lines counts
	// them.
	Body  []byte
	Lines int
	// Path is the file a Miss reports.
	Path string
	// Due is when an open-loop request is sent, from the start of the
	// measured phase.
	Due time.Duration
	// Refs, on a Plan taken at a disconnection, lists the files the
	// user then opened or executed before reconnecting that existed
	// when it began; the plan's hoard quality is scored against them.
	Refs []string
}

// Mode is how the measured operations are sent.
type Mode uint8

// The load shapes.
const (
	// ClosedIngest posts Ops in order on two connections, keeping at
	// most Window posted events unfed, until the ops or the time run
	// out.
	ClosedIngest Mode = iota
	// ClosedCycle sends Ops round and round on two connections until
	// the time runs out.
	ClosedCycle
	// OpenSchedule sends each op at its Due time.
	OpenSchedule
	// Sequential sends Ops one at a time on one connection; it always
	// completes the first QualityOps ops and then stops at the deadline.
	Sequential
)

// Workload is one benchmark workload for one seed.
type Workload struct {
	Name  string
	Users []string
	// Setup is fed before timing starts and ends with a Wait.
	Setup []Op
	Mode  Mode
	Ops   []Op
	// Window bounds posted-but-unfed events under ClosedIngest.
	Window int
	// Rumor asks for a rumord with FileIDs replicated file ids.
	Rumor   bool
	FileIDs int
	// QualityOps is the Sequential prefix that is always completed, so
	// the hoard-quality score covers the same disconnections on every
	// run of a seed.
	QualityOps int
}

// Names lists the workloads in their canonical order.
var Names = []string{"ingest", "plan-read", "mixed", "reconnect"}

// Scale sizes a workload. Full is what the benchmark runs; tests use
// Toy.
type Scale struct {
	IngestUsers, IngestDays int
	ReadUsers, ReadDays     int
	RecUsers, RecDays       int
	// MixedRate is the event rate of mixed's open-loop stream, per
	// second.
	MixedRate    float64
	QualityPlans int
}

// Full is the benchmark's size.
var Full = Scale{
	IngestUsers: 24, IngestDays: 30,
	ReadUsers: 16, ReadDays: 25,
	RecUsers: 12, RecDays: 30,
	MixedRate:    8000,
	QualityPlans: 40,
}

// Toy is a seconds-long size for tests.
var Toy = Scale{
	IngestUsers: 4, IngestDays: 2,
	ReadUsers: 4, ReadDays: 3,
	RecUsers: 2, RecDays: 6,
	MixedRate:    2000,
	QualityPlans: 4,
}

const (
	ingestBatch  = 512
	ingestWindow = 8192 // the default shard queue capacity
	mixedBatch   = 64
	// readRate is mixed's Poisson read arrival rate, per second.
	readRate = 40
	// window is the simulated-time granularity at which users' traces
	// are merged: each user's lines of one window go as one run.
	window = time.Hour
)

// Build makes workload name for seed; seconds sizes the open-loop
// schedule.
func Build(name string, seed int64, seconds float64, sc Scale) (*Workload, error) {
	switch name {
	case "ingest":
		return buildIngest(seed, sc), nil
	case "plan-read":
		return buildPlanRead(seed, sc), nil
	case "mixed":
		return buildMixed(seed, seconds, sc), nil
	case "reconnect":
		return buildReconnect(seed, sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(Names, ", "))
}

// stream is one user's encoded trace reduced to what the workloads
// need, so that only one full users.User is alive while a workload is
// built.
type stream struct {
	recs []rec
	// discs holds the user's disconnections by the index of their
	// disconnect marker.
	discs map[int]users.Disc
	// opens lists each path the user opens, with the index of its first
	// open.
	opens []open
	// paths lists every path the user names.
	paths []string
}

// rec is one strace line, or a connectivity marker.
type rec struct {
	at   int64 // simulated time, Unix nanoseconds
	line string
	op   trace.Op
}

type open struct {
	path string
	i    int
}

func digest(u *users.User) *stream {
	s := &stream{recs: make([]rec, len(u.Recs)), discs: make(map[int]users.Disc)}
	for _, d := range u.Disconnections() {
		s.discs[d.Start] = d
	}
	named, opened := make(map[string]bool), make(map[string]bool)
	for i, r := range u.Recs {
		s.recs[i] = rec{at: r.Ev.Time.UnixNano(), line: r.Line, op: r.Ev.Op}
		for _, p := range [...]string{r.Ev.Path, r.Ev.Path2} {
			if p != "" && !named[p] {
				named[p] = true
				s.paths = append(s.paths, p)
			}
		}
		if r.Ev.Op == trace.OpOpen && !opened[r.Ev.Path] {
			opened[r.Ev.Path] = true
			s.opens = append(s.opens, open{r.Ev.Path, i})
		}
	}
	return s
}

func profile(name string, days int) workload.Profile {
	p, _ := workload.ProfileByName(name)
	return p.Light(days)
}

func userName(i int) string { return fmt.Sprintf("user%02d", i) }

func makeUsers(n int, prof string, days int, seed int64) ([]string, []*stream) {
	p := profile(prof, days)
	names := make([]string, n)
	us := make([]*stream, n)
	for i := range us {
		names[i] = userName(i)
		us[i] = digest(users.New(i, names[i], p, seed))
	}
	return names, us
}

// batch appends lines as Posts of at most size lines for user u.
func batch(out []Op, u int, lines []string, size int) []Op {
	for len(lines) > 0 {
		n := min(len(lines), size)
		out = append(out, Op{Kind: Post, User: u, Body: []byte(strings.Join(lines[:n], "\n") + "\n"), Lines: n})
		lines = lines[n:]
	}
	return out
}

// merge visits users' recs [from[u], to[u]) in simulated-time order at
// window granularity: window by window, each user's recs of the window
// in user order. run is called with each maximal run of one user's
// consecutive lines; marker is called for connectivity recs. Visited
// lines are consumed.
func merge(us []*stream, from, to []int, run func(u int, lines []string), marker func(u, i int)) {
	pos := append([]int(nil), from...)
	start := int64(-1)
	for u := range us {
		if pos[u] < to[u] {
			if t := us[u].recs[pos[u]].at; start < 0 || t < start {
				start = t
			}
		}
	}
	win := func(u int) int64 { return (us[u].recs[pos[u]].at - start) / int64(window) }
	for {
		w := int64(-1)
		for u := range us {
			if pos[u] < to[u] && (w < 0 || win(u) < w) {
				w = win(u)
			}
		}
		if w < 0 {
			return
		}
		for u := range us {
			var lines []string
			for pos[u] < to[u] && win(u) <= w {
				r := &us[u].recs[pos[u]]
				if !r.op.IsConnectivity() {
					lines = append(lines, r.line)
					// The batch copies the line; dropping it here keeps
					// the inputs from being held twice.
					r.line = ""
				} else if marker != nil {
					if len(lines) > 0 {
						run(u, lines)
						lines = nil
					}
					marker(u, pos[u])
				}
				pos[u]++
			}
			if len(lines) > 0 {
				run(u, lines)
			}
		}
	}
}

func spans(us []*stream, frac float64) (from, cut, to []int) {
	from, cut, to = make([]int, len(us)), make([]int, len(us)), make([]int, len(us))
	for u, x := range us {
		to[u] = len(x.recs)
		cut[u] = int(float64(len(x.recs)) * frac)
	}
	return from, cut, to
}

// buildIngest: many heavy users' whole traces, batch k of every user
// before batch k+1 of any. Users are generated one at a time and only
// their batches kept.
func buildIngest(seed int64, sc Scale) *Workload {
	p := profile("F", sc.IngestDays)
	w := &Workload{Name: "ingest", Mode: ClosedIngest, Window: ingestWindow}
	per := make([][]Op, sc.IngestUsers)
	for u := range per {
		w.Users = append(w.Users, userName(u))
		x := users.New(u, w.Users[u], p, seed)
		lines := make([]string, 0, len(x.Recs))
		for _, r := range x.Recs {
			if r.Line != "" {
				lines = append(lines, r.Line)
			}
		}
		per[u] = batch(nil, u, lines, ingestBatch)
	}
	for k := 0; ; k++ {
		more := false
		for u := range per {
			if k < len(per[u]) {
				w.Ops = append(w.Ops, per[u][k])
				more = true
			}
		}
		if !more {
			return w
		}
	}
}

// setupOps feeds recs [from, to) of every user in simulated-time order
// and waits for them.
func setupOps(us []*stream, from, to []int) []Op {
	var out []Op
	merge(us, from, to, func(u int, lines []string) { out = batch(out, u, lines, ingestBatch) }, nil)
	return append(out, Op{Kind: Wait})
}

func buildPlanRead(seed int64, sc Scale) *Workload {
	names, us := makeUsers(sc.ReadUsers, "D", sc.ReadDays, seed)
	from, _, to := spans(us, 1)
	w := &Workload{Name: "plan-read", Users: names, Setup: setupOps(us, from, to), Mode: ClosedCycle}
	// Round-robin users, /plan:/hoard = 2:1; 3*len(users) ops give every
	// user both kinds before the cycle repeats.
	for i := 0; i < 3*len(us); i++ {
		k := Plan
		if i%3 == 2 {
			k = Hoard
		}
		w.Ops = append(w.Ops, Op{Kind: k, User: i % len(us)})
	}
	return w
}

// buildMixed: the plan-read users with the head of their history fed
// in set-up; the tail streams at MixedRate for the whole measured phase
// while reads arrive as a Poisson process.
func buildMixed(seed int64, seconds float64, sc Scale) *Workload {
	names, us := makeUsers(sc.ReadUsers, "D", sc.ReadDays, seed)
	total := 0
	for _, x := range us {
		total += len(x.recs)
	}
	// Keep back the tail the stream needs, and at least a tenth.
	head := min(0.9, 1-sc.MixedRate*seconds/float64(total))
	from, cut, to := spans(us, max(head, 0.3))
	w := &Workload{Name: "mixed", Users: names, Setup: setupOps(us, from, cut), Mode: OpenSchedule}
	horizon := time.Duration(seconds * float64(time.Second))
	var posts []Op
	merge(us, cut, to, func(u int, lines []string) { posts = batch(posts, u, lines, mixedBatch) }, nil)
	sent := 0
	for _, p := range posts {
		p.Due = time.Duration(float64(sent) / sc.MixedRate * float64(time.Second))
		if p.Due >= horizon {
			break
		}
		sent += p.Lines
		w.Ops = append(w.Ops, p)
	}
	// Misses name files the user opened before the split.
	earlier := make([][]string, len(us))
	for u, x := range us {
		for _, o := range x.opens {
			if o.i < cut[u] {
				earlier[u] = append(earlier[u], o.path)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var reads []Op
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / readRate * float64(time.Second))
		if t >= horizon {
			break
		}
		op := Op{User: rng.Intn(len(us)), Due: t}
		switch rng.Intn(4) {
		case 0:
			op.Kind = Plan
		case 1:
			op.Kind = Hoard
		default:
			op.Kind = Miss
			op.Path = earlier[op.User][rng.Intn(len(earlier[op.User]))]
		}
		reads = append(reads, op)
	}
	w.Ops = mergeDue(w.Ops, reads)
	return w
}

func mergeDue(a, b []Op) []Op {
	out := make([]Op, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && a[0].Due <= b[0].Due) {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return out
}

// buildReconnect: the paper's cycle. Events stream in simulated-time
// order on one connection; at each disconnection the user takes a
// plan, and at each reconnection a hoard, each after the daemon has
// caught up.
func buildReconnect(seed int64, sc Scale) *Workload {
	names, us := makeUsers(sc.RecUsers, "F", sc.RecDays, seed)
	w := &Workload{Name: "reconnect", Users: names, Mode: Sequential, Rumor: true}
	paths := make(map[string]bool)
	for _, x := range us {
		for _, p := range x.paths {
			paths[p] = true
		}
	}
	// A shard's file ids run from 1 to the number of paths it has seen,
	// which all its users' paths together bound.
	w.FileIDs = len(paths)
	from, _, to := spans(us, 1)
	open := make([]bool, len(us))
	plans := 0
	merge(us, from, to,
		func(u int, lines []string) { w.Ops = batch(w.Ops, u, lines, ingestBatch) },
		func(u, i int) {
			switch us[u].recs[i].op {
			case trace.OpDisconnect:
				d, ok := us[u].discs[i]
				if !ok {
					return
				}
				open[u] = true
				w.Ops = append(w.Ops, Op{Kind: Wait}, Op{Kind: Plan, User: u, Refs: d.Paths})
				if plans++; plans == sc.QualityPlans {
					w.QualityOps = len(w.Ops)
				}
			case trace.OpReconnect:
				if !open[u] {
					return
				}
				open[u] = false
				w.Ops = append(w.Ops, Op{Kind: Wait}, Op{Kind: Hoard, User: u})
			}
		})
	if w.QualityOps == 0 {
		w.QualityOps = len(w.Ops)
	}
	return w
}
