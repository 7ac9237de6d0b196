// Package replay re-executes a workload's operation log in-process
// through the layers' public functions: a shard.Manager like seerd's,
// and beside each shard a twin strace parser and correlator fed the
// same lines. The twins give the benchmark an independent reference to
// check seerd's plans against, and the traced replay times every layer
// call from outside.
//
// Unlike the end-to-end driver this package imports the daemon's
// internal packages, so an internal API change that breaks it shows up
// here.
package replay

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"github.com/fmg/seer/benchmark/e2e"
	"github.com/fmg/seer/benchmark/ops"
	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/strace"
	"github.com/fmg/seer/internal/trace"
)

// shards is seerd's -shards setting in the benchmark.
const shards = 2

// twin is the reference pipeline of one shard slot: its own parser and
// a correlator seeded as seerd seeds that slot's.
type twin struct {
	parser *strace.Parser
	corr   *core.Correlator
}

// twins routes users to slots with the same ring the daemon uses.
type twins struct {
	ring *shard.Ring
	t    []*twin
}

func newTwins() *twins {
	ts := &twins{ring: shard.NewRing(shards, 0)}
	for i := 0; i < shards; i++ {
		// seerd's shard manager seeds slot i with 1+i.
		ts.t = append(ts.t, &twin{parser: strace.NewParser(), corr: core.New(core.Options{Seed: 1 + int64(i)})})
	}
	return ts
}

func (ts *twins) of(w *ops.Workload, op ops.Op) *twin {
	return ts.t[ts.ring.Slot(w.Users[op.User])]
}

func lines(body []byte) []string {
	return strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
}

// feed parses and feeds one post's lines.
func (t *twin) feed(body []byte) {
	for _, ev := range t.parseAll(lines(body)) {
		t.corr.Feed(ev)
	}
}

func (t *twin) parseAll(ls []string) []trace.Event {
	evs := make([]trace.Event, 0, len(ls))
	for _, l := range ls {
		if ev, ok := t.parser.ParseLine(l); ok {
			evs = append(evs, ev)
		}
	}
	return evs
}

// render writes a plan exactly as Shard.Plan does.
func render(plan *hoard.Plan) []byte {
	var buf bytes.Buffer
	for i, e := range plan.Entries {
		fmt.Fprintf(&buf, "%5d %8s %10d %12d %s\n", i, e.Reason, e.File.Size, e.Cum, e.File.Path)
	}
	return buf.Bytes()
}

func entries(plan *hoard.Plan) []e2e.Entry {
	out := make([]e2e.Entry, len(plan.Entries))
	for i, e := range plan.Entries {
		out[i] = e2e.Entry{Path: e.File.Path, Cum: e.Cum}
	}
	return out
}

func samePlan(a, b []e2e.Entry) (int, bool) {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

// Check compares seerd's plans in res with the twins' plans for the
// same per-shard input: every user's /plan after plan-read's set-up,
// and every plan the reconnect quality prefix scored, whose miss-free
// size must then repeat bit for bit. It returns the failed checks.
func Check(ctx context.Context, w *ops.Workload, res *e2e.Result) ([]string, error) {
	var problems []string
	ts := newTwins()
	// compare checks seerd's plan got against the twin's and returns
	// the twin's.
	compare := func(what string, op ops.Op, got []e2e.Entry) ([]e2e.Entry, error) {
		plan, err := ts.of(w, op).corr.PlanContext(ctx)
		if err != nil {
			return nil, err
		}
		want := entries(plan)
		if i, ok := samePlan(got, want); !ok {
			problems = append(problems, fmt.Sprintf(
				"%s: seerd's plan for %s differs from the twin correlator's at entry %d of %d/%d",
				what, w.Users[op.User], i, len(got), len(want)))
		}
		return want, nil
	}
	switch w.Name {
	case "plan-read":
		for _, op := range w.Setup {
			if op.Kind == ops.Post {
				ts.of(w, op).feed(op.Body)
			}
		}
		for u, got := range res.UserPlans {
			if _, err := compare("after set-up", ops.Op{User: u}, got); err != nil {
				return nil, err
			}
		}
	case "reconnect":
		plans := make(map[int][]e2e.Entry)
		for i, op := range w.Ops[:w.QualityOps] {
			if op.Kind == ops.Post {
				ts.of(w, op).feed(op.Body)
				continue
			}
			got, ok := res.ScoredPlans[i]
			if !ok {
				continue // not a scored plan, or the request failed and is counted
			}
			want, err := compare(fmt.Sprintf("disconnection plan at op %d", i), op, got)
			if err != nil {
				return nil, err
			}
			plans[i] = want
		}
		if mf := e2e.MeanMissFree(w, plans); mf != res.MissFree {
			problems = append(problems, fmt.Sprintf(
				"miss-free hoard size %v B from seerd's plans, %v B from the twins'", res.MissFree, mf))
		}
	}
	return problems, nil
}
