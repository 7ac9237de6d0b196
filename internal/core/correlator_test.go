package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/investigate"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/trace"
)

// driver feeds synthetic events with automatic sequencing.
type driver struct {
	c   *Correlator
	seq uint64
	now time.Time
}

func newDriver(mutate func(*config.Params)) *driver {
	p := config.Defaults()
	p.KNear = 3
	p.KFar = 2
	if mutate != nil {
		mutate(&p)
	}
	return &driver{
		c:   New(Options{Params: &p, Seed: 42}),
		now: time.Unix(10000, 0),
	}
}

func (d *driver) ev(op trace.Op, pid trace.PID, path string) {
	d.seq++
	d.now = d.now.Add(100 * time.Millisecond)
	d.c.Feed(trace.Event{
		Seq: d.seq, Time: d.now, PID: pid, Op: op, Path: path, Uid: 1000,
	})
}

// session simulates an edit/compile pass over a project's files: every
// file opened while the first stays open (like a driver source), giving
// strong mutual relationships.
func (d *driver) session(pid trace.PID, files []string) {
	d.ev(trace.OpOpen, pid, files[0])
	for _, f := range files[1:] {
		d.ev(trace.OpOpen, pid, f)
		d.ev(trace.OpClose, pid, f)
	}
	d.ev(trace.OpClose, pid, files[0])
}

func projectFiles(name string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/home/u/%s/f%02d", name, i)
	}
	return out
}

func (d *driver) id(path string) simfs.FileID {
	f := d.c.FS().Lookup(path)
	if f == nil {
		return simfs.NoFile
	}
	return f.ID
}

func TestTwoProjectsSeparateClusters(t *testing.T) {
	d := newDriver(nil)
	alpha := projectFiles("alpha", 6)
	beta := projectFiles("beta", 6)
	for i := 0; i < 5; i++ {
		d.session(1, alpha)
		d.session(2, beta)
	}
	res := d.c.Clusters()
	// All alpha files must share a cluster; likewise beta; and no
	// cluster may contain both an alpha and a beta file.
	aCl := d.c.FS().Lookup(alpha[0])
	if aCl == nil {
		t.Fatal("alpha file not interned")
	}
	clustersOf := func(path string) map[int]bool {
		out := map[int]bool{}
		for _, ci := range res.ClustersOf(d.id(path)) {
			out[ci] = true
		}
		return out
	}
	a0 := clustersOf(alpha[0])
	for _, p := range alpha[1:] {
		shared := false
		for ci := range clustersOf(p) {
			if a0[ci] {
				shared = true
			}
		}
		if !shared {
			t.Errorf("alpha file %s not clustered with %s", p, alpha[0])
		}
	}
	for _, cl := range res.Clusters {
		hasAlpha, hasBeta := false, false
		for _, m := range cl.Members {
			path := d.c.FS().Get(m).Path
			if len(path) > 12 && path[8:13] == "alpha" {
				hasAlpha = true
			}
			if len(path) > 11 && path[8:12] == "beta" {
				hasBeta = true
			}
		}
		if hasAlpha && hasBeta {
			t.Errorf("cluster %d mixes projects: %v", cl.ID, cl.Members)
		}
	}
}

func TestPlanRanksActiveProjectFirst(t *testing.T) {
	d := newDriver(nil)
	alpha := projectFiles("alpha", 5)
	beta := projectFiles("beta", 5)
	for i := 0; i < 4; i++ {
		d.session(1, alpha)
	}
	for i := 0; i < 4; i++ {
		d.session(2, beta)
	}
	// beta is the most recently active project: all beta files must
	// outrank all alpha files in the plan.
	plan := d.c.Plan()
	worstBeta, bestAlpha := -1, 1<<30
	for _, p := range beta {
		if r := plan.Rank(d.id(p)); r > worstBeta {
			worstBeta = r
		}
	}
	for _, p := range alpha {
		if r := plan.Rank(d.id(p)); r >= 0 && r < bestAlpha {
			bestAlpha = r
		}
	}
	if worstBeta < 0 || bestAlpha == 1<<30 {
		t.Fatal("files missing from plan")
	}
	if worstBeta > bestAlpha {
		t.Errorf("beta worst rank %d > alpha best rank %d; active project not first",
			worstBeta, bestAlpha)
	}
}

// The attention-shift property (paper §6.1): after a single reference to
// a long-idle project, the whole project must be near the front of the
// plan — unlike LRU where each file must be individually re-referenced.
func TestAttentionShiftLoadsWholeProject(t *testing.T) {
	d := newDriver(nil)
	alpha := projectFiles("alpha", 8)
	beta := projectFiles("beta", 8)
	for i := 0; i < 5; i++ {
		d.session(1, alpha)
	}
	for i := 0; i < 5; i++ {
		d.session(2, beta)
	}
	// Attention shift: touch ONE alpha file.
	d.ev(trace.OpOpen, 1, alpha[2])
	d.ev(trace.OpClose, 1, alpha[2])
	plan := d.c.Plan()
	// Every alpha file — including the 7 untouched ones — must now rank
	// ahead of every beta file.
	for _, ap := range alpha {
		ar := plan.Rank(d.id(ap))
		for _, bp := range beta {
			br := plan.Rank(d.id(bp))
			if ar > br {
				t.Fatalf("after shift, alpha %s (rank %d) behind beta %s (rank %d)",
					ap, ar, bp, br)
			}
		}
	}
}

func TestFillRespectsBudget(t *testing.T) {
	d := newDriver(nil)
	alpha := projectFiles("alpha", 5)
	for i := 0; i < 3; i++ {
		d.session(1, alpha)
	}
	var total int64
	for _, p := range alpha {
		total += d.c.FS().Lookup(p).Size
	}
	c := d.c.Fill(total)
	for _, p := range alpha {
		if !c.Has(d.id(p)) {
			t.Errorf("file %s not hoarded at exact-fit budget", p)
		}
	}
	if c.UsedBytes() > total {
		t.Errorf("used %d > budget %d", c.UsedBytes(), total)
	}
	// A tiny budget hoards nothing from the project (whole clusters
	// only) but never overruns.
	small := d.c.Fill(1)
	if small.UsedBytes() > 1 {
		t.Errorf("tiny budget overrun: %d", small.UsedBytes())
	}
}

func TestInvestigatorForcesCluster(t *testing.T) {
	d := newDriver(nil)
	// Two files never referenced together.
	d.ev(trace.OpOpen, 1, "/home/u/x/a.c")
	d.ev(trace.OpClose, 1, "/home/u/x/a.c")
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("/home/u/junk/j%02d", i)
		d.ev(trace.OpOpen, 1, p)
		d.ev(trace.OpClose, 1, p)
	}
	d.ev(trace.OpOpen, 1, "/home/u/y/b.h")
	d.ev(trace.OpClose, 1, "/home/u/y/b.h")
	before := d.c.Clusters()
	sameCluster := func(res interface{ ClustersOf(simfs.FileID) []int }, a, b simfs.FileID) bool {
		set := map[int]bool{}
		for _, ci := range res.ClustersOf(a) {
			set[ci] = true
		}
		for _, ci := range res.ClustersOf(b) {
			if set[ci] {
				return true
			}
		}
		return false
	}
	aID, bID := d.id("/home/u/x/a.c"), d.id("/home/u/y/b.h")
	if sameCluster(before, aID, bID) {
		t.Fatal("files clustered before investigation")
	}
	d.c.AddRelations([]investigate.Relation{{
		Files:    []string{"/home/u/x/a.c", "/home/u/y/b.h"},
		Strength: 100,
	}})
	after := d.c.Clusters()
	if !sameCluster(after, aID, bID) {
		t.Error("investigator relation did not force clustering")
	}
}

func TestAddRelationsInternsUnknownPaths(t *testing.T) {
	d := newDriver(nil)
	d.c.AddRelations([]investigate.Relation{{
		Files:    []string{"/never/seen/a", "/never/seen/b"},
		Strength: 50,
	}})
	if d.c.FS().Lookup("/never/seen/a") == nil {
		t.Error("relation path not interned")
	}
	res := d.c.Clusters()
	a := d.id("/never/seen/a")
	if len(res.ClustersOf(a)) == 0 {
		t.Error("interned relation file not clustered")
	}
}

func TestAlwaysHoardLeadsPlan(t *testing.T) {
	d := newDriver(nil)
	// Critical dot file plus a project.
	d.ev(trace.OpOpen, 1, "/home/u/.profile")
	d.ev(trace.OpClose, 1, "/home/u/.profile")
	alpha := projectFiles("alpha", 4)
	d.session(1, alpha)
	plan := d.c.Plan()
	if plan.Len() == 0 {
		t.Fatal("empty plan")
	}
	if plan.Entries[0].Reason != hoard.ReasonAlways {
		t.Errorf("first entry reason = %v, want always", plan.Entries[0].Reason)
	}
	if plan.Entries[0].File.Path != "/home/u/.profile" {
		t.Errorf("first entry = %s", plan.Entries[0].File.Path)
	}
}

func TestDeletedFilesLeavePlan(t *testing.T) {
	d := newDriver(nil)
	alpha := projectFiles("alpha", 4)
	d.session(1, alpha)
	d.ev(trace.OpDelete, 1, alpha[1])
	plan := d.c.Plan()
	if plan.Rank(d.id(alpha[1])) != -1 {
		t.Error("deleted file still planned")
	}
	if plan.Rank(d.id(alpha[0])) == -1 {
		t.Error("surviving file missing from plan")
	}
}

func TestPlanFromReusesClustering(t *testing.T) {
	d := newDriver(nil)
	d.session(1, projectFiles("alpha", 4))
	res := d.c.Clusters()
	p1 := d.c.PlanFrom(res)
	p2 := d.c.PlanFrom(res)
	if p1.Len() != p2.Len() {
		t.Error("PlanFrom not deterministic")
	}
}

func TestEventsCounter(t *testing.T) {
	d := newDriver(nil)
	d.ev(trace.OpOpen, 1, "/a")
	d.ev(trace.OpClose, 1, "/a")
	if d.c.Events() != 2 {
		t.Errorf("Events = %d, want 2", d.c.Events())
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := New(Options{})
	if c.Params().NeighborTableSize != 20 {
		t.Error("defaults not applied")
	}
	if c.FS() == nil || c.Observer() == nil || c.Table() == nil {
		t.Error("accessors returned nil")
	}
}

func TestForceHoardAfterMiss(t *testing.T) {
	d := newDriver(nil)
	alpha := projectFiles("alpha", 5)
	beta := projectFiles("beta", 5)
	for i := 0; i < 5; i++ {
		d.session(1, alpha)
	}
	for i := 0; i < 5; i++ {
		d.session(2, beta)
	}
	// The user misses an alpha file while disconnected and records it;
	// the whole alpha project is forced into future plans.
	mates := d.c.ForceHoard(alpha[3])
	if len(mates) < 3 {
		t.Fatalf("project mates = %v, want the rest of alpha", mates)
	}
	plan := d.c.Plan()
	for _, p := range alpha {
		r := plan.Rank(d.id(p))
		if r < 0 {
			t.Fatalf("forced project member %s missing from plan", p)
		}
		if plan.Entries[r].Reason != hoard.ReasonAlways {
			t.Errorf("forced member %s has reason %v", p, plan.Entries[r].Reason)
		}
	}
	if got := d.c.ForcedFiles(); len(got) < 5 {
		t.Errorf("forced set = %d files", len(got))
	}
}

func TestForceHoardUnknownPath(t *testing.T) {
	d := newDriver(nil)
	mates := d.c.ForceHoard("/never/seen/before")
	if len(mates) != 0 {
		t.Errorf("unknown file has mates %v", mates)
	}
	plan := d.c.Plan()
	if plan.Rank(d.id("/never/seen/before")) < 0 {
		t.Error("unknown forced file missing from plan")
	}
}
