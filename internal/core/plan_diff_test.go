package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/fmg/seer/internal/cluster"
	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/trace"
)

// refPlanFrom is the reference plan construction: recency and the
// forced set read through their maps on every comparison, and every
// plan sorts the forced files afresh. planFrom must build the same
// plan from the same state.
func refPlanFrom(c *Correlator, res *cluster.Result) *hoard.Plan {
	b := hoard.NewBuilder(0)
	lastRef := c.obs.LastRefs()
	byPath := func(files []*simfs.File) {
		sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	}
	byRecency := func(files []*simfs.File) {
		sort.Slice(files, func(i, j int) bool {
			si, sj := lastRef[files[i].ID], lastRef[files[j].ID]
			if si != sj {
				return si > sj
			}
			return files[i].Path < files[j].Path
		})
	}

	var always []*simfs.File
	for _, id := range c.obs.AlwaysHoard() {
		if f := c.fs.Get(id); f != nil {
			always = append(always, f)
		}
	}
	byPath(always)
	for _, f := range always {
		b.Add(f, hoard.ReasonAlways, 0)
	}
	var forced []*simfs.File
	for id := range c.forced {
		if f := c.fs.Get(id); f != nil {
			forced = append(forced, f)
		}
	}
	byPath(forced)
	for _, f := range forced {
		b.Add(f, hoard.ReasonAlways, 0)
	}

	type rankedCluster struct {
		id       int
		activity uint64
	}
	var ranked []rankedCluster
	for _, cl := range res.Clusters {
		var act uint64
		for _, m := range cl.Members {
			if s := lastRef[m]; s > act {
				act = s
			}
		}
		ranked = append(ranked, rankedCluster{cl.ID, act})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].activity != ranked[j].activity {
			return ranked[i].activity > ranked[j].activity
		}
		return ranked[i].id < ranked[j].id
	})
	for _, rc := range ranked {
		cl := &res.Clusters[rc.id]
		var members []*simfs.File
		for _, m := range cl.Members {
			if f := c.fs.Get(m); f != nil {
				members = append(members, f)
			}
		}
		byRecency(members)
		for _, f := range members {
			b.Add(f, hoard.ReasonCluster, cl.ID)
		}
	}

	var tail []*simfs.File
	for id := range lastRef {
		if f := c.fs.Get(id); f != nil {
			tail = append(tail, f)
		}
	}
	byRecency(tail)
	for _, f := range tail {
		b.Add(f, hoard.ReasonRecency, 0)
	}
	return b.Plan()
}

// checkPlanMatchesReference fails unless planFrom and refPlanFrom agree
// entry for entry: the same file, cumulative size, reason and cluster.
func checkPlanMatchesReference(t *testing.T, c *Correlator, what string) {
	t.Helper()
	res := c.Clusters()
	got, want := c.PlanFrom(res), refPlanFrom(c, res)
	if got.Len() != want.Len() {
		t.Fatalf("%s: plan has %d entries, reference %d", what, got.Len(), want.Len())
	}
	for i, g := range got.Entries {
		if w := want.Entries[i]; g != w {
			t.Fatalf("%s: entry %d is %s (%v, cluster %d, cum %d), reference %s (%v, cluster %d, cum %d)",
				what, i, g.File.Path, g.Reason, g.Cluster, g.Cum,
				w.File.Path, w.Reason, w.Cluster, w.Cum)
		}
	}
}

// rename feeds a rename of from to to.
func (d *driver) rename(from, to string) {
	d.seq++
	d.c.Feed(trace.Event{Seq: d.seq, Time: d.now, PID: 1, Op: trace.OpRename,
		Path: from, Path2: to, Uid: 1000})
}

// A forced file renamed after its path order was cached must move in
// the plan: the rename alone has to invalidate the cached order.
func TestPlanForcedRenameReorders(t *testing.T) {
	d := newDriver(nil)
	alpha := projectFiles("alpha", 4)
	for i := 0; i < 3; i++ {
		d.session(1, alpha)
	}
	for _, p := range alpha {
		d.c.ForceHoard(p)
	}
	checkPlanMatchesReference(t, d.c, "forced")
	if d.c.forcedStale {
		t.Fatal("forced order still stale after a plan")
	}
	d.rename(alpha[1], "/home/u/alpha/zz")
	checkPlanMatchesReference(t, d.c, "after rename")
	d.c.ForceHoard("/home/u/alpha/a0")
	checkPlanMatchesReference(t, d.c, "forced after rename")
}

// planFrom against the reference over random correlator states: project
// sessions, renames (forced files included, some displacing a live
// file), deletions, misses that force new files between plans, and
// recency stamps made equal so the path tie-break decides.
func TestPlanFromMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newDriver(nil)
		path := func() string {
			return fmt.Sprintf("/home/u/p%d/f%02d", rng.Intn(5), rng.Intn(12))
		}
		plans := 0
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(100); {
			case r < 55:
				files := make([]string, 2+rng.Intn(5))
				for i := range files {
					files[i] = path()
				}
				d.session(trace.PID(1+rng.Intn(3)), files)
			case r < 65:
				d.rename(path(), path())
			case r < 70:
				d.ev(trace.OpDelete, 1, path())
			case r < 82:
				d.c.ForceHoard(path())
			case r < 90:
				// A stat flushed by the next reference shares its
				// stamp; writing the live table makes such ties
				// common, and sometimes stamps an id not handed out.
				refs := d.c.obs.LastRefs()
				a := simfs.FileID(1 + rng.Intn(int(d.c.fs.MaxID())+1))
				b := simfs.FileID(1 + rng.Intn(int(d.c.fs.MaxID())+1))
				if s, ok := refs[b]; ok {
					refs[a] = s
				}
			default:
				plans++
				checkPlanMatchesReference(t, d.c, fmt.Sprintf("seed %d step %d", seed, step))
			}
		}
		checkPlanMatchesReference(t, d.c, fmt.Sprintf("seed %d end", seed))
		if plans == 0 || len(d.c.forced) == 0 {
			t.Fatalf("seed %d: %d plans, %d forced files; the state exercises nothing",
				seed, plans, len(d.c.forced))
		}
	}
}
