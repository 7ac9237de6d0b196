package core

import (
	"testing"
	"time"

	"github.com/fmg/seer/internal/investigate"
	"github.com/fmg/seer/internal/trace"
)

// TestClusterCacheReuse: back-to-back Clusters() calls over unchanged
// state return the same result object without re-clustering.
func TestClusterCacheReuse(t *testing.T) {
	d := newDriver(nil)
	d.session(1, projectFiles("alpha", 5))
	r1 := d.c.Clusters()
	r2 := d.c.Clusters()
	if r1 != r2 {
		t.Error("unchanged state did not reuse the cached result")
	}
	hits, misses := d.c.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits, %d misses, want 1/1", hits, misses)
	}
	if d.c.LastClusterDuration() <= 0 {
		t.Error("last clustering duration not recorded")
	}
	// Plan() goes through Clusters(), so repeated planning also hits.
	d.c.Plan()
	if hits, _ := d.c.CacheStats(); hits != 2 {
		t.Errorf("Plan did not reuse the cache (hits = %d)", hits)
	}
}

// TestClusterCacheInvalidation: every entry point that changes
// clustering input must drop (or patch) the cached clustering.
func TestClusterCacheInvalidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(d *driver)
	}{
		// Feeding events that change neighbor lists dirties the cache
		// through the table's change journal.
		{"Feed", func(d *driver) { d.session(3, projectFiles("gamma", 3)) }},
		// A rename moves the directory-distance adjustment; only a full
		// rebuild can re-score that.
		{"Rename", func(d *driver) {
			d.seq++
			d.now = d.now.Add(100 * time.Millisecond)
			d.c.Feed(trace.Event{Seq: d.seq, Time: d.now, PID: 1, Op: trace.OpRename,
				Path: "/home/u/alpha/f00", Path2: "/home/u/alpha/moved", Uid: 1000})
		}},
		{"AddRelations", func(d *driver) {
			d.c.AddRelations([]investigate.Relation{
				{Files: []string{"/home/u/alpha/f00", "/home/u/alpha/f01"}, Strength: 1},
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDriver(nil)
			d.session(1, projectFiles("alpha", 5))
			before := d.c.Clusters()
			_, missBefore := d.c.CacheStats()
			tc.mutate(d)
			after := d.c.Clusters()
			_, missAfter := d.c.CacheStats()
			if missAfter <= missBefore {
				t.Errorf("%s did not invalidate the cluster cache", tc.name)
			}
			_ = before
			_ = after
		})
	}
}

// TestClusterCachePlanOnlyMutations: entry points that change plan
// output but not clustering input (forced-hoard bookkeeping, events
// that touch no neighbor list) must keep the cached clustering.
func TestClusterCachePlanOnlyMutations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(d *driver)
	}{
		{"ForceHoard", func(d *driver) { d.c.ForceHoard("/home/u/missed") }},
		{"ListPreservingFeed", func(d *driver) { d.ev(trace.OpOpen, 9, "/home/u/alpha/f00") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDriver(nil)
			d.session(1, projectFiles("alpha", 5))
			before := d.c.Clusters()
			_, missBefore := d.c.CacheStats()
			tc.mutate(d)
			after := d.c.Clusters()
			_, missAfter := d.c.CacheStats()
			if missAfter != missBefore {
				t.Errorf("%s re-clustered (%d -> %d misses); plan-only mutations should reuse the cache",
					tc.name, missBefore, missAfter)
			}
			if after != before {
				t.Errorf("%s replaced the cached result object", tc.name)
			}
		})
	}
}
