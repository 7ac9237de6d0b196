package hoard

import (
	"testing"

	"github.com/fmg/seer/internal/simfs"
)

func planOf(fs []*simfs.File, order []int) *Plan {
	b := NewBuilder(0)
	for _, i := range order {
		b.Add(fs[i], ReasonRecency, 0)
	}
	return b.Plan()
}

func TestRefillerFetchesAndEvicts(t *testing.T) {
	_, fs := mkfs(10, 10, 10)
	r := NewRefiller(20, false, 0)
	fetch, evict := r.Refill(planOf(fs, []int{0, 1, 2}))
	if len(fetch) != 2 || len(evict) != 0 {
		t.Fatalf("first refill = fetch %v evict %v", fetch, evict)
	}
	if !r.Has(fs[0].ID) || !r.Has(fs[1].ID) || r.Has(fs[2].ID) {
		t.Fatal("contents wrong after first refill")
	}
	// Priorities shuffle: file 2 now leads; without damping file 1 (now
	// third) is evicted.
	fetch, evict = r.Refill(planOf(fs, []int{2, 0, 1}))
	if len(fetch) != 1 || fetch[0] != fs[2].ID {
		t.Errorf("fetch = %v, want file 2", fetch)
	}
	if len(evict) != 1 || evict[0] != fs[1].ID {
		t.Errorf("evict = %v, want file 1", evict)
	}
	if r.UsedBytes() != 20 || r.Len() != 2 || r.Fills() != 2 {
		t.Errorf("used=%d len=%d fills=%d", r.UsedBytes(), r.Len(), r.Fills())
	}
}

func TestRefillerDwellDamping(t *testing.T) {
	_, fs := mkfs(10, 10, 10)
	r := NewRefiller(20, false, 2)
	r.Refill(planOf(fs, []int{0, 1, 2}))
	// The shuffle would evict file 1, but it was fetched one fill ago
	// (< MinDwell 2): protected, so the hoard transiently overshoots.
	_, evict := r.Refill(planOf(fs, []int{2, 0, 1}))
	if len(evict) != 0 {
		t.Fatalf("damped refill evicted %v", evict)
	}
	if r.UsedBytes() != 30 {
		t.Errorf("overshoot bytes = %d, want 30", r.UsedBytes())
	}
	// One more fill later the protection lapses (fetched at fill 1,
	// MinDwell 2 → evictable at fill 3).
	_, evict = r.Refill(planOf(fs, []int{2, 0, 1}))
	if len(evict) != 1 || evict[0] != fs[1].ID {
		t.Fatalf("post-dwell evict = %v, want file 1", evict)
	}
	if r.UsedBytes() != 20 {
		t.Errorf("bytes after eviction = %d", r.UsedBytes())
	}
}

func TestRefillerStableUnderIdenticalPlans(t *testing.T) {
	_, fs := mkfs(10, 10)
	r := NewRefiller(100, false, 3)
	p := planOf(fs, []int{0, 1})
	r.Refill(p)
	for i := 0; i < 5; i++ {
		fetch, evict := r.Refill(p)
		if len(fetch) != 0 || len(evict) != 0 {
			t.Fatalf("refill %d churned: fetch %v evict %v", i, fetch, evict)
		}
	}
}

func TestRefillerEvictsDeletedRegardlessOfDwell(t *testing.T) {
	world, fs := mkfs(10, 10)
	r := NewRefiller(100, false, 10)
	r.Refill(planOf(fs, []int{0, 1}))
	world.Remove(fs[1].Path)
	_, evict := r.Refill(planOf(fs, []int{0}))
	if len(evict) != 1 || evict[0] != fs[1].ID {
		t.Fatalf("deleted file not evicted: %v", evict)
	}
}
