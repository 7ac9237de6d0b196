package semdist

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/wire"
)

func newTable(mutate func(*config.Params)) *Table {
	p := config.Defaults()
	if mutate != nil {
		mutate(&p)
	}
	return NewTable(p, stats.NewRand(7))
}

func id(i int) simfs.FileID { return simfs.FileID(i) }

func TestObserveAndDistance(t *testing.T) {
	tb := newTable(nil)
	tb.Observe(id(1), id(2), 3, false)
	d, ok := tb.Distance(id(1), id(2))
	if !ok || d != 3 {
		t.Fatalf("Distance = %g,%t want 3,true", d, ok)
	}
	if _, ok := tb.Distance(id(2), id(1)); ok {
		t.Error("distance should be asymmetric: reverse direction unknown")
	}
	if _, ok := tb.Distance(id(9), id(1)); ok {
		t.Error("unknown file should have no distances")
	}
}

func TestGeometricReduction(t *testing.T) {
	tb := newTable(nil)
	// Samples 1, 1, 1498 (the paper's §3.1.2 example): the reduced
	// distance must stay small, unlike the arithmetic mean of 500.
	for _, d := range []float64{1, 1, 1498} {
		tb.Observe(id(1), id(2), d, false)
	}
	got, _ := tb.Distance(id(1), id(2))
	want := math.Exp((math.Log1p(1)+math.Log1p(1)+math.Log1p(1498))/3) - 1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("reduced distance = %g, want %g", got, want)
	}
	if got > 50 {
		t.Errorf("geometric reduction = %g, should be far below arithmetic 500", got)
	}
}

func TestZeroDistancesRepresentable(t *testing.T) {
	tb := newTable(nil)
	tb.Observe(id(1), id(2), 0, false)
	tb.Observe(id(1), id(2), 0, false)
	d, ok := tb.Distance(id(1), id(2))
	if !ok || d != 0 {
		t.Errorf("Distance = %g,%t want 0,true", d, ok)
	}
}

func TestSelfObservationIgnored(t *testing.T) {
	tb := newTable(nil)
	tb.Observe(id(1), id(1), 0, false)
	if tb.Len() != 0 {
		t.Error("self observation created state")
	}
}

func TestNeighborListCapped(t *testing.T) {
	tb := newTable(func(p *config.Params) { p.NeighborTableSize = 5 })
	for i := 2; i < 30; i++ {
		tb.Observe(id(1), id(i), float64(i), false)
	}
	nbs := tb.Neighbors(id(1))
	if len(nbs) != 5 {
		t.Fatalf("neighbor count = %d, want 5", len(nbs))
	}
}

func TestReplacementPrefersLargestDistance(t *testing.T) {
	tb := newTable(func(p *config.Params) { p.NeighborTableSize = 3 })
	tb.Observe(id(1), id(2), 1, false)
	tb.Observe(id(1), id(3), 50, false)
	tb.Observe(id(1), id(4), 2, false)
	// Candidate with distance 5 should evict the distance-50 entry.
	tb.Observe(id(1), id(5), 5, false)
	if _, ok := tb.Distance(id(1), id(3)); ok {
		t.Error("largest-distance entry not evicted")
	}
	for _, n := range []int{2, 4, 5} {
		if _, ok := tb.Distance(id(1), id(n)); !ok {
			t.Errorf("entry %d unexpectedly missing", n)
		}
	}
	// A candidate worse than every incumbent is dropped.
	tb.Observe(id(1), id(6), 100, false)
	if _, ok := tb.Distance(id(1), id(6)); ok {
		t.Error("losing candidate was inserted")
	}
}

func TestReplacementPrefersDeletionMarked(t *testing.T) {
	tb := newTable(func(p *config.Params) { p.NeighborTableSize = 3 })
	tb.Observe(id(1), id(2), 1, false)
	tb.Observe(id(1), id(3), 2, false)
	tb.Observe(id(1), id(4), 3, false)
	tb.MarkDeleted(id(2))
	// Even though id(2) has the smallest distance, it is marked and must
	// be the victim — before the largest-distance entry id(4).
	tb.Observe(id(1), id(5), 999, false)
	if _, ok := tb.Distance(id(1), id(2)); ok {
		t.Error("deletion-marked entry not evicted first")
	}
	if _, ok := tb.Distance(id(1), id(4)); !ok {
		t.Error("largest-distance entry wrongly evicted")
	}
}

func TestAgingAllowsReplacement(t *testing.T) {
	tb := newTable(func(p *config.Params) {
		p.NeighborTableSize = 2
		p.AgeLimit = 10
	})
	tb.Observe(id(1), id(2), 1, false)
	tb.Observe(id(1), id(3), 1, false)
	for i := 0; i < 20; i++ {
		tb.TickOpen()
	}
	// Candidate is worse (distance 5 > 1) so rule 2 rejects it, but both
	// incumbents are stale, so aging admits it.
	tb.Observe(id(1), id(4), 5, false)
	if _, ok := tb.Distance(id(1), id(4)); !ok {
		t.Error("aged entry not replaced")
	}
	nbs := tb.Neighbors(id(1))
	if len(nbs) != 2 {
		t.Errorf("neighbor count = %d, want 2", len(nbs))
	}
}

func TestFreshEntriesNotAgedOut(t *testing.T) {
	tb := newTable(func(p *config.Params) {
		p.NeighborTableSize = 2
		p.AgeLimit = 1000
	})
	tb.Observe(id(1), id(2), 1, false)
	tb.Observe(id(1), id(3), 1, false)
	tb.TickOpen()
	tb.Observe(id(1), id(4), 5, false)
	if _, ok := tb.Distance(id(1), id(4)); ok {
		t.Error("fresh entries replaced without justification")
	}
}

func TestClampedOnlyUpdatesExisting(t *testing.T) {
	tb := newTable(nil)
	tb.Observe(id(1), id(2), 100, true)
	if _, ok := tb.Distance(id(1), id(2)); ok {
		t.Error("clamped observation created a new relationship")
	}
	tb.Observe(id(1), id(2), 3, false)
	tb.Observe(id(1), id(2), 100, true)
	d, _ := tb.Distance(id(1), id(2))
	want := math.Exp((math.Log1p(3)+math.Log1p(100))/2) - 1
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("clamped update = %g, want %g", d, want)
	}
	// Clamped sample for a file with no entry at all must not create one.
	tb.Observe(id(9), id(2), 100, true)
	if tb.Neighbors(id(9)) != nil {
		t.Error("clamped sample created an entry")
	}
}

func TestDeletionDelayAndForget(t *testing.T) {
	tb := newTable(func(p *config.Params) { p.DeletionDelay = 2 })
	tb.Observe(id(1), id(2), 1, false)
	tb.Observe(id(2), id(3), 1, false)
	tb.MarkDeleted(id(2))
	if tb.Forgotten(id(2)) {
		t.Fatal("forgotten before delay expired")
	}
	tb.MarkDeleted(id(10))
	tb.MarkDeleted(id(11)) // queue now exceeds delay: id(2) is forgotten
	if !tb.Forgotten(id(2)) {
		t.Fatal("not forgotten after delay")
	}
	if tb.Neighbors(id(2)) != nil {
		t.Error("forgotten file still has neighbors")
	}
	// Lazy cleanup removes it from other files' lists.
	if nbs := tb.Neighbors(id(1)); len(nbs) != 0 {
		t.Errorf("neighbors of 1 = %v, want forgotten id removed", nbs)
	}
	// Observations about forgotten files are ignored.
	tb.Observe(id(1), id(2), 1, false)
	if _, ok := tb.Distance(id(1), id(2)); ok {
		t.Error("observation resurrected a forgotten file")
	}
}

func TestReviveCancelsDeletion(t *testing.T) {
	tb := newTable(func(p *config.Params) { p.DeletionDelay = 1 })
	tb.Observe(id(1), id(2), 1, false)
	tb.MarkDeleted(id(2))
	tb.Revive(id(2)) // recreated before the delay expired
	tb.MarkDeleted(id(10))
	tb.MarkDeleted(id(11))
	if tb.Forgotten(id(2)) {
		t.Error("revived file was forgotten anyway")
	}
	if _, ok := tb.Distance(id(1), id(2)); !ok {
		t.Error("revived file lost its relationships")
	}
	tb.Revive(id(99)) // unknown: no-op
}

func TestMarkDeletedIdempotent(t *testing.T) {
	tb := newTable(func(p *config.Params) { p.DeletionDelay = 3 })
	tb.MarkDeleted(id(2))
	tb.MarkDeleted(id(2))
	tb.MarkDeleted(id(2))
	tb.MarkDeleted(id(3))
	// Only two distinct files are queued; nothing should be forgotten.
	if tb.Forgotten(id(2)) || tb.Forgotten(id(3)) {
		t.Error("repeated marks advanced the deletion queue")
	}
}

func TestNeighborEntriesSorted(t *testing.T) {
	tb := newTable(nil)
	tb.Observe(id(1), id(2), 9, false)
	tb.Observe(id(1), id(3), 1, false)
	tb.Observe(id(1), id(4), 4, false)
	es := tb.NeighborEntries(id(1))
	if len(es) != 3 {
		t.Fatalf("entries = %d", len(es))
	}
	if es[0].ID != id(3) || es[1].ID != id(4) || es[2].ID != id(2) {
		t.Errorf("order = %v %v %v, want 3 4 2", es[0].ID, es[1].ID, es[2].ID)
	}
	if es[0].Count() != 1 {
		t.Errorf("count = %d", es[0].Count())
	}
	if tb.NeighborEntries(id(42)) != nil {
		t.Error("unknown file should have nil entries")
	}
}

func TestFilesSorted(t *testing.T) {
	tb := newTable(nil)
	tb.Observe(id(5), id(1), 1, false)
	tb.Observe(id(2), id(1), 1, false)
	fs := tb.Files()
	if len(fs) != 2 || fs[0] != id(2) || fs[1] != id(5) {
		t.Errorf("Files = %v", fs)
	}
}

// Property: the neighbor list never exceeds n, never contains the file
// itself, and reduced distances are finite and non-negative.
func TestTableInvariants(t *testing.T) {
	tb := newTable(func(p *config.Params) { p.NeighborTableSize = 4 })
	f := func(ops []uint16) bool {
		for _, op := range ops {
			from := id(int(op%7) + 1)
			to := id(int(op/7%7) + 1)
			d := float64(op % 50)
			tb.TickOpen()
			tb.Observe(from, to, d, op%5 == 0)
		}
		for _, fid := range tb.Files() {
			nbs := tb.NeighborEntries(fid)
			if len(nbs) > 4 {
				return false
			}
			for _, nb := range nbs {
				if nb.ID == fid {
					return false
				}
				dd := nb.Distance()
				if math.IsNaN(dd) || dd < 0 || math.IsInf(dd, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The neighbor-distance zero value is +Inf so an uninitialized entry can
// never beat a real one.
func TestZeroNeighborDistance(t *testing.T) {
	var nb Neighbor
	if !math.IsInf(nb.Distance(), 1) {
		t.Errorf("zero Neighbor distance = %g, want +Inf", nb.Distance())
	}
}

// checkCachedDistances fails unless every neighbor's cached distance is
// bit for bit the geometric mean recomputed from its samples.
func checkCachedDistances(t *testing.T, tb *Table, when string) {
	t.Helper()
	for _, f := range tb.Files() {
		for _, nb := range tb.entryOf(f).neighbors {
			want := math.Exp(nb.sumLog/float64(nb.count)) - 1
			if got := nb.Distance(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: %d→%d distance %v (%x), recomputed %v (%x)",
					when, f, nb.ID, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestCachedDistanceMatchesGeometricMean drives random Observe,
// MarkDeleted and Revive sequences over small full lists — every new
// relationship goes through the replacement scan — and checks the
// cached distances, live and after a Save/LoadTable round trip.
func TestCachedDistanceMatchesGeometricMean(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := stats.NewRand(seed)
		tb := NewTable(func() config.Params {
			p := config.Defaults()
			p.NeighborTableSize = 5
			p.DeletionDelay = 3
			p.AgeLimit = 40
			return p
		}(), stats.NewRand(seed))
		for step := 0; step < 3000; step++ {
			from, to := id(1+rng.Intn(12)), id(1+rng.Intn(12))
			switch op := rng.Intn(20); {
			case op < 16:
				tb.TickOpen()
				tb.Observe(from, to, float64(rng.Intn(60))*rng.Float64(), op == 0)
			case op < 18:
				tb.MarkDeleted(from)
			default:
				tb.Revive(from)
			}
		}
		checkCachedDistances(t, tb, "live")
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		tb.Save(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := LoadTable(wire.NewReader(&buf), tb.p, stats.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		checkCachedDistances(t, got, "loaded")
		for _, f := range tb.Files() {
			a, b := tb.entryOf(f).neighbors, got.entryOf(f).neighbors
			if len(a) != len(b) {
				t.Fatalf("file %d: %d neighbors live, %d loaded", f, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("file %d neighbor %d: live %+v, loaded %+v", f, i, a[i], b[i])
				}
			}
		}
	}
}

// A neighbor entry is 32 bytes: a full 20-entry list fits the 640 B
// allocation size class, which is what keeps BenchmarkMemoryPerFile
// near the paper's ~1 KB per file.
func TestNeighborSize(t *testing.T) {
	if n := unsafe.Sizeof(Neighbor{}); n != 32 {
		t.Errorf("Neighbor is %d bytes, want 32", n)
	}
}

// The sample count saturates at MaxInt32: further samples leave the
// mean alone and only refresh the entry's age, and a snapshot whose
// count does not fit is refused.
func TestSampleCountSaturates(t *testing.T) {
	tb := newTable(nil)
	tb.Observe(id(1), id(2), 3, false)
	nb := &tb.entryOf(id(1)).neighbors[0]
	nb.count = math.MaxInt32 - 1
	tb.Observe(id(1), id(2), 5, false)
	if nb.Count() != math.MaxInt32 {
		t.Fatalf("count = %d, want MaxInt32", nb.Count())
	}
	sumLog, dist := nb.sumLog, nb.Distance()
	tb.TickOpen()
	tb.Observe(id(1), id(2), 100, false)
	if nb.Count() != math.MaxInt32 || nb.sumLog != sumLog || nb.Distance() != dist {
		t.Errorf("saturated entry moved: count %d, sumLog %v → %v, distance %v → %v",
			nb.Count(), sumLog, nb.sumLog, dist, nb.Distance())
	}
	if nb.lastUpdate != tb.Opens() {
		t.Errorf("saturated entry's lastUpdate = %d, want %d", nb.lastUpdate, tb.Opens())
	}

	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	tb.Save(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadTable(wire.NewReader(bytes.NewReader(buf.Bytes())), tb.p, stats.NewRand(1)); err != nil {
		t.Fatalf("load at MaxInt32: %v", err)
	} else if c := got.entryOf(id(1)).neighbors[0].Count(); c != math.MaxInt32 {
		t.Errorf("loaded count = %d, want MaxInt32", c)
	}
	for _, c := range []struct {
		count int64
		ok    bool
	}{{1, true}, {math.MaxInt32 + 1, false}, {-1, false}} {
		var snap bytes.Buffer
		w := wire.NewWriter(&snap)
		w.U64(0) // opens
		w.Int(1) // files
		w.U64(1) // file id
		w.Int(1) // neighbors
		w.U64(2) // neighbor id
		w.F64(0) // sumLog
		w.I64(c.count)
		w.U64(0) // lastUpdate
		w.Int(0) // delete queue
		w.Int(0) // forgotten
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTable(wire.NewReader(&snap), tb.p, stats.NewRand(1)); (err == nil) != c.ok {
			t.Errorf("count %d: load error %v, want ok=%v", c.count, err, c.ok)
		}
	}
}
