package hoard

import (
	"testing"
	"time"

	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
)

func mkfs(sizes ...int64) (*simfs.FS, []*simfs.File) {
	fs := simfs.New(stats.NewRand(1))
	files := make([]*simfs.File, len(sizes))
	for i, s := range sizes {
		files[i] = fs.Create("/f"+string(rune('a'+i)), simfs.Regular, s, uint64(i+1))
	}
	return fs, files
}

func TestBuilderDedupAndCum(t *testing.T) {
	_, fs := mkfs(10, 20, 30)
	b := NewBuilder(0)
	if !b.Add(fs[0], ReasonAlways, 0) {
		t.Fatal("first add failed")
	}
	if b.Add(fs[0], ReasonCluster, 1) {
		t.Error("duplicate add succeeded")
	}
	b.Add(fs[1], ReasonCluster, 1)
	b.Add(fs[2], ReasonRecency, 0)
	p := b.Plan()
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.Entries[0].Cum != 10 || p.Entries[1].Cum != 30 || p.Entries[2].Cum != 60 {
		t.Errorf("cums = %d %d %d", p.Entries[0].Cum, p.Entries[1].Cum, p.Entries[2].Cum)
	}
	if p.TotalBytes() != 60 {
		t.Errorf("total = %d", p.TotalBytes())
	}
	if p.Rank(fs[1].ID) != 1 || p.Rank(simfs.FileID(999)) != -1 {
		t.Error("Rank wrong")
	}
}

func TestBuilderSkipsDirectoriesAndDeleted(t *testing.T) {
	fs := simfs.New(stats.NewRand(1))
	d := fs.Create("/dir", simfs.Directory, 0, 1)
	f := fs.Create("/gone", simfs.Regular, 5, 2)
	fs.Remove("/gone")
	b := NewBuilder(0)
	if b.Add(d, ReasonAlways, 0) {
		t.Error("directory planned")
	}
	if b.Add(f, ReasonAlways, 0) {
		t.Error("deleted file planned")
	}
	if b.Add(nil, ReasonAlways, 0) {
		t.Error("nil file planned")
	}
	if b.Plan().TotalBytes() != 0 {
		t.Error("empty plan has bytes")
	}
}

func TestMissFreeSize(t *testing.T) {
	_, fs := mkfs(10, 20, 30, 40)
	b := NewBuilder(0)
	for _, f := range fs {
		b.Add(f, ReasonRecency, 0)
	}
	p := b.Plan()
	// Referencing the first and third files: miss-free size is the
	// cumulative size through the third (10+20+30).
	size, un := p.MissFreeSize([]simfs.FileID{fs[0].ID, fs[2].ID})
	if size != 60 || un != 0 {
		t.Errorf("miss-free = %d,%d want 60,0", size, un)
	}
	// Unknown file counts as unhoardable, not as infinite size.
	size, un = p.MissFreeSize([]simfs.FileID{fs[0].ID, 999})
	if size != 10 || un != 1 {
		t.Errorf("miss-free = %d,%d want 10,1", size, un)
	}
	size, un = p.MissFreeSize(nil)
	if size != 0 || un != 0 {
		t.Errorf("empty refs = %d,%d", size, un)
	}
}

func TestFillPrefix(t *testing.T) {
	_, fs := mkfs(10, 20, 30)
	b := NewBuilder(0)
	for _, f := range fs {
		b.Add(f, ReasonRecency, 0)
	}
	c := b.Plan().Fill(35, false)
	if !c.Has(fs[0].ID) || !c.Has(fs[1].ID) || c.Has(fs[2].ID) {
		t.Errorf("fill(35) contents wrong")
	}
	if c.UsedBytes() != 30 || c.Budget() != 35 || c.Len() != 2 {
		t.Errorf("used=%d budget=%d len=%d", c.UsedBytes(), c.Budget(), c.Len())
	}
}

func TestFillWholeClustersSkipsUnfitting(t *testing.T) {
	_, fs := mkfs(10, 50, 50, 10, 5)
	b := NewBuilder(0)
	b.Add(fs[0], ReasonAlways, 0)  // 10
	b.Add(fs[1], ReasonCluster, 1) // cluster 1: 100 total
	b.Add(fs[2], ReasonCluster, 1) //
	b.Add(fs[3], ReasonCluster, 2) // cluster 2: 10
	b.Add(fs[4], ReasonRecency, 0) // 5
	c := b.Plan().Fill(30, true)
	// Cluster 1 (100 bytes) does not fit and must be skipped whole;
	// cluster 2 and the recency tail fit.
	if c.Has(fs[1].ID) || c.Has(fs[2].ID) {
		t.Error("oversized cluster partially hoarded")
	}
	for _, i := range []int{0, 3, 4} {
		if !c.Has(fs[i].ID) {
			t.Errorf("entry %d missing", i)
		}
	}
	if c.UsedBytes() != 25 {
		t.Errorf("used = %d, want 25", c.UsedBytes())
	}
}

func TestFillWholeClustersAdmitsFitting(t *testing.T) {
	_, fs := mkfs(10, 20, 30)
	b := NewBuilder(0)
	b.Add(fs[0], ReasonCluster, 1)
	b.Add(fs[1], ReasonCluster, 1)
	b.Add(fs[2], ReasonCluster, 2)
	c := b.Plan().Fill(100, true)
	if c.Len() != 3 {
		t.Errorf("len = %d, want all", c.Len())
	}
}

func TestFillRecencyTailStopsAtFirstMisfit(t *testing.T) {
	_, fs := mkfs(30, 5, 5)
	b := NewBuilder(0)
	for _, f := range fs {
		b.Add(f, ReasonRecency, 0)
	}
	c := b.Plan().Fill(12, true)
	// First recency entry (30) does not fit: the tail stops, nothing
	// later is admitted even though it would fit.
	if c.Len() != 0 {
		t.Errorf("len = %d, want 0 (LRU tail is a strict prefix)", c.Len())
	}
}

func TestDiff(t *testing.T) {
	_, fs := mkfs(10, 20, 30)
	b1 := NewBuilder(0)
	b1.Add(fs[0], ReasonRecency, 0)
	b1.Add(fs[1], ReasonRecency, 0)
	prev := b1.Plan().Fill(100, false)
	b2 := NewBuilder(0)
	b2.Add(fs[1], ReasonRecency, 0)
	b2.Add(fs[2], ReasonRecency, 0)
	next := b2.Plan().Fill(100, false)
	fetch, evict := Diff(prev, next)
	if len(fetch) != 1 || fetch[0] != fs[2].ID {
		t.Errorf("fetch = %v", fetch)
	}
	if len(evict) != 1 || evict[0] != fs[0].ID {
		t.Errorf("evict = %v", evict)
	}
	fetch, evict = Diff(nil, next)
	if len(fetch) != 2 || len(evict) != 0 {
		t.Errorf("diff from nil = %v %v", fetch, evict)
	}
	fetch, evict = Diff(prev, nil)
	if len(fetch) != 0 || len(evict) != 2 {
		t.Errorf("diff to nil = %v %v", fetch, evict)
	}
}

// IDs lists the hoard in plan order, not map or id order: the /hoard
// listing and the rumor prefetch of its head both depend on it. Whole-
// cluster filling skips a cluster that does not fit and keeps the order
// of what follows.
func TestContentsIDs(t *testing.T) {
	_, fs := mkfs(20, 5, 5, 50, 60, 10)
	b := NewBuilder(0)
	b.Add(fs[5], ReasonAlways, 0)
	b.Add(fs[4], ReasonCluster, 1)
	b.Add(fs[3], ReasonCluster, 1)
	b.Add(fs[2], ReasonCluster, 2)
	b.Add(fs[1], ReasonCluster, 2)
	b.Add(fs[0], ReasonRecency, 0)
	plan := b.Plan()
	for _, c := range []struct {
		whole bool
		want  []*simfs.File
	}{
		{false, []*simfs.File{fs[5], fs[4]}},
		{true, []*simfs.File{fs[5], fs[2], fs[1], fs[0]}},
	} {
		contents := plan.Fill(100, c.whole)
		got := contents.IDs()
		if len(got) != len(c.want) {
			t.Fatalf("whole=%v: IDs = %v, want %d files", c.whole, got, len(c.want))
		}
		for i, f := range c.want {
			if got[i] != f.ID {
				t.Fatalf("whole=%v: IDs = %v, want plan order", c.whole, got)
			}
		}
		got[0] = -1
		if contents.IDs()[0] == -1 {
			t.Fatal("IDs returned the internal slice")
		}
	}
}

func TestMissLog(t *testing.T) {
	l := NewMissLog()
	base := time.Unix(0, 0)
	if !l.Record(Miss{Time: base, File: 1, Severity: Severity2, SinceDisconnect: 2 * time.Hour}) {
		t.Fatal("first record rejected")
	}
	if l.Record(Miss{Time: base, File: 1, Severity: Severity1}) {
		t.Error("duplicate file record accepted")
	}
	l.Record(Miss{File: 2, Severity: SeverityAuto, SinceDisconnect: time.Hour})
	l.Record(Miss{File: 3, Severity: Severity2, SinceDisconnect: time.Hour})
	user, auto := l.Failed()
	if !user || !auto {
		t.Errorf("Failed = %t,%t want true,true", user, auto)
	}
	counts := l.CountBySeverity()
	if counts[Severity2] != 2 || counts[SeverityAuto] != 1 {
		t.Errorf("counts = %v", counts)
	}
	first, ok := l.FirstMiss(Severity2)
	if !ok || first.File != 3 {
		t.Errorf("first severity-2 miss = %+v, want file 3 (earliest)", first)
	}
	if _, ok := l.FirstMiss(Severity0); ok {
		t.Error("phantom severity-0 miss")
	}
}

func TestMissLogAutoOnly(t *testing.T) {
	l := NewMissLog()
	l.Record(Miss{File: 1, Severity: SeverityAuto})
	user, auto := l.Failed()
	if user || !auto {
		t.Errorf("Failed = %t,%t want false,true", user, auto)
	}
}

func TestSeverityString(t *testing.T) {
	if Severity0.String() != "0" || Severity4.String() != "4" || SeverityAuto.String() != "Auto" {
		t.Error("severity labels wrong")
	}
	if ReasonAlways.String() != "always" || ReasonCluster.String() != "cluster" ||
		ReasonRecency.String() != "recency" {
		t.Error("reason labels wrong")
	}
}
