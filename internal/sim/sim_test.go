package sim

import (
	"testing"
	"time"

	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/workload"
)

const day = 24 * time.Hour

func lightOpts(t *testing.T, name string, days int) Options {
	t.Helper()
	p, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	return Options{Profile: p.Light(days), WorkloadSeed: 1, SizeSeed: 2}
}

// The headline result (paper §5.2.1, Figure 2): SEER's miss-free hoard
// size stays far below LRU's, and SEER's overhead beyond the working set
// is a fraction of LRU's overhead.
func TestSeerBeatsLRU(t *testing.T) {
	opts := lightOpts(t, "D", 45)
	for _, period := range []time.Duration{day, 7 * day} {
		r := MissFree(opts, period, 7*day)
		if len(r.Periods) < 3 {
			t.Fatalf("period %v: only %d periods", period, len(r.Periods))
		}
		ws, by := r.Means()
		seer, lru := by[SeerName], by["lru"]
		if seer <= ws*0.9 {
			t.Errorf("period %v: SEER %g below working set %g — impossible", period, seer, ws)
		}
		if lru < seer*1.5 {
			t.Errorf("period %v: LRU %.1fMB not ≫ SEER %.1fMB", period, lru/mb, seer/mb)
		}
		seerExtra := seer - ws
		lruExtra := lru - ws
		if lruExtra < 2*seerExtra {
			t.Errorf("period %v: LRU extra %.1fMB not ≫ SEER extra %.1fMB",
				period, lruExtra/mb, seerExtra/mb)
		}
	}
}

// Per-period invariant: every manager's miss-free size is at least the
// working set (you cannot avoid misses with less than the referenced
// bytes) minus unhoardable bytes.
func TestMissFreeInvariants(t *testing.T) {
	opts := lightOpts(t, "A", 30)
	r := MissFree(opts, day, 5*day)
	if len(r.Periods) == 0 {
		t.Fatal("no periods")
	}
	for i, p := range r.Periods {
		if p.Refs <= 0 || p.WorkingSetBytes <= 0 {
			t.Errorf("period %d: empty working set reported", i)
		}
		for name, size := range p.MissFree {
			if size < 0 {
				t.Errorf("period %d: %s negative miss-free size", i, name)
			}
			if p.Unhoardable[name] == 0 && size > 0 && size < p.WorkingSetBytes {
				t.Errorf("period %d: %s miss-free %d < working set %d with nothing unhoardable",
					i, name, size, p.WorkingSetBytes)
			}
		}
	}
}

func TestMissFreeDeterminism(t *testing.T) {
	opts := lightOpts(t, "E", 30)
	r1 := MissFree(opts, day, 5*day)
	r2 := MissFree(opts, day, 5*day)
	if len(r1.Periods) != len(r2.Periods) {
		t.Fatalf("period counts differ: %d vs %d", len(r1.Periods), len(r2.Periods))
	}
	for i := range r1.Periods {
		if r1.Periods[i].WorkingSetBytes != r2.Periods[i].WorkingSetBytes {
			t.Fatalf("period %d WS differs", i)
		}
		for name := range r1.Periods[i].MissFree {
			if r1.Periods[i].MissFree[name] != r2.Periods[i].MissFree[name] {
				t.Fatalf("period %d %s differs", i, name)
			}
		}
	}
}

func TestFig2Aggregate(t *testing.T) {
	opts := lightOpts(t, "C", 30)
	cell := Fig2Aggregate(opts, day, 5*day, []int64{1, 2, 3})
	if cell.WorkingSetMB <= 0 || cell.SeerMB <= 0 || cell.LruMB <= 0 {
		t.Fatalf("degenerate cell %+v", cell)
	}
	if cell.SeerMB < cell.WorkingSetMB {
		t.Errorf("SEER %.1f below WS %.1f", cell.SeerMB, cell.WorkingSetMB)
	}
	if cell.LruMB < cell.SeerMB {
		t.Errorf("LRU %.1f below SEER %.1f", cell.LruMB, cell.SeerMB)
	}
	if cell.SeerOverheadMB() < 0 || cell.LruOverheadMB() < 0 {
		t.Error("negative overheads")
	}
	if cell.WorkingSetCI < 0 || cell.SeerCI < 0 || cell.LruCI < 0 {
		t.Error("negative confidence intervals")
	}
	if cell.PeriodsPerSeed <= 0 {
		t.Error("no periods per seed")
	}
}

func TestFig3SeriesSorted(t *testing.T) {
	opts := lightOpts(t, "D", 45)
	series := Fig3Series(opts, 7*day, 7*day)
	if len(series) < 3 {
		t.Fatalf("series = %d points", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].WorkingSetBytes < series[i-1].WorkingSetBytes {
			t.Fatal("series not sorted by working set")
		}
	}
}

func TestLiveReplay(t *testing.T) {
	opts := lightOpts(t, "F", 60)
	r := Live(opts, 50*mb)
	if len(r.Disconnections) < 10 {
		t.Fatalf("disconnections = %d, want a realistic count", len(r.Disconnections))
	}
	t3 := r.Table3(60)
	if t3.Disconnections != len(r.Disconnections) {
		t.Errorf("Table3 count = %d, want %d", t3.Disconnections, len(r.Disconnections))
	}
	if t3.MeanHours <= 0 || t3.MaxHours < t3.MeanHours || t3.MedianHours > t3.MeanHours*2 {
		t.Errorf("Table3 stats implausible: %+v", t3)
	}
	t4 := r.Table4()
	if t4.HoardSizeMB != 50 {
		t.Errorf("hoard size = %d", t4.HoardSizeMB)
	}
	// No severity-0 failures, ever (dot files and /etc are always
	// hoarded) — the paper reports the same.
	if t4.BySeverity[0] != 0 {
		t.Errorf("severity-0 failures = %d, want 0", t4.BySeverity[0])
	}
	// AnySeverity is at most the sum of the individual severities and at
	// least the max of them.
	sum, maxSev := 0, 0
	for _, n := range t4.BySeverity {
		sum += n
		if n > maxSev {
			maxSev = n
		}
	}
	if t4.AnySeverity > sum || t4.AnySeverity < maxSev {
		t.Errorf("AnySeverity %d outside [%d, %d]", t4.AnySeverity, maxSev, sum)
	}
	if t4.AnySeverity > len(r.Disconnections) {
		t.Error("more failed disconnections than disconnections")
	}
	for _, row := range r.Table5() {
		if row.Stats.N == 0 {
			t.Errorf("empty Table5 row for severity %v", row.Severity)
		}
		if row.Stats.Min < 0 || row.Stats.Max < row.Stats.Min {
			t.Errorf("Table5 stats implausible: %+v", row)
		}
	}
	// Live miss-free statistics: every used disconnection references
	// something, so its miss-free hoard size is positive, and at least
	// one period under a 50 MB budget must need more than the budget
	// (otherwise Table4 could not report any failures).
	anyOverBudget := false
	for _, d := range r.Disconnections {
		if d.MissFreeBytes < 0 || d.Unhoardable < 0 {
			t.Fatalf("negative miss-free stats: %+v", d)
		}
		if d.Used && d.MissFreeBytes == 0 {
			t.Errorf("used disconnection with zero miss-free size")
		}
		if d.MissFreeBytes > 50*mb {
			anyOverBudget = true
		}
	}
	if t4.AnySeverity > 0 && !anyOverBudget {
		t.Error("user misses reported but no disconnection needed more than the budget")
	}
}

// With a generous budget (everything fits) there are no user misses at
// all — hoarding the whole tree is trivially miss-free.
func TestLiveNoMissesWithHugeBudget(t *testing.T) {
	opts := lightOpts(t, "E", 30)
	r := Live(opts, 100000*mb)
	t4 := r.Table4()
	if t4.AnySeverity != 0 {
		t.Errorf("user failures with unlimited budget: %+v", t4)
	}
}

// Budget pressure creates more misses: the same machine at a tiny
// budget must fail at least as often as at 50 MB.
func TestLiveBudgetMonotonicity(t *testing.T) {
	opts := lightOpts(t, "F", 45)
	big := Live(opts, 200*mb).Table4()
	small := Live(opts, 5*mb).Table4()
	if small.AnySeverity < big.AnySeverity {
		t.Errorf("smaller budget had fewer failures: %d < %d",
			small.AnySeverity, big.AnySeverity)
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestNewBaselineNames(t *testing.T) {
	for _, n := range []string{"lru", "coda-static", "coda-bounded", "coda-bucket"} {
		if b := newBaseline(n); b == nil || b.Name() != n {
			t.Errorf("newBaseline(%q) failed", n)
		}
	}
	if newBaseline("nope") != nil {
		t.Error("unknown baseline accepted")
	}
}

// The CODA-style schemes, unmanaged, perform no better than LRU (the
// paper observed worse and chose not to report them).
func TestCodaSchemesNoBetterThanLRU(t *testing.T) {
	opts := lightOpts(t, "D", 40)
	opts.Baselines = []string{"lru", "coda-static", "coda-bucket"}
	r := MissFree(opts, day, 5*day)
	_, by := r.Means()
	if by["coda-static"] < by["lru"]*0.8 {
		t.Errorf("unmanaged coda-static %.1fMB unexpectedly beats LRU %.1fMB",
			by["coda-static"]/mb, by["lru"]/mb)
	}
}

// Scanner pollution: disabling the meaningless-process filter must not
// make SEER better (ablation for §4.1).
func TestMeaninglessFilterAblation(t *testing.T) {
	opts := lightOpts(t, "D", 40)
	withFilter := MissFree(opts, day, 5*day)
	p := DefaultParams()
	p.MeaninglessRatio = 0.999999 // effectively off
	p.MeaninglessMinLearned = 1 << 30
	opts.Params = &p
	withoutFilter := MissFree(opts, day, 5*day)
	_, byOn := withFilter.Means()
	_, byOff := withoutFilter.Means()
	if byOff[SeerName] < byOn[SeerName]*0.7 {
		t.Errorf("disabling the meaningless filter improved SEER: %.1fMB < %.1fMB",
			byOff[SeerName]/mb, byOn[SeerName]/mb)
	}
}

func TestLiveReconciliation(t *testing.T) {
	opts := lightOpts(t, "D", 30)
	r := Live(opts, 50*mb)
	// Compile sessions during disconnections create objects locally;
	// reconnection must propagate them.
	if r.Reconciles.Propagated == 0 {
		t.Error("no updates propagated at reconnection")
	}
}

func TestSeverityMapping(t *testing.T) {
	opts := lightOpts(t, "F", 60)
	r := Live(opts, 30*mb) // tight budget to force misses
	var sawUser bool
	for _, d := range r.Disconnections {
		for _, miss := range d.Misses.Misses {
			if miss.Severity != hoard.SeverityAuto {
				sawUser = true
			}
			if miss.SinceDisconnect < 0 {
				t.Error("negative time to miss")
			}
		}
	}
	if !sawUser {
		t.Error("tight budget produced no user-severity misses")
	}
}

// A hand-managed CODA configuration (profiles for every project, §6.2)
// recovers much of unmanaged LRU's loss.
func TestManagedCodaBeatsLRU(t *testing.T) {
	opts := lightOpts(t, "D", 40)
	opts.Baselines = []string{"lru", "coda-managed"}
	r := MissFree(opts, day, 5*day)
	_, by := r.Means()
	if by["coda-managed"] == 0 {
		t.Fatal("managed coda produced no results")
	}
	if by["coda-managed"] > by["lru"] {
		t.Errorf("managed CODA %.1fMB worse than LRU %.1fMB",
			by["coda-managed"]/mb, by["lru"]/mb)
	}
	// But it still needs more than SEER's clustering.
	t.Logf("seer %.1fMB, coda-managed %.1fMB, lru %.1fMB",
		by[SeerName]/mb, by["coda-managed"]/mb, by["lru"]/mb)
}

// Cluster quality against ground truth: SEER should recover most of
// each project (high recall of the best-matching cluster), with the
// known caveat that projects fragment into a few clusters (§5.2).
func TestClusterQuality(t *testing.T) {
	opts := lightOpts(t, "D", 40)
	q := ClusterQuality(opts)
	if q.Projects < 5 {
		t.Fatalf("only %d projects evaluated", q.Projects)
	}
	t.Logf("quality: %d projects, precision %.2f recall %.2f jaccard %.2f frag %.1f (%d clusters)",
		q.Projects, q.MeanPrecision, q.MeanRecall, q.MeanJaccard, q.Fragmentation, q.Clusters)
	if q.MeanRecall < 0.5 {
		t.Errorf("mean recall %.2f < 0.5 — projects not being recovered", q.MeanRecall)
	}
	if q.MeanPrecision < 0.5 {
		t.Errorf("mean precision %.2f < 0.5 — clusters heavily polluted", q.MeanPrecision)
	}
	if q.Fragmentation < 1 || q.Fragmentation > 10 {
		t.Errorf("fragmentation %.1f implausible", q.Fragmentation)
	}
}

// Periodic hoard refilling (paper §2) with dwell damping: protecting
// recently fetched files reduces transport churn without changing the
// steady-state hoard much.
func TestRefillDamping(t *testing.T) {
	churn := func(dwell int) (transfers int) {
		m := NewMachine(lightOpts(t, "D", 40))
		r := hoard.NewRefiller(30*mb, true, dwell)
		boundary := m.Tr.Start.Add(day)
		for _, ev := range m.Tr.Events {
			for !ev.Time.Before(boundary) {
				fetch, evict := r.Refill(m.Corr.Plan())
				transfers += len(fetch) + len(evict)
				boundary = boundary.Add(day)
			}
			m.feed(ev)
		}
		return transfers
	}
	undamped := churn(0)
	damped := churn(3)
	t.Logf("daily refill transfers over 40 days: undamped %d, damped %d", undamped, damped)
	if undamped == 0 {
		t.Fatal("no refill activity")
	}
	if damped > undamped {
		t.Errorf("damping increased churn: %d > %d", damped, undamped)
	}
}
