// Benchmarks regenerating each of the paper's tables and figures (in
// scaled form — cmd/seersim produces the full-length numbers recorded in
// EXPERIMENTS.md) plus the §5.3 implementation-cost microbenchmarks:
// per-event tracking cost (the paper: ~35 µs per traced call on a
// 133 MHz Pentium) and clustering time (the paper: ~2 CPU minutes for
// ~20 000 files).
package seer

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/cluster"
	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/semdist"
	"github.com/fmg/seer/internal/sim"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/strace"
	"github.com/fmg/seer/internal/trace"
	"github.com/fmg/seer/internal/webcache"
	"github.com/fmg/seer/internal/workload"
)

const benchDay = 24 * time.Hour

func benchOpts(b *testing.B, machine string, days int) sim.Options {
	b.Helper()
	p, ok := workload.ProfileByName(machine)
	if !ok {
		b.Fatalf("no profile %s", machine)
	}
	return sim.Options{Profile: p.Light(days), WorkloadSeed: 1, SizeSeed: 2}
}

// BenchmarkFeedEvent measures the per-event cost of the full observer +
// correlator pipeline (§5.3: the paper's tracing cost was ~35 µs/event;
// the correlator work reported here happens on every traced call).
func BenchmarkFeedEvent(b *testing.B) {
	gen := workload.NewGenerator(mustProfile(b, "D").Light(20), 1)
	tr := gen.Generate()
	b.ResetTimer()
	var corr *core.Correlator
	for i := 0; i < b.N; i++ {
		if i%len(tr.Events) == 0 {
			b.StopTimer()
			params := sim.DefaultParams()
			corr = core.New(core.Options{Seed: 1, DirSize: gen.DirSize, Params: &params})
			b.StartTimer()
		}
		corr.Feed(tr.Events[i%len(tr.Events)])
	}
}

func mustProfile(b *testing.B, name string) workload.Profile {
	b.Helper()
	p, ok := workload.ProfileByName(name)
	if !ok {
		b.Fatalf("no profile %s", name)
	}
	return p
}

// BenchmarkCluster20k measures clustering 20 000 files with full
// neighbor tables — the paper's hoard-time cost (~2 CPU minutes in
// 1997, §5.3).
func BenchmarkCluster20k(b *testing.B) {
	benchCluster(b, 20000)
}

// BenchmarkCluster2k is the same at a smaller scale, for quick runs.
func BenchmarkCluster2k(b *testing.B) {
	benchCluster(b, 2000)
}

func benchCluster(b *testing.B, n int) {
	p := config.Defaults()
	tbl := semdist.NewTable(p, stats.NewRand(1))
	rng := stats.NewRand(2)
	// ~50-file projects with full in-project neighbor lists.
	for f := 0; f < n; f++ {
		proj := f / 50
		for k := 0; k < p.NeighborTableSize; k++ {
			nb := proj*50 + rng.Intn(50)
			if nb == f {
				continue
			}
			tbl.Observe(simfs.FileID(f+1), simfs.FileID(nb+1), float64(rng.Intn(10)), false)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cluster.Build(tbl, cluster.Options{}, float64(p.KNear), float64(p.KFar))
		if len(res.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkClusterIncremental20k measures folding a 16-file churn into
// a cached 20 000-file clustering with cluster.Patch instead of
// rebuilding — the hoard-time cost once the daemon is warm. The paper
// reclustered from scratch (~2 CPU minutes in 1997); the incremental
// path makes the steady-state update proportional to the churn, not
// the table.
func BenchmarkClusterIncremental20k(b *testing.B) {
	benchClusterIncremental(b, 20000)
}

// BenchmarkClusterIncremental200k is the same churn against a 10×
// larger table: patch time should stay flat while full-rebuild time
// grows with the table.
func BenchmarkClusterIncremental200k(b *testing.B) {
	benchClusterIncremental(b, 200000)
}

// BenchmarkClusterIncremental1M pushes the table to a million interned
// files — far past anything the paper's hardware could recluster — to
// pin the claim that patch cost depends on churn size only.
func BenchmarkClusterIncremental1M(b *testing.B) {
	benchClusterIncremental(b, 1000000)
}

func benchClusterIncremental(b *testing.B, n int) {
	p := config.Defaults()
	tbl := semdist.NewTable(p, stats.NewRand(1))
	rng := stats.NewRand(2)
	for f := 0; f < n; f++ {
		proj := f / 50
		for k := 0; k < p.NeighborTableSize; k++ {
			nb := proj*50 + rng.Intn(50)
			if nb == f {
				continue
			}
			tbl.Observe(simfs.FileID(f+1), simfs.FileID(nb+1), float64(rng.Intn(10)), false)
		}
	}
	opts := cluster.Options{Incremental: true}
	kn, kf := float64(p.KNear), float64(p.KFar)
	res := cluster.Build(tbl, opts, kn, kf)
	if len(res.Clusters) == 0 {
		b.Fatal("no clusters")
	}
	tbl.TakeChanged(nil) // drain the construction-time journal

	// Each iteration churns 16 files spread over 4 projects: new strong
	// observations move their neighbor lists, alternating between two
	// targets so every round really changes list contents. The changed
	// set comes from the table's own journal, exactly as the correlator
	// drains it.
	projStride := n / 50 / 4
	var changed []simfs.FileID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 16; k++ {
			base := (k % 4) * projStride * 50
			f := simfs.FileID(base + k/4 + 1)
			nb := simfs.FileID(base + 45 + (i+k)%2 + 1)
			tbl.Observe(f, nb, 0, false)
		}
		changed = tbl.TakeChanged(changed[:0])
		if !cluster.Patch(res, tbl, changed, opts, kn, kf) {
			b.Fatal("patch refused")
		}
	}
	if len(res.Clusters) == 0 {
		b.Fatal("no clusters after patching")
	}
}

// BenchmarkHoardPlan measures plan construction at a cluster-cache hit
// (the ranking alone) over a replayed machine state: one plan before
// the timer warms the cache, so no iteration clusters.
// BenchmarkPlanFullRebuild covers the clustering.
func BenchmarkHoardPlan(b *testing.B) {
	m := sim.NewMachine(benchOpts(b, "D", 20))
	for _, ev := range m.Tr.Events {
		m.Corr.Feed(ev)
	}
	if m.Corr.Plan().Len() == 0 {
		b.Fatal("empty plan")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Corr.Plan().Len() == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkPlanFullRebuild measures a read after a change the cluster
// cache cannot patch, over BenchmarkHoardPlan's state with every 50th
// planned file missed (forced, with its project mates): a full
// clustering with the directory-distance adjustment on, then the
// ranking. AddRelations(nil) adds no relation; it only marks the cache
// for a full rebuild.
func BenchmarkPlanFullRebuild(b *testing.B) {
	m := sim.NewMachine(benchOpts(b, "D", 20))
	for _, ev := range m.Tr.Events {
		m.Corr.Feed(ev)
	}
	plan := m.Corr.Plan()
	for i := 0; i < plan.Len(); i += 50 {
		m.Corr.ForceHoard(plan.Entries[i].File.Path)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Corr.AddRelations(nil)
		if m.Corr.Plan().Len() == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkFigure2 regenerates one Figure 2 cell (machine D, daily).
func BenchmarkFigure2(b *testing.B) {
	opts := benchOpts(b, "D", 30)
	for i := 0; i < b.N; i++ {
		cell := sim.Fig2Aggregate(opts, benchDay, 5*benchDay, []int64{1, 2})
		if cell.SeerMB <= 0 || cell.LruMB < cell.SeerMB {
			b.Fatalf("shape violated: %+v", cell)
		}
	}
}

// BenchmarkFigure3 regenerates the Figure 3 series (weekly periods,
// machine F scaled down).
func BenchmarkFigure3(b *testing.B) {
	opts := benchOpts(b, "F", 35)
	for i := 0; i < b.N; i++ {
		series := sim.Fig3Series(opts, 7*benchDay, 7*benchDay)
		if len(series) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkTable3 regenerates the disconnection statistics via live
// replay (machine D scaled down).
func BenchmarkTable3(b *testing.B) {
	opts := benchOpts(b, "D", 30)
	for i := 0; i < b.N; i++ {
		r := sim.Live(opts, 50<<20)
		row := r.Table3(30)
		if row.Disconnections == 0 {
			b.Fatal("no disconnections")
		}
	}
}

// BenchmarkTable4 regenerates the failed-disconnection counts for the
// heavily used machine F at the paper's 50 MB hoard size.
func BenchmarkTable4(b *testing.B) {
	opts := benchOpts(b, "F", 30)
	for i := 0; i < b.N; i++ {
		r := sim.Live(opts, 50<<20)
		row := r.Table4()
		if row.BySeverity[0] != 0 {
			b.Fatal("severity-0 failure — should be impossible")
		}
	}
}

// BenchmarkTable5 regenerates the time-to-first-miss statistics.
func BenchmarkTable5(b *testing.B) {
	opts := benchOpts(b, "F", 30)
	for i := 0; i < b.N; i++ {
		r := sim.Live(opts, 50<<20)
		_ = r.Table5()
	}
}

// BenchmarkAblationThresholds sweeps the clustering thresholds — the
// parameter sensitivity the paper flags in §4.9 and §7.
func BenchmarkAblationThresholds(b *testing.B) {
	for _, kn := range []int{3, 6, 9} {
		b.Run(fmt.Sprintf("kn=%d", kn), func(b *testing.B) {
			p := sim.DefaultParams()
			p.KNear, p.KFar = kn, kn/2
			if p.KFar < 1 {
				p.KFar = 1
			}
			opts := benchOpts(b, "D", 20)
			opts.Params = &p
			for i := 0; i < b.N; i++ {
				r := sim.MissFree(opts, benchDay, 5*benchDay)
				if len(r.Periods) == 0 {
					b.Fatal("no periods")
				}
			}
		})
	}
}

// BenchmarkWorkloadGenerate measures synthetic trace generation.
func BenchmarkWorkloadGenerate(b *testing.B) {
	prof := mustProfile(b, "D").Light(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := workload.NewGenerator(prof, int64(i))
		if len(gen.Generate().Events) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkStraceParse measures the real-world observer path.
func BenchmarkStraceParse(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d 12:00:%02d.%06d openat(AT_FDCWD, \"/home/u/f%03d\", O_RDONLY) = 3\n",
			100+i%4, i%60, i, i)
		fmt.Fprintf(&sb, "%d 12:00:%02d.%06d close(3) = 0\n", 100+i%4, i%60, i)
	}
	src := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := strace.NewParser()
		evs, err := p.Parse(strings.NewReader(src))
		if err != nil || len(evs) == 0 {
			b.Fatalf("parse: %v (%d events)", err, len(evs))
		}
	}
}

// BenchmarkWebPrefetch measures the §7 Web-caching application: the
// predictive cache over a browsing workload, validating that prediction
// still beats plain LRU at bench time.
func BenchmarkWebPrefetch(b *testing.B) {
	prof := webcache.DefaultBrowseProfile()
	prof.Sessions = 150
	fetches := webcache.GenerateBrowsing(prof, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := webcache.NewPredictor(sim.DefaultParams(), int64(i))
		c := webcache.Evaluate(fetches, 2<<20, pred)
		plain := webcache.Evaluate(fetches, 2<<20, nil)
		if c.HitRate() <= plain.HitRate() {
			b.Fatalf("prediction lost: %.3f vs %.3f", c.HitRate(), plain.HitRate())
		}
	}
}

// BenchmarkSaveLoad measures database checkpoint and restore (§5.3's
// on-disk database).
func BenchmarkSaveLoad(b *testing.B) {
	prof := mustProfile(b, "D").Light(20)
	gen := workload.NewGenerator(prof, 1)
	tr := gen.Generate()
	params := sim.DefaultParams()
	opts := core.Options{Params: &params, Seed: 1, DirSize: gen.DirSize}
	corr := core.New(opts)
	for _, ev := range tr.Events {
		corr.Feed(ev)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := corr.Save(&buf); err != nil {
			b.Fatal(err)
		}
		size := buf.Len()
		if _, err := core.Load(&buf, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(size), "bytes/snapshot")
	}
}

// BenchmarkBinaryTraceCodec measures binary trace encode+decode.
func BenchmarkBinaryTraceCodec(b *testing.B) {
	prof := mustProfile(b, "C").Light(10)
	tr := workload.NewGenerator(prof, 1).Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bw := trace.NewBinaryWriter(&buf)
		for _, ev := range tr.Events {
			if err := bw.Write(ev); err != nil {
				b.Fatal(err)
			}
		}
		bw.Flush()
		got, err := trace.NewBinaryReader(&buf).ReadAll()
		if err != nil || len(got) != len(tr.Events) {
			b.Fatalf("%v (%d events)", err, len(got))
		}
	}
}

// BenchmarkMemoryPerFile measures the resident database cost per
// tracked file (§5.3: the paper reports ~1 KB per file for ~20 000
// files, deliberately unoptimized).
func BenchmarkMemoryPerFile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		p := config.Defaults()
		tbl := semdist.NewTable(p, stats.NewRand(1))
		rng := stats.NewRand(2)
		const files = 20000
		for f := 0; f < files; f++ {
			proj := f / 50
			for k := 0; k < p.NeighborTableSize; k++ {
				nb := proj*50 + rng.Intn(50)
				if nb == f {
					continue
				}
				tbl.Observe(simfs.FileID(f+1), simfs.FileID(nb+1), float64(rng.Intn(10)), false)
			}
		}
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		perFile := float64(after.HeapAlloc-before.HeapAlloc) / files
		b.ReportMetric(perFile, "bytes/file")
		if tbl.Len() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkSemanticDistance measures the per-open cost of the pipeline
// on a hot 40-file loop (the worst case for the window scan).
func BenchmarkSemanticDistance(b *testing.B) {
	corr := core.New(core.Options{Seed: 1})
	evs := make([]trace.Event, 0, 1000)
	clk := trace.NewClock(time.Unix(0, 0))
	for i := 0; i < 500; i++ {
		path := fmt.Sprintf("/home/u/p/f%02d", i%40)
		evs = append(evs, clk.Stamp(trace.Event{PID: 1, Op: trace.OpOpen, Path: path, Uid: 1000}))
		evs = append(evs, clk.Stamp(trace.Event{PID: 1, Op: trace.OpClose, Path: path, Uid: 1000}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corr.Feed(evs[i%len(evs)])
	}
}
