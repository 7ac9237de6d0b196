package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/fmg/seer/benchmark/e2e"
	"github.com/fmg/seer/benchmark/ops"
	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/shard"
)

// Span is one timed call made by the replay. Times are microseconds
// from the start of the replay; Self is the duration its children do
// not cover.
type Span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_us"`
	End    float64        `json:"end_us"`
	Self   float64        `json:"self_us"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	kids   time.Duration
	t0, t1 time.Time
}

// spans records Spans in memory.
type spans struct {
	t0  time.Time
	all []*Span
}

func (s *spans) start(parent int, name string) *Span {
	sp := &Span{ID: len(s.all) + 1, Parent: parent, Name: name, t0: time.Now()}
	s.all = append(s.all, sp)
	return sp
}

func (s *spans) end(sp *Span) time.Duration {
	sp.t1 = time.Now()
	d := sp.t1.Sub(sp.t0)
	if sp.Parent != 0 {
		s.all[sp.Parent-1].kids += d
	}
	return d
}

func (sp *Span) attr(k string, v any) {
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]any)
	}
	sp.Attrs[k] = v
}

// write stores the spans as JSON.
func (s *spans) write(path string) error {
	us := func(t time.Time) float64 { return float64(t.Sub(s.t0)) / float64(time.Microsecond) }
	for _, sp := range s.all {
		sp.Start, sp.End = us(sp.t0), us(sp.t1)
		sp.Self = float64(sp.t1.Sub(sp.t0)-sp.kids) / float64(time.Microsecond)
	}
	b, err := json.Marshal(struct {
		Spans []*Span `json:"spans"`
	}{s.all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Metric is one per-layer measurement.
type Metric struct {
	Value float64
	Unit  string
}

// TraceConfig configures the traced replay.
type TraceConfig struct {
	// Budget bounds the time spent replaying measured operations.
	Budget time.Duration
	// RumorURL is a rumor master holding the reconnect workload's file
	// ids ("" for the other workloads).
	RumorURL string
	// Out is where trace.json goes.
	Out string
}

// layer accumulates one layer's samples (milliseconds) and counts.
type layer struct {
	ms map[string][]float64
	n  map[string]float64
}

func (l *layer) add(name string, d time.Duration) {
	l.ms[name] = append(l.ms[name], float64(d)/float64(time.Millisecond))
}

func (l *layer) p(name string, q float64) float64 { return e2e.Quantile(l.ms[name], q) }

func (l *layer) sum(name string) float64 {
	var s float64
	for _, v := range l.ms[name] {
		s += v
	}
	return s
}

// Trace replays w in-process, sequentially, after the end-to-end run
// res: set-up untimed, then the measured operations as res performed
// them, each layer call recorded as a span. It returns the per-layer
// metrics and the failed checks.
func Trace(ctx context.Context, cfg TraceConfig, w *ops.Workload, res *e2e.Result) (map[string]Metric, []string, error) {
	mgr := shard.NewManager(ctx, shard.ManagerConfig{Shards: shards, Runtime: config.DefaultRuntime(), Seed: 1})
	defer mgr.Close()
	ts := newTwins()
	var rumor *replic.RemoteRumor
	if cfg.RumorURL != "" {
		rumor = replic.NewRemoteRumor(cfg.RumorURL, nil)
	}
	r := &replayer{
		ctx: ctx, w: w, mgr: mgr, ts: ts, rumor: rumor,
		sp:       &spans{t0: time.Now()},
		l:        &layer{ms: make(map[string][]float64), n: make(map[string]float64)},
		expected: make([]uint64, shards),
	}
	for _, op := range w.Setup {
		if op.Kind == ops.Post {
			if err := r.post(0, op, false); err != nil {
				return nil, nil, err
			}
		}
	}
	r.sp = &spans{t0: time.Now()}
	if w.Name == "plan-read" {
		// The end-to-end run fetched every user's plan after set-up,
		// which leaves the cluster caches warm; so does this.
		for u := range w.Users {
			op := ops.Op{Kind: ops.Plan, User: u}
			if _, _, err := mgr.Route(w.Users[u]).Plan(ctx); err != nil {
				return nil, nil, err
			}
			if _, err := ts.of(w, op).corr.PlanContext(ctx); err != nil {
				return nil, nil, err
			}
		}
	}
	n := len(w.Ops)
	if w.Mode == ops.ClosedCycle {
		n = res.Attempted // the cycle as far as the end-to-end run got
	}
	stop := time.Now().Add(cfg.Budget)
	replayed := 0
	for ; replayed < n && time.Now().Before(stop) && ctx.Err() == nil; replayed++ {
		if err := r.do(w.Ops[replayed%len(w.Ops)]); err != nil {
			return nil, nil, err
		}
	}
	if cfg.Out != "" {
		if err := r.sp.write(cfg.Out); err != nil {
			return nil, nil, err
		}
	}
	if replayed == 0 {
		r.problems = append(r.problems, "traced replay ran no operations")
	}
	return r.metrics(res), r.problems, nil
}

type replayer struct {
	ctx      context.Context
	w        *ops.Workload
	mgr      *shard.Manager
	ts       *twins
	rumor    *replic.RemoteRumor
	sp       *spans
	l        *layer
	expected []uint64
	problems []string

	lines, rejects, events float64
}

func (r *replayer) do(op ops.Op) error {
	switch op.Kind {
	case ops.Post:
		root := r.sp.start(0, "op:ingest")
		err := r.post(root.ID, op, true)
		r.sp.end(root)
		return err
	case ops.Plan, ops.Hoard:
		return r.read(op)
	case ops.Miss:
		root := r.sp.start(0, "op:miss")
		s := r.mgr.Route(r.w.Users[op.User])
		sp := r.sp.start(root.ID, "shard.Miss")
		_, err := s.Miss(r.ctx, op.Path)
		r.l.add("shard.miss", r.sp.end(sp))
		if err != nil {
			return err
		}
		sp = r.sp.start(root.ID, "core.ForceHoard")
		r.ts.of(r.w, op).corr.ForceHoard(op.Path)
		r.sp.end(sp)
		r.sp.end(root)
	}
	return nil
}

// post ingests one batch into its shard, waits for the feeder, and
// feeds the twin; timed records the spans.
func (r *replayer) post(parent int, op ops.Op, timed bool) error {
	user := r.w.Users[op.User]
	slot := r.mgr.SlotFor(user)
	s := r.mgr.Shard(slot)
	ls := lines(op.Body)
	sp := r.sp.start(parent, "shard.IngestLines")
	n, err := s.IngestLines(r.ctx, ls)
	d := r.sp.end(sp)
	if err != nil {
		return fmt.Errorf("IngestLines for %s: %w", user, err)
	}
	r.expected[slot] += uint64(n)
	sp = r.sp.start(parent, "shard.wait_fed")
	for s.Events() < r.expected[slot] {
		if r.ctx.Err() != nil {
			return r.ctx.Err()
		}
		time.Sleep(20 * time.Microsecond)
	}
	lag := r.sp.end(sp)
	t := r.ts.t[slot]
	sp = r.sp.start(parent, "strace.ParseLine")
	evs := t.parseAll(ls)
	parse := r.sp.end(sp)
	sp = r.sp.start(parent, "core.Feed")
	for _, ev := range evs {
		t.corr.Feed(ev)
	}
	feed := r.sp.end(sp)
	if !timed {
		return nil
	}
	r.l.add("shard.ingest", d)
	r.l.add("shard.feed_lag", lag)
	r.l.add("strace.parse", parse)
	r.l.add("core.feed", feed)
	r.lines += float64(len(ls))
	r.rejects += float64(len(ls) - len(evs))
	r.events += float64(len(evs))
	return nil
}

// read performs a Plan or Hoard on the shard and the same calls on the
// twin, and checks that the shard's plan equals the twin's rendering.
func (r *replayer) read(op ops.Op) error {
	user := r.w.Users[op.User]
	s := r.mgr.Route(user)
	t := r.ts.of(r.w, op)
	root := r.sp.start(0, "op:"+op.Kind.String())
	defer r.sp.end(root)

	call, name := s.Plan, "shard.Plan"
	if op.Kind == ops.Hoard {
		call, name = s.Hoard, "shard.Hoard"
	}
	sp := r.sp.start(root.ID, name)
	body, stale, err := call(r.ctx)
	shardTime := r.sp.end(sp)
	if err != nil || stale {
		return fmt.Errorf("shard %s for %s: stale=%v err=%v", op.Kind, user, stale, err)
	}
	r.l.add("shard."+op.Kind.String(), shardTime)

	full0, inc0, fb0 := t.corr.RebuildStats()
	pending := t.corr.PendingChanges()
	sp = r.sp.start(root.ID, "core.ClustersContext")
	cres, err := t.corr.ClustersContext(r.ctx)
	clusterTime := r.sp.end(sp)
	if err != nil {
		return err
	}
	full1, inc1, fb1 := t.corr.RebuildStats()
	kind := "hit"
	switch {
	case full1 > full0:
		kind = "full"
	case inc1 > inc0:
		kind = "incremental"
		r.l.ms["cluster.patch_files"] = append(r.l.ms["cluster.patch_files"], float64(pending))
	}
	sp.attr("kind", kind)
	r.l.n["cluster.calls"]++
	r.l.n["cluster."+kind]++
	r.l.n["cluster.fallbacks"] += float64(fb1 - fb0)
	r.l.add("cluster."+kind, clusterTime)

	sp = r.sp.start(root.ID, "core.PlanFrom")
	plan := t.corr.PlanFrom(cres)
	planFrom := r.sp.end(sp)
	r.l.add("hoard.plan_from", planFrom)
	r.l.ms["hoard.plan_entries"] = append(r.l.ms["hoard.plan_entries"], float64(plan.Len()))

	if op.Kind == ops.Plan {
		sp = r.sp.start(root.ID, "render")
		want := render(plan)
		renderTime := r.sp.end(sp)
		r.l.add("shard.render", renderTime)
		r.l.add("shard.plan_self", shardTime-clusterTime-planFrom)
		r.l.add("accounted.plan", clusterTime+planFrom+renderTime)
		if !bytes.Equal(body, want) {
			r.problems = append(r.problems, fmt.Sprintf("traced replay: shard plan for %s differs from the twin's", user))
		}
		return nil
	}
	sp = r.sp.start(root.ID, "hoard.Fill")
	contents := plan.Fill(config.DefaultRuntime().Daemon.HoardBudgetMB<<20, t.corr.Params().SkipUnfittingClusters)
	r.l.add("hoard.fill", r.sp.end(sp))
	if r.rumor == nil {
		return nil
	}
	ids := contents.IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > 64 {
		ids = ids[:64]
	}
	sp = r.sp.start(root.ID, "replic.SyncBatch")
	failed, err := r.rumor.SyncBatch(ids, nil)
	r.l.add("replic.sync", r.sp.end(sp))
	if err != nil {
		return fmt.Errorf("rumor sync: %w", err)
	}
	r.l.ms["replic.sync_files"] = append(r.l.ms["replic.sync_files"], float64(len(ids)))
	r.l.n["replic.sync_failed"] += float64(len(failed))
	return nil
}

// metrics assembles the per-layer metrics from the replay and, for the
// process, gateway and queue views, from the end-to-end run.
func (r *replayer) metrics(res *e2e.Result) map[string]Metric {
	l := r.l
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var refs, evs, tracked float64
	for _, t := range r.ts.t {
		st := t.corr.Observer().Stats()
		refs += float64(st.References)
		evs += float64(st.Events)
		tracked += float64(t.corr.Table().Len())
	}
	var drops, stale float64
	for _, s := range r.mgr.Shards() {
		_, _, d := s.QueueStats()
		drops += float64(d)
		stale += float64(s.StaleServed())
	}
	overhead := func(k ops.Kind, name string) float64 {
		if len(res.Latency[k]) == 0 || len(l.ms[name]) == 0 {
			return 0
		}
		return e2e.Quantile(res.Latency[k], 0.5) - l.p(name, 0.5)
	}
	var body float64
	for _, b := range res.PlanBytes {
		body += float64(b)
	}
	done := float64(res.Attempted - res.Failed)
	ms := func(v float64) Metric { return Metric{v, "ms"} }
	count := func(v float64) Metric { return Metric{v, "count"} }
	ratio := func(v float64) Metric { return Metric{v, "ratio"} }
	return map[string]Metric{
		"strace.parse_us_per_line": {div(l.sum("strace.parse")*1000, r.lines), "us"},
		"strace.reject_frac":       ratio(div(r.rejects, r.lines)),
		"core.feed_us_per_event":   {div(l.sum("core.feed")*1000, r.events), "us"},
		"observer.refs_per_event":  ratio(div(refs, evs)),
		"semdist.tracked_files":    count(tracked),

		"cluster.calls":              count(l.n["cluster.calls"]),
		"cluster.hit_frac":           ratio(div(l.n["cluster.hit"], l.n["cluster.calls"])),
		"cluster.full":               count(l.n["cluster.full"]),
		"cluster.incremental":        count(l.n["cluster.incremental"]),
		"cluster.fallbacks":          count(l.n["cluster.fallbacks"]),
		"cluster.full_ms_p50":        ms(l.p("cluster.full", 0.5)),
		"cluster.incremental_ms_p50": ms(l.p("cluster.incremental", 0.5)),
		"cluster.patch_files_p50":    count(l.p("cluster.patch_files", 0.5)),

		"hoard.plan_from_ms_p50": ms(l.p("hoard.plan_from", 0.5)),
		"hoard.fill_ms_p50":      ms(l.p("hoard.fill", 0.5)),
		"hoard.plan_entries":     count(l.p("hoard.plan_entries", 0.5)),
		"hoard.missfree_mb":      {res.MissFree / (1 << 20), "MB"},

		"shard.ingest_ms_p50":            ms(l.p("shard.ingest", 0.5)),
		"shard.plan_ms_p50":              ms(l.p("shard.plan", 0.5)),
		"shard.hoard_ms_p50":             ms(l.p("shard.hoard", 0.5)),
		"shard.miss_ms_p50":              ms(l.p("shard.miss", 0.5)),
		"shard.plan_self_ms_p50":         ms(l.p("shard.plan_self", 0.5)),
		"shard.render_ms_p50":            ms(l.p("shard.render", 0.5)),
		"shard.plan_accounted_frac":      ratio(div(l.sum("accounted.plan"), l.sum("shard.plan"))),
		"shard.feed_lag_ms_p50":          ms(l.p("shard.feed_lag", 0.5)),
		"shard.feed_lag_ms_p95":          ms(l.p("shard.feed_lag", 0.95)),
		"shard.queue_drops":              count(float64(res.Drops) + drops),
		"shard.stale_served":             count(float64(res.Stale) + stale),
		"gateway.plan_overhead_ms_p50":   ms(overhead(ops.Plan, "shard.plan")),
		"gateway.hoard_overhead_ms_p50":  ms(overhead(ops.Hoard, "shard.hoard")),
		"gateway.miss_overhead_ms_p50":   ms(overhead(ops.Miss, "shard.miss")),
		"gateway.ingest_overhead_ms_p50": ms(overhead(ops.Post, "shard.ingest")),
		"gateway.plan_body_kb":           {div(body, float64(len(res.PlanBytes))) / 1024, "KB"},
		"admit.sheds":                    count(float64(res.Sheds)),

		"replic.sync_ms_p50":    ms(l.p("replic.sync", 0.5)),
		"replic.sync_files_p50": count(l.p("replic.sync_files", 0.5)),
		"replic.sync_failed":    count(l.n["replic.sync_failed"]),

		"seerd.cpu_s":         {res.CPU.Seconds(), "s"},
		"seerd.cpu_ms_per_op": ms(div(float64(res.CPU)/float64(time.Millisecond), done)),
	}
}
