// Package core implements SEER's correlator: the component that
// evaluates cleaned file references, maintains the semantic-distance
// tables, runs the clustering algorithm to group files into projects,
// and chooses hoard contents (paper §2).
//
// The correlator composes the other subsystems: internal/observer turns
// raw trace events into cleaned references, internal/proc computes
// per-process Definition-3 distance samples, internal/semdist reduces
// them into per-file neighbor tables, internal/cluster groups files into
// overlapping projects, internal/investigate contributes external
// relationship evidence, and internal/hoard materializes inclusion
// plans.
package core

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/fmg/seer/internal/cluster"
	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/investigate"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/observer"
	"github.com/fmg/seer/internal/semdist"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/trace"
)

// Correlator is the SEER engine. It is not safe for concurrent use; feed
// it a trace in order.
type Correlator struct {
	p   config.Params
	fs  *simfs.FS
	obs *observer.Observer
	tbl *semdist.Table

	// extraPairs accumulates investigator-reported relations.
	extraPairs []cluster.Pair
	// forced holds files the user demanded hoarded after a miss (§4.4).
	forced map[simfs.FileID]bool
	// forcedByPath is the forced set in path order, the order planFrom
	// adds it in. A newly forced file is inserted in place. A rename may
	// move a forced file's path, so it sets forcedStale, and the next
	// plan re-sorts the whole set.
	forcedByPath []*simfs.File
	forcedStale  bool

	// events counts trace events fed; atomic so operator views (the
	// shard /shards report) can read it without the correlator lock.
	events atomic.Uint64

	// The cluster cache and its dirty state. fullDirty marks changes an
	// incremental patch cannot localize (renames moving the directory-
	// distance adjustment, relation edits, clustering-parameter changes,
	// exclusion reversals); per-file neighbor-list churn instead arrives
	// through the semdist/observer journals and accumulates in pending —
	// the dirty *set* — until a clustering consumes it. The cache is
	// valid while fullDirty is unset and pending is empty, so
	// back-to-back Plan()/Clusters() calls over an unchanged table — the
	// seerd HTTP pattern — reuse one clustering; a small pending set is
	// patched into the cached result in place, and only large churn or a
	// fullDirty signal pays a rebuild.
	fullDirty bool
	pending   []simfs.FileID
	cache     *cluster.Result
	cacheHits uint64
	cacheMiss uint64
	// fullRebuilds/incRebuilds/churnFallbacks mirror the rebuild
	// metrics for the daemon's expvar debug view.
	fullRebuilds   uint64
	incRebuilds    uint64
	churnFallbacks uint64
	// lastClusterTime is how long the most recent (uncached) clustering
	// took; surfaced by the daemon's debug endpoint.
	lastClusterTime time.Duration

	// reg and the instruments below are the correlator's telemetry. The
	// registry is shared with the embedding daemon (seerd mounts it at
	// /metrics); instruments are plain atomics, so recording them does
	// not perturb the single-threaded Feed discipline.
	reg          *obs.Registry
	mEvents      *obs.Counter
	mCacheHits   *obs.Counter
	mCacheMiss   *obs.Counter
	mClusterDur  *obs.Histogram
	mPhasePairs  *obs.Histogram
	mPhaseAssign *obs.Histogram
	mPhasePatch  *obs.Histogram
	mRebuildFull *obs.Counter
	mRebuildInc  *obs.Counter
	mPatchSize   *obs.Histogram
	mFallbacks   *obs.Counter
}

// Options configures a Correlator.
type Options struct {
	// Params are the algorithm tunables; zero means config.Defaults().
	Params *config.Params
	// Control is the system control file; nil means
	// config.DefaultControl().
	Control *config.Control
	// FS is the shared file table; nil creates a fresh one.
	FS *simfs.FS
	// Seed drives tie-breaking and unknown-size assignment.
	Seed int64
	// DirSize reports directory fan-out for the meaningless-process
	// heuristic; nil assumes observer.DefaultDirSize.
	DirSize func(path string) int
	// Metrics is the registry the correlator's instruments register on;
	// nil creates a private one (retrievable via Metrics()), so embedders
	// that do not care about telemetry pay only a few atomic increments.
	Metrics *obs.Registry
}

// New returns a Correlator.
func New(opts Options) *Correlator {
	p := config.Defaults()
	if opts.Params != nil {
		p = *opts.Params
	}
	ctl := opts.Control
	if ctl == nil {
		ctl = config.DefaultControl()
	}
	fs := opts.FS
	if fs == nil {
		fs = simfs.New(stats.NewRand(opts.Seed))
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Correlator{
		p:           p,
		fs:          fs,
		obs:         observer.New(p, ctl, fs, opts.DirSize),
		tbl:         semdist.NewTable(p, stats.NewRand(opts.Seed+1)),
		forced:      make(map[simfs.FileID]bool),
		forcedStale: true,
		reg:         reg,
	}
	c.mEvents = reg.Counter("seer_events_ingested_total",
		"Trace events fed to the correlator.")
	c.mCacheHits = reg.Counter("seer_cluster_cache_hits_total",
		"Clusterings served unchanged from the cluster cache.")
	c.mCacheMiss = reg.Counter("seer_cluster_cache_misses_total",
		"Clusterings that had to patch or rebuild the cached result.")
	// Clustering phases routinely finish in tens of microseconds on
	// small reference sets, so the default buckets would dump most
	// observations into the first one or two. clusterBuckets starts at
	// 10µs and doubles-by-2.5/4 up through 10s, giving real resolution
	// on both the incremental-patch fast path and a worst-case rebuild.
	clusterBuckets := []float64{
		0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	c.mClusterDur = reg.Histogram("seer_cluster_duration_seconds",
		"Wall time of a full (uncached) clustering.", clusterBuckets)
	c.mPhasePairs = reg.Histogram("seer_cluster_pairs_duration_seconds",
		"Wall time of the pair-generation phase (BuildPairs).", clusterBuckets)
	c.mPhaseAssign = reg.Histogram("seer_cluster_assign_duration_seconds",
		"Wall time of the two-phase cluster-assignment pass.", clusterBuckets)
	c.mPhasePatch = reg.Histogram("seer_cluster_patch_duration_seconds",
		"Wall time of an incremental cluster patch.", clusterBuckets)
	rebuilds := reg.CounterVec("seer_cluster_rebuilds_total",
		"Clusterings that re-ran the algorithm, by kind (full rebuild vs incremental patch).",
		"kind")
	c.mRebuildFull = rebuilds.With("full")
	c.mRebuildInc = rebuilds.With("incremental")
	c.mPatchSize = reg.Histogram("seer_cluster_patch_size_files",
		"Changed files consumed by one incremental cluster patch.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096})
	c.mFallbacks = reg.Counter("seer_cluster_churn_fallbacks_total",
		"Incremental clusterings abandoned for a full rebuild (churn over the threshold, or an unpatchable change).")
	return c
}

// Metrics returns the registry the correlator's instruments live on —
// the one from Options.Metrics, or the private one created in its
// absence. Embedders (the seerd daemon) mount it at /metrics.
func (c *Correlator) Metrics() *obs.Registry { return c.reg }

// FS returns the underlying file table.
func (c *Correlator) FS() *simfs.FS { return c.fs }

// Observer returns the observation layer (inspection tooling).
func (c *Correlator) Observer() *observer.Observer { return c.obs }

// Table returns the semantic-distance table (inspection tooling).
func (c *Correlator) Table() *semdist.Table { return c.tbl }

// Params returns the active parameter set.
func (c *Correlator) Params() config.Params { return c.p }

// SetParams replaces the parameter set on a live correlator. Cached
// clusterings are invalidated only when a parameter the clustering
// actually reads (KNear, KFar, DirDistanceWeight) changed: a reload
// touching only non-clustering knobs — hoard budget, admission limits,
// the churn threshold itself — keeps the cache and its incremental
// state warm. Params read at plan/fill time (SkipUnfittingClusters,
// HoardSize) never feed the cluster cache, and observer- and
// table-construction params are frozen into those structures — a
// caller wanting them changed must rebuild. The caller must hold the
// same exclusion Feed callers use.
func (c *Correlator) SetParams(p config.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.KNear != c.p.KNear || p.KFar != c.p.KFar ||
		p.DirDistanceWeight != c.p.DirDistanceWeight {
		c.fullDirty = true
	}
	c.p = p
	return nil
}

// Events returns the number of trace events fed so far.
func (c *Correlator) Events() uint64 { return c.events.Load() }

// CacheStats returns how many Clusters() calls were served from the
// cached result and how many had to re-cluster.
func (c *Correlator) CacheStats() (hits, misses uint64) {
	return c.cacheHits, c.cacheMiss
}

// RebuildStats reports how the uncached clusterings were satisfied:
// full algorithm runs, incremental patches of the cached result, and
// incremental attempts abandoned for a full rebuild (churn over the
// threshold or an unpatchable change).
func (c *Correlator) RebuildStats() (full, incremental, fallbacks uint64) {
	return c.fullRebuilds, c.incRebuilds, c.churnFallbacks
}

// PendingChanges returns how many journaled per-file changes are
// waiting to be folded into the next clustering (inspection tooling;
// the count can over-report a file changed through both journals).
func (c *Correlator) PendingChanges() int {
	return len(c.pending) + c.tbl.PendingChanges()
}

// LastClusterDuration returns how long the most recent re-clustering
// took (zero before the first one).
func (c *Correlator) LastClusterDuration() time.Duration { return c.lastClusterTime }

// Feed processes one trace event.
func (c *Correlator) Feed(ev trace.Event) {
	if ev.Op == trace.OpRename {
		// A rename moves the file's pathname, and with it the
		// directory-distance adjustment applied to every pair the file
		// participates in. The old adjusted scores cannot be recovered
		// from the neighbor journals, so patching is off the table.
		// It may also move a forced file out of path order.
		c.fullDirty = true
		c.forcedStale = true
	}
	c.events.Add(1)
	c.mEvents.Inc()
	for _, ref := range c.obs.Observe(ev) {
		c.apply(ev, ref)
	}
}

func (c *Correlator) apply(ev trace.Event, ref observer.Reference) {
	id := ref.File.ID
	switch ref.Kind {
	case observer.RefCreate:
		// Recreation within the deletion delay keeps the relationships.
		c.tbl.Revive(id)
	case observer.RefDelete:
		c.tbl.MarkDeleted(id)
	}
	c.tbl.TickOpen()
	for _, pr := range ref.Pairs {
		c.tbl.Observe(pr.From, id, pr.Dist, pr.Clamped)
	}
}

// AddRelations registers external-investigator findings; they influence
// every subsequent clustering (paper §3.3.3). Pathnames that are not yet
// known to the file table are interned so the relation can still force
// the files into a project.
func (c *Correlator) AddRelations(rels []investigate.Relation) {
	c.fullDirty = true
	resolve := func(path string) simfs.FileID {
		f := c.fs.Lookup(path)
		if f == nil {
			f = c.fs.Intern(path, simfs.Regular, 0)
		}
		return f.ID
	}
	c.extraPairs = append(c.extraPairs,
		investigate.Pairs(rels, resolve, c.p.InvestigatorWeight)...)
}

// ForceHoard marks a file for unconditional inclusion in future hoard
// plans. This is the back half of the paper's miss-recording mechanism
// (§4.4): "the same user action both records the miss and arranges for
// the file to be hoarded at the next reconnection." Unknown paths are
// interned so the file can be fetched even though SEER never observed
// it. It returns the file's project mates, which the caller should also
// consider hoarding ("add the file (and all other members of its
// project) to the hoard for future use").
func (c *Correlator) ForceHoard(path string) []string {
	// Forcing changes plan output, not clustering input: plans are
	// rebuilt from the cluster result every call, so the cache stays.
	f := c.fs.Lookup(path)
	if f == nil {
		f = c.fs.Intern(path, simfs.Regular, 0)
	}
	c.force(f)
	// The file and its mates go to the always tier, ahead of every
	// project, so their projects' activity does not decide whether they
	// are hoarded.
	res := c.Clusters()
	var mates []string
	for _, ci := range res.ClustersOf(f.ID) {
		for _, m := range res.Clusters[ci].Members {
			if m == f.ID {
				continue
			}
			if mf := c.fs.Get(m); mf != nil && mf.Exists {
				mates = append(mates, mf.Path)
				c.force(mf)
			}
		}
	}
	sort.Strings(mates)
	return mates
}

// force adds f to the forced set, keeping forcedByPath in path order
// unless a rename has already marked it for a re-sort.
func (c *Correlator) force(f *simfs.File) {
	if c.forced[f.ID] {
		return
	}
	c.forced[f.ID] = true
	if !c.forcedStale {
		i, _ := slices.BinarySearchFunc(c.forcedByPath, f.Path, func(g *simfs.File, path string) int {
			return strings.Compare(g.Path, path)
		})
		c.forcedByPath = slices.Insert(c.forcedByPath, i, f)
	}
}

// forcedInPathOrder returns the forced files sorted by path, re-sorting
// the set only after a rename.
func (c *Correlator) forcedInPathOrder() []*simfs.File {
	if c.forcedStale {
		c.forcedByPath = c.forcedByPath[:0]
		for id := range c.forced {
			if f := c.fs.Get(id); f != nil {
				c.forcedByPath = append(c.forcedByPath, f)
			}
		}
		sortFilesByPath(c.forcedByPath)
		// An id the file table has not handed out (a restored snapshot
		// can name one) may resolve later, so the order stays stale.
		c.forcedStale = len(c.forcedByPath) < len(c.forced)
	}
	return c.forcedByPath
}

// ForcedFiles returns the currently forced hoard set.
func (c *Correlator) ForcedFiles() []simfs.FileID {
	out := make([]simfs.FileID, 0, len(c.forced))
	for id := range c.forced {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// filteredSource exposes the semantic-distance table to the clustering
// algorithm with excluded files (frequent, critical, non-file) removed.
type filteredSource struct {
	tbl *semdist.Table
	obs *observer.Observer
}

func (s filteredSource) Files() []simfs.FileID {
	// The table's Files() result is cached inside the table; filter into
	// a fresh slice rather than compacting the shared one in place.
	all := s.tbl.Files()
	kept := make([]simfs.FileID, 0, len(all))
	for _, id := range all {
		if !s.obs.IsExcluded(id) {
			kept = append(kept, id)
		}
	}
	return kept
}

func (s filteredSource) Neighbors(id simfs.FileID) []simfs.FileID {
	if s.obs.IsExcluded(id) {
		return nil
	}
	all := s.tbl.Neighbors(id)
	kept := all[:0]
	for _, nb := range all {
		if !s.obs.IsExcluded(nb) {
			kept = append(kept, nb)
		}
	}
	return kept
}

// AppendNeighbors implements cluster.AppendSource: the table appends
// into the caller's buffer, and the exclusion filter compacts the
// just-appended region in place.
func (s filteredSource) AppendNeighbors(id simfs.FileID, dst []simfs.FileID) []simfs.FileID {
	if s.obs.IsExcluded(id) {
		return dst
	}
	start := len(dst)
	dst = s.tbl.AppendNeighbors(id, dst)
	kept := dst[:start]
	for _, nb := range dst[start:] {
		if !s.obs.IsExcluded(nb) {
			kept = append(kept, nb)
		}
	}
	return kept
}

// Has implements cluster.MembershipSource: a file is present when the
// table lists it and the exclusion filter does not hide it — exactly
// the membership Files() would report.
func (s filteredSource) Has(id simfs.FileID) bool {
	return s.tbl.Has(id) && !s.obs.IsExcluded(id)
}

// ErrCanceled is returned by the *Context planning entry points when
// the clustering was aborted by context cancellation before finishing.
var ErrCanceled = errors.New("core: clustering canceled")

// Clusters runs the clustering algorithm over the current relationship
// state and returns the project assignment. The result is cached: while
// no mutating entry point has run since the last call, the previous
// assignment is returned without re-clustering. Callers must treat the
// result as read-only.
func (c *Correlator) Clusters() *cluster.Result {
	res, _ := c.ClustersContext(context.Background())
	return res
}

// ClustersContext is Clusters with cancellation: a context deadline or
// cancellation aborts an in-flight clustering (the pair-generation
// workers observe it and exit; nothing leaks) and returns ErrCanceled
// wrapped with the context cause. The cache is left untouched on
// cancellation, so a later call still benefits from it.
func (c *Correlator) ClustersContext(ctx context.Context) (*cluster.Result, error) {
	// Drain the per-file change journals into the pending dirty set.
	// This happens on every call so a cache hit really means "nothing
	// changed", not "nobody looked".
	c.pending = c.tbl.TakeChanged(c.pending)
	var exclFull bool
	c.pending, exclFull = c.obs.TakeExclusionChanges(c.pending)
	if exclFull {
		c.fullDirty = true
	}
	if c.cache != nil && !c.fullDirty && len(c.pending) == 0 {
		c.cacheHits++
		c.mCacheHits.Inc()
		return c.cache, nil
	}
	c.cacheMiss++
	c.mCacheMiss.Inc()
	src := filteredSource{tbl: c.tbl, obs: c.obs}
	pct := c.p.ClusterChurnPct
	var thr int
	if pct > 0 {
		thr = c.tbl.Len() * pct / 100
		if thr < 1 {
			// A tiny table still deserves the incremental path: one
			// changed file is always within a nonzero churn budget.
			thr = 1
		}
	}
	opts := cluster.Options{
		Adjust: investigate.DirDistanceAdjust(c.p.DirDistanceWeight, func(id simfs.FileID) string {
			if f := c.fs.Get(id); f != nil {
				return f.Path
			}
			return ""
		}),
		ExtraPairs: c.extraPairs,
		Ctx:        ctx,
		OnPhase: func(phase string, d time.Duration) {
			switch phase {
			case "pairs":
				c.mPhasePairs.Observe(d.Seconds())
			case "assign":
				c.mPhaseAssign.Observe(d.Seconds())
			case "patch":
				c.mPhasePatch.Observe(d.Seconds())
			}
		},
		Incremental: pct > 0,
		MaxPatch:    thr,
	}
	kn, kf := float64(c.p.KNear), float64(c.p.KFar)
	overChurn := false
	if c.cache != nil && !c.fullDirty && thr > 0 {
		if len(c.pending) <= thr {
			// Patch refusal discards the cache (the result may be half
			// mutated), so check cancellation first: an aborted call must
			// leave the warm cache for the next one, like the full path.
			if err := ctx.Err(); err != nil {
				return nil, errors.Join(ErrCanceled, err)
			}
			start := time.Now()
			if cluster.Patch(c.cache, src, c.pending, opts, kn, kf) {
				c.lastClusterTime = time.Since(start)
				c.incRebuilds++
				c.mRebuildInc.Inc()
				c.mPatchSize.Observe(float64(len(c.pending)))
				c.pending = c.pending[:0]
				return c.cache, nil
			}
			c.cache = nil
			c.churnFallbacks++
			c.mFallbacks.Inc()
		} else {
			overChurn = true
		}
	}
	start := time.Now()
	res := cluster.Build(src, opts, kn, kf)
	if res == nil {
		if err := ctx.Err(); err != nil {
			return nil, errors.Join(ErrCanceled, err)
		}
		return nil, ErrCanceled
	}
	c.lastClusterTime = time.Since(start)
	c.mClusterDur.Observe(c.lastClusterTime.Seconds())
	if overChurn {
		c.churnFallbacks++
		c.mFallbacks.Inc()
	}
	c.fullRebuilds++
	c.mRebuildFull.Inc()
	c.cache = res
	c.fullDirty = false
	c.pending = c.pending[:0]
	return res, nil
}

// Plan builds the hoard inclusion order (paper §2): the always-hoard set
// first, then complete projects by activity, then the remaining known
// files in LRU order.
func (c *Correlator) Plan() *hoard.Plan {
	return c.planFrom(c.Clusters())
}

// PlanContext is Plan with cancellation: a cancelled or expired context
// aborts the underlying clustering and returns ErrCanceled instead of
// blocking until it completes.
func (c *Correlator) PlanContext(ctx context.Context) (*hoard.Plan, error) {
	res, err := c.ClustersContext(ctx)
	if err != nil {
		return nil, err
	}
	return c.planFrom(res), nil
}

// PlanFrom builds a plan from a previously computed cluster result,
// letting callers reuse one clustering for several budgets.
func (c *Correlator) PlanFrom(res *cluster.Result) *hoard.Plan {
	return c.planFrom(res)
}

func (c *Correlator) planFrom(res *cluster.Result) *hoard.Plan {
	// Recency comes from the observer: it reflects meaningful user
	// references only, so a find scan does not refresh every file the
	// way it would under LRU (§4.1). seq copies it into a table indexed
	// by FileID; recency falls back to the map only for an id the file
	// table never handed out.
	lastRef := c.obs.LastRefs()
	seq := make([]uint64, c.fs.MaxID()+1)
	for id, s := range lastRef {
		if id > 0 && int(id) < len(seq) {
			seq[id] = s
		}
	}
	recency := func(id simfs.FileID) uint64 {
		if id > 0 && int(id) < len(seq) {
			return seq[id]
		}
		return lastRef[id]
	}
	b := hoard.NewBuilder(len(lastRef) + len(c.forced))

	// 1. Files hoarded regardless of behaviour (§4.2, §4.3, §4.6),
	// deterministically ordered by path.
	always := make([]*simfs.File, 0)
	for _, id := range c.obs.AlwaysHoard() {
		if f := c.fs.Get(id); f != nil {
			always = append(always, f)
		}
	}
	sortFilesByPath(always)
	for _, f := range always {
		b.Add(f, hoard.ReasonAlways, 0)
	}

	// 1b. Files forced after recorded misses (§4.4).
	for _, f := range c.forcedInPathOrder() {
		b.Add(f, hoard.ReasonAlways, 0)
	}

	// 2. Whole projects in activity order: a cluster is as active as
	// its most recently referenced member.
	type rankedCluster struct {
		id       int
		activity uint64
	}
	ranked := make([]rankedCluster, 0, len(res.Clusters))
	for _, cl := range res.Clusters {
		var act uint64
		for _, m := range cl.Members {
			if s := recency(m); s > act {
				act = s
			}
		}
		ranked = append(ranked, rankedCluster{id: cl.ID, activity: act})
	}
	slices.SortFunc(ranked, func(a, b rankedCluster) int {
		if a.activity != b.activity {
			return cmp.Compare(b.activity, a.activity)
		}
		return cmp.Compare(a.id, b.id)
	})
	var members []recentFile
	for _, rc := range ranked {
		cl := &res.Clusters[rc.id]
		members = members[:0]
		for _, m := range cl.Members {
			if f := c.fs.Get(m); f != nil {
				members = append(members, recentFile{recency(m), f})
			}
		}
		// Within a cluster, most recent first (matters only when the
		// filler is in prefix mode).
		slices.SortFunc(members, byRecency)
		for _, rf := range members {
			b.Add(rf.f, hoard.ReasonCluster, cl.ID)
		}
	}

	// 3. Remaining referenced files in LRU order.
	tail := make([]recentFile, 0, len(lastRef))
	for id, s := range lastRef {
		if f := c.fs.Get(id); f != nil {
			tail = append(tail, recentFile{s, f})
		}
	}
	slices.SortFunc(tail, byRecency)
	for _, rf := range tail {
		b.Add(rf.f, hoard.ReasonRecency, 0)
	}
	return b.Plan()
}

// Fill computes hoard contents for the given byte budget.
func (c *Correlator) Fill(budget int64) *hoard.Contents {
	return c.Plan().Fill(budget, c.p.SkipUnfittingClusters)
}

func sortFilesByPath(files []*simfs.File) {
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
}

// recentFile pairs a file with its last meaningful reference, so a
// recency sort compares without looking the stamp up.
type recentFile struct {
	seq uint64
	f   *simfs.File
}

// byRecency orders most recently referenced first, with path order
// breaking ties (including never-referenced files).
func byRecency(a, b recentFile) int {
	if a.seq != b.seq {
		return cmp.Compare(b.seq, a.seq)
	}
	return strings.Compare(a.f.Path, b.f.Path)
}
