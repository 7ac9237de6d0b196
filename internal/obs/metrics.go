// Package obs is SEER's telemetry substrate: a dependency-free metrics
// registry with Prometheus text-format exposition, a structured leveled
// logger, and lightweight trace spans kept in a ring buffer.
//
// The paper's evaluation (§5) is entirely about measured behaviour —
// miss-free hoard size, time to first miss, live usage statistics — so
// a running seerd must expose the same quantities. Every layer of the
// pipeline (observer, correlator, clusterer, hoard manager, replication
// substrate, supervisor) registers its instruments on one Registry, and
// /metrics serves them all in a form any Prometheus-compatible scraper
// understands. Nothing here imports anything outside the standard
// library, so any internal package may depend on obs without cycles.
//
// Naming and cardinality rules (enforced by convention, documented in
// DESIGN.md §12): every series is prefixed seer_, counters end in
// _total, sizes in _bytes, durations are histograms in seconds ending
// in _seconds, and label values come from small closed sets (stage
// names, protocol endpoints, severities) — never from user data such as
// file paths.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 instrument, safe for
// concurrent use. Methods on a nil Counter are no-ops, so optionally
// instrumented components need no guards.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instrument for current values (depths, sizes,
// states), safe for concurrent use. Values are int64: every SEER gauge
// is a count, a byte size, or a small enum. Methods on a nil Gauge are
// no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default latency histogram buckets, in seconds:
// 100µs to 10s, wide enough for both a cheap BuildPairs over a small
// table and a wedged clustering bumping into the plan deadline.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// exemplar links one histogram bucket to the trace of its most recent
// traced observation, so a latency spike in the exposition points at a
// reconstructable trace.
type exemplar struct {
	trace TraceID
	value float64
}

// Histogram is a fixed-bucket histogram with atomic counters: Observe
// is lock-free, making it safe on hot paths. Bucket bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64

	// exemplars holds the per-bucket most recent traced observation
	// (nil until one lands); tracer, when set via RetainExemplars,
	// pins referenced traces against span-ring eviction.
	exemplars []atomic.Pointer[exemplar]
	tracer    atomic.Pointer[Tracer]
}

// NewHistogram returns a standalone histogram with the given bucket
// upper bounds (sorted internally, +Inf implied). Registry.Histogram is
// the registered variant; this one is for throwaway aggregation — the
// load harness builds a fresh histogram per measurement step so each
// step's quantiles are independent.
func NewHistogram(bounds []float64) *Histogram {
	return newHistogram(bounds)
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(b)+1),
	}
}

// Observe records one sample; a nil Histogram drops it.
func (h *Histogram) Observe(v float64) { h.ObserveTrace(v, 0) }

// ObserveTrace records one sample and, when id is nonzero, retains it
// as the bucket's exemplar: the exposition's bucket line then carries
// the trace id of its most recent observation (OpenMetrics
// `# {trace_id=...}` syntax). With a tracer attached via
// RetainExemplars, the referenced trace is pinned in the span ring
// until a newer traced observation displaces it.
func (h *Histogram) ObserveTrace(v float64, id TraceID) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	if id == 0 {
		return
	}
	prev := h.exemplars[i].Swap(&exemplar{trace: id, value: v})
	if tr := h.tracer.Load(); tr != nil {
		tr.Pin(id)
		if prev != nil {
			tr.Unpin(prev.trace)
		}
	}
}

// RetainExemplars ties the histogram's exemplars to t: every trace
// referenced by a bucket exemplar is pinned against t's span-ring
// eviction until displaced, so following an exemplar from /metrics to
// /debug/traces never comes back empty.
func (h *Histogram) RetainExemplars(t *Tracer) {
	if h != nil {
		h.tracer.Store(t)
	}
}

// CountUnder returns the number of observations at or below bound,
// read off the cumulative bucket counts (bound rounds up to the next
// bucket boundary). SLO monitors diff this against Count to get the
// bad-event rate without retaining per-request state.
func (h *Histogram) CountUnder(bound float64) uint64 {
	if h == nil {
		return 0
	}
	i := sort.SearchFloat64s(h.bounds, bound)
	var cum uint64
	for j := 0; j <= i && j < len(h.counts); j++ {
		cum += h.counts[j].Load()
	}
	return cum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0..1) from the bucket counts with
// linear interpolation inside the containing bucket. The estimate for
// samples in the +Inf bucket is the highest finite bound. It returns 0
// with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n < rank || n == 0 {
			cum += n
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: the best available answer is the last bound.
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*((rank-cum)/n)
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// series is one (label values → instrument) entry of a family.
type series struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	// fn backs func instruments; atomic so re-registration (which
	// replaces the closure) cannot race a concurrent scrape.
	fn atomic.Pointer[func() float64]
}

// family is one named metric with a fixed type and label-key set.
type family struct {
	name      string
	help      string
	typ       string // "counter", "gauge", "histogram"
	labelKeys []string
	buckets   []float64
	isFunc    bool

	mu     sync.Mutex
	series map[string]*series
}

func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labelKeys), len(vals)))
	}
	key := strings.Join(vals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labelVals: append([]string(nil), vals...)}
		switch f.typ {
		case "counter":
			s.counter = &Counter{}
		case "gauge":
			s.gauge = &Gauge{}
		case "histogram":
			s.hist = newHistogram(f.buckets)
		}
		f.series[key] = s
	}
	return s
}

// Registry holds a process's (or one daemon instance's) instruments.
// Registration is idempotent: asking for an existing name returns the
// already-registered instrument, so independently constructed layers
// can share a registry without coordination. Re-registering a name as a
// different type panics — that is a programming error, not a runtime
// condition.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// lookup returns the family for name, creating it with the given shape,
// and panics on a type or label mismatch with an existing family.
func (r *Registry) lookup(name, help, typ string, isFunc bool, buckets []float64, labelKeys []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{
			name:      name,
			help:      help,
			typ:       typ,
			isFunc:    isFunc,
			labelKeys: append([]string(nil), labelKeys...),
			buckets:   buckets,
			series:    make(map[string]*series),
		}
		r.fams[name] = f
		return f
	}
	if f.typ != typ || f.isFunc != isFunc || len(f.labelKeys) != len(labelKeys) {
		panic(fmt.Sprintf("obs: metric %s re-registered as a different type", name))
	}
	for i, k := range labelKeys {
		if f.labelKeys[i] != k {
			panic(fmt.Sprintf("obs: metric %s re-registered with different labels", name))
		}
	}
	return f
}

// Counter returns the (unlabeled) counter registered under name,
// creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, "counter", false, nil, nil).get(nil).counter
}

// Gauge returns the (unlabeled) gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, "gauge", false, nil, nil).get(nil).gauge
}

// Histogram returns the histogram registered under name; buckets are
// upper bounds (nil means DefBuckets). The bucket layout is fixed by
// the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, help, "histogram", false, buckets, nil).get(nil).hist
}

// GaugeFunc registers a gauge computed at scrape time (queue depth,
// health state, dirty replicas). Re-registration replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.lookup(name, help, "gauge", true, nil, nil).get(nil).fn.Store(&fn)
}

// CounterFuncVec is a labeled family of scrape-time counters: each
// label set owns a value function (per-stage restart counts read off
// the supervisor at scrape time).
type CounterFuncVec struct{ f *family }

// CounterFuncVec returns the labeled func-counter family registered
// under name.
func (r *Registry) CounterFuncVec(name, help string, labelKeys ...string) *CounterFuncVec {
	return &CounterFuncVec{f: r.lookup(name, help, "counter", true, nil, labelKeys)}
}

// Register binds fn as the value of the series with the given label
// values, replacing any previous function.
func (v *CounterFuncVec) Register(fn func() float64, labelVals ...string) {
	v.f.get(labelVals).fn.Store(&fn)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family registered under name
// with the given label keys.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, "counter", false, nil, labelKeys)}
}

// With returns the counter for the given label values (one per key, in
// key order), creating it on first use.
func (v *CounterVec) With(labelVals ...string) *Counter {
	return v.f.get(labelVals).counter
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family registered under name.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, "gauge", false, nil, labelKeys)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	return v.f.get(labelVals).gauge
}

// GaugeFuncVec is a labeled family of scrape-time gauges: each label
// set owns a value function (per-window SLO burn rates read off the
// monitor at scrape time).
type GaugeFuncVec struct{ f *family }

// GaugeFuncVec returns the labeled func-gauge family registered under
// name.
func (r *Registry) GaugeFuncVec(name, help string, labelKeys ...string) *GaugeFuncVec {
	return &GaugeFuncVec{f: r.lookup(name, help, "gauge", true, nil, labelKeys)}
}

// Register binds fn as the value of the series with the given label
// values, replacing any previous function.
func (v *GaugeFuncVec) Register(fn func() float64, labelVals ...string) {
	v.f.get(labelVals).fn.Store(&fn)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family registered under
// name; buckets are upper bounds (nil means DefBuckets), fixed by the
// first registration.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.lookup(name, help, "histogram", false, buckets, labelKeys)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return v.f.get(labelVals).hist
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// labelString renders {k="v",...} for the series, with extra appended
// (used for histogram le bounds). Empty when there are no labels.
func labelString(keys, vals []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(vals[i]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value: integral values without exponent
// noise, +Inf as the literal the format requires.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered series in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series
// by label values, so output is deterministic and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sers := make([]*series, 0, len(keys))
		for _, k := range keys {
			sers = append(sers, f.series[k])
		}
		f.mu.Unlock()
		if len(sers) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range sers {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	ls := labelString(f.labelKeys, s.labelVals, "", "")
	switch {
	case s.hist != nil:
		// Bucket lines append the OpenMetrics exemplar suffix
		// (`# {trace_id=...} value`) when a traced observation landed in
		// that bucket; scrapers of the classic 0.0.4 format that balk at
		// it get the same series via ParseProm-style suffix stripping.
		exm := func(i int) string {
			e := s.hist.exemplars[i].Load()
			if e == nil {
				return ""
			}
			return fmt.Sprintf(" # {trace_id=\"%s\"} %s", e.trace, formatFloat(e.value))
		}
		var cum uint64
		for i, bound := range s.hist.bounds {
			cum += s.hist.counts[i].Load()
			bl := labelString(f.labelKeys, s.labelVals, "le", formatFloat(bound))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, bl, cum, exm(i)); err != nil {
				return err
			}
		}
		cum += s.hist.counts[len(s.hist.bounds)].Load()
		bl := labelString(f.labelKeys, s.labelVals, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, bl, cum, exm(len(s.hist.bounds))); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, ls, formatFloat(s.hist.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, ls, s.hist.Count())
		return err
	case f.isFunc:
		var v float64
		if fn := s.fn.Load(); fn != nil {
			v = (*fn)()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ls, formatFloat(v))
		return err
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ls, s.counter.Value())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ls, s.gauge.Value())
		return err
	}
	return nil
}

// Handler returns the /metrics HTTP handler for the registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
