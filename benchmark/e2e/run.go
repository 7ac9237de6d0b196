// Package e2e drives a real seerd, and for the reconnect workload a
// real rumord, over loopback HTTP with a workload's operation log, and
// measures what a user of the daemon sees. Like any client of seerd it
// depends only on the HTTP surface: it imports the standard library and
// the benchmark's own workload packages, no daemon internals.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fmg/seer/benchmark/ops"
)

// closedConns is how many requests a closed loop keeps in flight.
const closedConns = 2

// Config says what to run and how long to measure.
type Config struct {
	// Seerd and Rumord are the daemon binaries.
	Seerd, Rumord string
	// Measure is the length of the measured phase.
	Measure time.Duration
	// Replicate registers file ids 1..n on the rumord at base URL url;
	// the reconnect workload needs it.
	Replicate func(url string, n int) error
}

// Result is one run's raw measurements.
type Result struct {
	Setup   []time.Duration
	Elapsed time.Duration
	// Attempted and Failed count measured-phase requests. A request
	// fails on a transport error, a non-200 status (429 included) or a
	// stale answer; events the shard queues drop count as failed posts.
	Attempted, Failed int
	// Latency holds successful requests' latencies in milliseconds by
	// kind, timed from the due time under an open-loop schedule.
	Latency map[ops.Kind][]float64
	// Lateness is how late the open-loop generator sent each request,
	// in milliseconds.
	Lateness []float64
	// Events is how many events were fed during the measured phase.
	Events uint64
	// PlanBytes are the /plan body sizes.
	PlanBytes []int
	// CPU is seerd's user+system time over the measured phase, and
	// PeakRSS its VmHWM at the end, in bytes.
	CPU     time.Duration
	PeakRSS int64
	// Drops, Sheds and Stale come from seerd's /shards view.
	Drops, Sheds, Stale uint64
	// UserPlans are each user's /plan right after set-up (plan-read).
	UserPlans [][]Entry
	// ScoredPlans are the plans the quality prefix scores, by index in
	// the workload's Ops.
	ScoredPlans map[int][]Entry
	// MissFree is the mean miss-free hoard size in bytes over the
	// scored disconnections.
	MissFree float64
	// Problems lists failed output checks.
	Problems []string
	// Failures holds the first few failed requests' errors.
	Failures []string
}

// shardsView is seerd's debug /shards body.
type shardsView struct {
	Shards []struct {
		Events uint64 `json:"events"`
		Drops  uint64 `json:"queue_drops"`
		Sheds  uint64 `json:"sheds"`
		Stale  int64  `json:"stale_served"`
	} `json:"shards"`
}

type driver struct {
	w     *ops.Workload
	base  string
	debug string
	hc    *http.Client
	// acked counts the events seerd acknowledged ingesting.
	acked atomic.Uint64

	mu  sync.Mutex
	res *Result
}

// Run sets up w, measures it, checks its outputs and stops every
// process it started.
func Run(ctx context.Context, cfg Config, w *ops.Workload) (*Result, error) {
	res := &Result{Latency: make(map[ops.Kind][]float64), ScoredPlans: make(map[int][]Entry)}
	var seerd, rumord *proc
	defer func() {
		seerd.stop()
		rumord.stop()
	}()
	var d *driver
	// The set-up runs at least three times and for at least a second,
	// so its median is steady; the last one is measured.
	var spent time.Duration
	for rep := 0; rep < 15 && (rep < 3 || spent < time.Second); rep++ {
		seerd.stop()
		rumord.stop()
		seerd, rumord = nil, nil
		t0 := time.Now()
		var err error
		d, seerd, rumord, err = launch(ctx, cfg, w, res)
		if err != nil {
			return nil, err
		}
		for _, op := range w.Setup {
			if err := d.setupOp(ctx, op); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		res.Setup = append(res.Setup, time.Since(t0))
		spent += time.Since(t0)
	}
	if w.Name == "plan-read" {
		for u := range w.Users {
			body, err := d.send(ctx, ops.Op{Kind: ops.Plan, User: u})
			if err != nil {
				return nil, fmt.Errorf("plan after set-up: %w", err)
			}
			plan, err := ParsePlan(body)
			if err != nil {
				return nil, fmt.Errorf("%s's plan after set-up: %w", w.Users[u], err)
			}
			res.UserPlans = append(res.UserPlans, plan)
		}
	}

	cpu0, err := seerd.cpu()
	if err != nil {
		return nil, err
	}
	before, err := d.shards(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(cfg.Measure)
	switch w.Mode {
	case ops.ClosedIngest:
		err = d.runIngest(ctx, deadline)
	case ops.ClosedCycle:
		err = d.runCycle(ctx, deadline)
	case ops.OpenSchedule:
		err = d.runOpen(ctx, start)
	case ops.Sequential:
		err = d.runSequential(ctx, deadline)
	}
	if err == nil {
		err = d.waitFed(ctx)
	}
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	cpu1, err := seerd.cpu()
	if err != nil {
		return nil, err
	}
	res.CPU = cpu1 - cpu0
	if res.PeakRSS, err = seerd.peakRSS(); err != nil {
		return nil, err
	}
	after, err := d.shards(ctx)
	if err != nil {
		return nil, err
	}
	for i, s := range after.Shards {
		res.Events += s.Events - before.Shards[i].Events
		res.Drops += s.Drops
		res.Sheds += s.Sheds
		res.Stale += uint64(s.Stale)
	}
	if res.Drops > 0 {
		res.Failed += int(res.Drops)
		if w.Mode != ops.OpenSchedule {
			res.problem("closed-loop run dropped %d queued events", res.Drops)
		}
	}
	if w.Mode == ops.Sequential {
		res.MissFree = MeanMissFree(w, res.ScoredPlans)
	}
	return res, nil
}

func startRumord(ctx context.Context, bin string) (*proc, string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	p, err := start(ctx, bin, []string{"-listen", addr, "-log-level", "warn"}, "http://"+addr+"/healthz")
	if err != nil {
		return nil, "", err
	}
	return p, "http://" + addr + "/rumor", nil
}

// StartRumord starts a rumor master and returns its base URL and the
// function that stops it.
func StartRumord(ctx context.Context, bin string) (url string, stop func(), err error) {
	p, url, err := startRumord(ctx, bin)
	if err != nil {
		return "", nil, err
	}
	return url, p.stop, nil
}

// launch starts the daemons one set-up needs.
func launch(ctx context.Context, cfg Config, w *ops.Workload, res *Result) (*driver, *proc, *proc, error) {
	listen, err := freeAddr()
	if err != nil {
		return nil, nil, nil, err
	}
	debug, err := freeAddr()
	if err != nil {
		return nil, nil, nil, err
	}
	args := []string{"-shards", "2", "-listen", listen, "-debug-addr", debug, "-log-level", "warn"}
	var rumord *proc
	if w.Rumor {
		var rurl string
		rumord, rurl, err = startRumord(ctx, cfg.Rumord)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := cfg.Replicate(rurl, w.FileIDs); err != nil {
			rumord.stop()
			return nil, nil, nil, fmt.Errorf("replicating file ids: %w", err)
		}
		args = append(args, "-rumor-url", rurl)
	}
	seerd, err := start(ctx, cfg.Seerd, args, "http://"+listen+"/healthz", "http://"+debug+"/shards")
	if err != nil {
		rumord.stop()
		return nil, nil, nil, err
	}
	n := runtime.NumCPU()
	d := &driver{
		w:     w,
		base:  "http://" + listen,
		debug: "http://" + debug,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     n,
				MaxIdleConnsPerHost: n,
				DisableCompression:  true,
			},
		},
		res: res,
	}
	return d, seerd, rumord, nil
}

func (r *Result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (d *driver) url(path string, user int, file string) string {
	q := url.Values{"user": {d.w.Users[user]}}
	if file != "" {
		q.Set("path", file)
	}
	return d.base + path + "?" + q.Encode()
}

// send performs op and returns its body, or an error when the request
// failed.
func (d *driver) send(ctx context.Context, op ops.Op) ([]byte, error) {
	var (
		method = http.MethodGet
		path   string
		body   io.Reader
		file   string
	)
	switch op.Kind {
	case ops.Post:
		method, path, body = http.MethodPost, "/events", bytes.NewReader(op.Body)
	case ops.Plan:
		path = "/plan"
	case ops.Hoard:
		path = "/hoard"
	case ops.Miss:
		method, path, file = http.MethodPost, "/miss", op.Path
	}
	req, err := http.NewRequestWithContext(ctx, method, d.url(path, op.User, file), body)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	if resp.Header.Get("X-Seer-Stale") != "" {
		return nil, fmt.Errorf("%s %s: stale answer", method, path)
	}
	if op.Kind == ops.Post {
		var n uint64
		if _, err := fmt.Sscanf(string(b), "ingested %d events", &n); err != nil {
			return nil, fmt.Errorf("POST /events: unexpected reply %q", b)
		}
		d.acked.Add(n)
		if n != uint64(op.Lines) {
			d.mu.Lock()
			d.res.problem("POST /events ingested %d of %d lines", n, op.Lines)
			d.mu.Unlock()
		}
	}
	return b, nil
}

// do performs one measured request, timing it from t0, and checks its
// output. It returns the body of a successful request.
func (d *driver) do(ctx context.Context, op ops.Op, t0 time.Time) []byte {
	b, err := d.send(ctx, op)
	lat := float64(time.Since(t0)) / float64(time.Millisecond)
	var bad error
	switch {
	case err != nil:
	case op.Kind == ops.Plan:
		if _, perr := scanPlan(b, nil); perr != nil {
			bad = fmt.Errorf("/plan for %s: %w", d.w.Users[op.User], perr)
		}
	case op.Kind == ops.Hoard && !bytes.HasPrefix(b, []byte("# hoard: ")):
		bad = fmt.Errorf("/hoard for %s: unexpected body %.40q", d.w.Users[op.User], b)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.res.Attempted++
	if err != nil {
		d.res.Failed++
		if len(d.res.Failures) < 5 {
			d.res.Failures = append(d.res.Failures, err.Error())
		}
		return nil
	}
	d.res.Latency[op.Kind] = append(d.res.Latency[op.Kind], lat)
	if op.Kind == ops.Plan {
		d.res.PlanBytes = append(d.res.PlanBytes, len(b))
	}
	if bad != nil {
		d.res.problem("%v", bad)
	}
	return b
}

func (d *driver) setupOp(ctx context.Context, op ops.Op) error {
	if op.Kind == ops.Wait {
		return d.waitFed(ctx)
	}
	_, err := d.send(ctx, op)
	return err
}

func (d *driver) shards(ctx context.Context) (*shardsView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.debug+"/shards", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v shardsView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decoding /shards: %w", err)
	}
	return &v, nil
}

// fed returns how many events the shards have fed or dropped.
func (d *driver) fed(ctx context.Context) (uint64, error) {
	v, err := d.shards(ctx)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, s := range v.Shards {
		n += s.Events + s.Drops
	}
	return n, nil
}

// waitFed blocks until every acknowledged event has been fed.
func (d *driver) waitFed(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		n, err := d.fed(ctx)
		if err != nil {
			return err
		}
		if n >= d.acked.Load() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon fed %d of %d events after 60s", n, d.acked.Load())
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// runIngest posts the batches on the workload's connections, keeping
// at most Window events posted but not yet fed so the shard queues
// never shed.
func (d *driver) runIngest(ctx context.Context, deadline time.Time) error {
	n, err := d.fed(ctx)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var fed atomic.Uint64
	fed.Store(n)
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for ctx.Err() == nil {
			time.Sleep(2 * time.Millisecond)
			n, err := d.fed(ctx)
			if err != nil {
				cancel(err)
				return
			}
			fed.Store(n)
		}
	}()
	var (
		mu       sync.Mutex
		inflight int64 // lines posted and not yet acknowledged
	)
	reserve := func(lines int) bool {
		for ctx.Err() == nil {
			mu.Lock()
			if inflight+int64(d.acked.Load())-int64(fed.Load())+int64(lines) <= int64(d.w.Window) {
				inflight += int64(lines)
				mu.Unlock()
				return true
			}
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
		}
		return false
	}
	// Connection c carries the users with u%closedConns == c, so each
	// user's batches arrive in order.
	var wg sync.WaitGroup
	for c := 0; c < closedConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range d.w.Ops {
				if op.User%closedConns != c {
					continue
				}
				if time.Now().After(deadline) || !reserve(op.Lines) {
					return
				}
				d.do(ctx, op, time.Now())
				mu.Lock()
				inflight -= int64(op.Lines)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	err = context.Cause(ctx)
	cancel(nil)
	poller.Wait()
	return err
}

// runCycle sends the ops round and round on the workload's connections
// until the deadline.
func (d *driver) runCycle(ctx context.Context, deadline time.Time) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < closedConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				d.do(ctx, d.w.Ops[i%int64(len(d.w.Ops))], time.Now())
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// runOpen sends every op at its due time, whatever is still in flight.
// Reads go out concurrently; posts go through one in-order stream, as a
// strace tailer would send them, since a user's lines must arrive in
// order for the shard's parser to resolve descriptors.
func (d *driver) runOpen(ctx context.Context, start time.Time) error {
	var wg sync.WaitGroup
	late := make([]float64, 0, len(d.w.Ops))
	type due struct {
		op ops.Op
		at time.Time
	}
	// Sized for the whole schedule so the generator never blocks on a
	// slow stream.
	posts := make(chan due, len(d.w.Ops))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range posts {
			d.do(ctx, p.op, p.at)
		}
	}()
	for _, op := range d.w.Ops {
		at := start.Add(op.Due)
		if wait := time.Until(at); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			break
		}
		late = append(late, float64(time.Since(at))/float64(time.Millisecond))
		if op.Kind == ops.Post {
			posts <- due{op, at}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.do(ctx, op, at)
		}()
	}
	close(posts)
	wg.Wait()
	d.res.Lateness = late
	return ctx.Err()
}

// runSequential sends the ops one at a time: always the quality prefix,
// then until the deadline.
func (d *driver) runSequential(ctx context.Context, deadline time.Time) error {
	for i, op := range d.w.Ops {
		if i >= d.w.QualityOps && time.Now().After(deadline) {
			break
		}
		if op.Kind == ops.Wait {
			if err := d.waitFed(ctx); err != nil {
				return err
			}
			continue
		}
		b := d.do(ctx, op, time.Now())
		if len(op.Refs) > 0 && i < d.w.QualityOps && b != nil {
			plan, err := ParsePlan(b)
			if err != nil {
				continue // do already reported it
			}
			d.res.ScoredPlans[i] = plan
		}
	}
	return ctx.Err()
}

// MeanMissFree averages the miss-free hoard size over the scored plans,
// keyed by their index in w.Ops, in that order.
func MeanMissFree(w *ops.Workload, plans map[int][]Entry) float64 {
	idx := make([]int, 0, len(plans))
	for i := range plans {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var sum float64
	for _, i := range idx {
		sum += float64(MissFree(plans[i], w.Ops[i].Refs))
	}
	if len(idx) == 0 {
		return 0
	}
	return sum / float64(len(idx))
}

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
