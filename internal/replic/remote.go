package replic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/simfs"
)

// ErrUnavailable wraps transport-level failures talking to the master:
// connection refused, a partition, a 5xx, a corrupt response frame. It
// is transient — retry policies treat it as retryable, unlike
// ErrNotReplicated which is a definitive master answer.
var ErrUnavailable = errors.New("replic: master unreachable")

// RemoteRumor is the laptop side of the networked CheapRumor substrate:
// a Replicator whose authoritative state lives in a Master reached over
// HTTP. Local replica state (dirty flags, base versions, deferred
// evictions) is identical to the in-memory CheapRumor's, and every
// reconciliation decision is made by the master with the same rules, so
// the two implementations converge to the same hoard contents and
// conflict counts — the chaos suite asserts exactly that.
//
// Network discipline: hoard fills go through SyncBatch (one /fetch
// round trip for the whole diff, not one per file), and reconnection
// reconciliation is a single /reconcile round trip carrying every dirty
// and clean file. Connected writes push through immediately (/push);
// if the push fails the update simply stays dirty and the next
// reconciliation retries it — a dirty update is never dropped.
//
// Failure handling: every round trip returns an error wrapping
// ErrUnavailable on transport failure. The optional Retry hook wraps
// each round trip (wire hoard.RetryPolicy.Do into it for exponential
// backoff); a reconnect whose reconciliation still fails after retries
// leaves the client disconnected so a later SetConnected(true) runs a
// full reconciliation again. RemoteRumor is safe for concurrent use.
type RemoteRumor struct {
	// KeepLocalOnConflict mirrors CheapRumor's conflict policy: true
	// pushes the local version over a conflicting master copy.
	KeepLocalOnConflict bool
	// Retry, when non-nil, wraps every network round trip; it should
	// invoke its argument until nil or give up (hoard.RetryPolicy.Do
	// fits). Nil means single-attempt.
	Retry func(op func() error) error

	baseURL string
	hc      *http.Client

	mu        sync.Mutex
	local     map[simfs.FileID]*replica
	known     map[simfs.FileID]bool // ids the master has confirmed replicated
	connected bool
	totals    ReconcileReport

	// Optional instruments (nil until InstrumentOn); obs instruments are
	// nil-safe, so the hot paths record unconditionally.
	mRTT         *obs.Histogram
	mErrs        *obs.Counter
	mRetries     *obs.Counter
	mReconnects  *obs.Counter
	mDisconnects *obs.Counter

	// tracer (nil until TraceOn) records one client span per round trip
	// and injects the traceparent header so the master's server spans
	// stitch into the same trace.
	tracer *obs.Tracer
}

var _ Replicator = (*RemoteRumor)(nil)
var _ BatchSyncer = (*RemoteRumor)(nil)

// NewRemoteRumor returns a connected client for the master mounted at
// baseURL (e.g. "http://host:7078/rumor"). client nil means
// http.DefaultClient.
func NewRemoteRumor(baseURL string, client *http.Client) *RemoteRumor {
	if client == nil {
		client = http.DefaultClient
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &RemoteRumor{
		baseURL:   baseURL,
		hc:        client,
		local:     make(map[simfs.FileID]*replica),
		known:     make(map[simfs.FileID]bool),
		connected: true,
	}
}

// InstrumentOn registers the client's replication instruments on reg:
// round-trip latency, transport errors, Retry-hook re-attempts,
// partition/reconnect transitions, and the dirty-replica depth (a
// scrape-time gauge over DirtyCount). Call it once, before the client
// carries traffic; it returns r for chaining.
func (r *RemoteRumor) InstrumentOn(reg *obs.Registry) *RemoteRumor {
	r.mRTT = reg.Histogram("seer_replication_rtt_seconds",
		"Round-trip time of master protocol requests.", nil)
	r.mErrs = reg.Counter("seer_replication_errors_total",
		"Master round trips that failed (transport, status, or frame).")
	r.mRetries = reg.Counter("seer_replication_retries_total",
		"Round trips re-attempted by the Retry hook after a failure.")
	r.mReconnects = reg.Counter("seer_replication_reconnects_total",
		"Disconnected-to-connected transitions that reconciled successfully.")
	r.mDisconnects = reg.Counter("seer_replication_disconnects_total",
		"Connected-to-disconnected transitions (deliberate or reconcile failure).")
	reg.GaugeFunc("seer_replication_dirty_files",
		"Local updates not yet propagated to the master.",
		func() float64 { return float64(r.DirtyCount()) })
	r.mRTT.RetainExemplars(r.tracer)
	return r
}

// TraceOn attaches a tracer: every round trip made under a traced
// context records a client span and carries the traceparent header, so
// the master's half of the hop lands in the same trace. Call order
// with InstrumentOn does not matter; it returns r for chaining.
func (r *RemoteRumor) TraceOn(t *obs.Tracer) *RemoteRumor {
	r.tracer = t
	r.mRTT.RetainExemplars(t)
	return r
}

// RTTHist returns the round-trip latency histogram (nil before
// InstrumentOn) — the rumor-sync SLO's latency source.
func (r *RemoteRumor) RTTHist() *obs.Histogram { return r.mRTT }

// ErrorCount returns the cumulative failed round trips — the rumor-sync
// SLO's error source (obs counters are nil-safe).
func (r *RemoteRumor) ErrorCount() uint64 { return r.mErrs.Value() }

// retry applies the configured retry hook around one round trip,
// counting every re-attempt beyond the first so any hook (a
// hoard.RetryPolicy, a test stub) is measured without knowing about
// the registry.
func (r *RemoteRumor) retry(op func() error) error {
	if r.Retry == nil {
		return op()
	}
	attempts := 0
	return r.Retry(func() error {
		attempts++
		if attempts > 1 {
			r.mRetries.Inc()
		}
		return op()
	})
}

// post performs one protocol round trip under ctx and hands the
// response body to decode. Transport failures (ctx ending included),
// non-200 statuses, and frame corruption all come back wrapping
// ErrUnavailable. A span on ctx parents a client span over the round
// trip, which rides the wire as traceparent.
func (r *RemoteRumor) post(ctx context.Context, path string, body []byte, decode func(io.Reader) error) error {
	sc, _ := obs.SpanFromContext(ctx)
	sp := r.tracer.StartChild(sc, "rumor:"+strings.TrimPrefix(path, "/"))
	start := time.Now()
	err := r.postOnce(ctx, sp.Context(), path, body, decode)
	r.mRTT.ObserveTrace(time.Since(start).Seconds(), sc.Trace)
	if err != nil {
		r.mErrs.Inc()
		sp.Attr("outcome", "error")
	}
	sp.End()
	return err
}

func (r *RemoteRumor) postOnce(ctx context.Context, sc obs.SpanContext, path string, body []byte, decode func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrUnavailable, path, err)
	}
	req.Header.Set("Content-Type", "application/x-seer-rumor")
	obs.Inject(req.Header, sc)
	resp, err := r.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrUnavailable, path, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: %s: http %d", ErrUnavailable, path, resp.StatusCode)
	}
	if err := decode(resp.Body); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrUnavailable, path, err)
	}
	return nil
}

// Connected implements Replicator.
func (r *RemoteRumor) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.connected
}

// ensureLocked returns the replica record for id, creating it.
func (r *RemoteRumor) ensureLocked(id simfs.FileID) *replica {
	rep := r.local[id]
	if rep == nil {
		rep = &replica{}
		r.local[id] = rep
	}
	return rep
}

// applyFetchLocked records a successful fetch of id at master version v
// (CheapRumor.Fetch's state transition).
func (r *RemoteRumor) applyFetchLocked(id simfs.FileID, v uint64) {
	rep := r.ensureLocked(id)
	if !rep.dirty {
		rep.baseVersion = v
	}
	rep.evictWanted = false
	r.known[id] = true
}

// Fetch implements Replicator: one /version round trip, retried per the
// policy; a master that answers "not replicated" is permanent.
func (r *RemoteRumor) Fetch(id simfs.FileID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.connected {
		return ErrDisconnected
	}
	req, err := encodeID(id)
	if err != nil {
		return err
	}
	var info VersionInfo
	err = r.retry(func() error {
		return r.post(context.TODO(), "/version", req, func(body io.Reader) error {
			var derr error
			info, derr = decodeVersionResp(body)
			return derr
		})
	})
	if err != nil {
		return err
	}
	if !info.Found {
		return ErrNotReplicated
	}
	r.applyFetchLocked(id, info.Version)
	return nil
}

// SyncBatch implements BatchSyncer: the whole fetch list goes to the
// master in one /fetch round trip; evictions are local. failed lists
// the files the master does not replicate; err is a transport failure
// (retryable — no state changed).
func (r *RemoteRumor) SyncBatch(fetch, evict []simfs.FileID) (failed []simfs.FileID, err error) {
	return r.SyncBatchCtx(context.Background(), fetch, evict)
}

// SyncBatchCtx is SyncBatch under the caller's context: the /fetch
// round trip gives up when ctx ends, and records a client span
// parented on ctx's span, so a hoard fill triggered by a traced request
// shows up inside that trace. The client's lock is not held across the
// round trip, so a hung master costs each caller no more than its own
// deadline.
func (r *RemoteRumor) SyncBatchCtx(ctx context.Context, fetch, evict []simfs.FileID) (failed []simfs.FileID, err error) {
	var req []byte
	r.mu.Lock()
	if !r.connected {
		err = ErrDisconnected
	} else if len(fetch) > 0 {
		req, err = encodeIDList(fetch)
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var infos []VersionInfo
	if len(fetch) > 0 {
		err = r.retry(func() error {
			return r.post(ctx, "/fetch", req, func(body io.Reader) error {
				var derr error
				infos, derr = decodeFetchResp(body)
				return derr
			})
		})
		if err != nil {
			return nil, err
		}
		if len(infos) != len(fetch) {
			return nil, fmt.Errorf("%w: /fetch: %d answers for %d files",
				ErrUnavailable, len(infos), len(fetch))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, info := range infos {
		if !info.Found {
			failed = append(failed, info.ID)
			continue
		}
		r.applyFetchLocked(info.ID, info.Version)
	}
	for _, id := range evict {
		r.evictLocked(id)
	}
	return failed, nil
}

// Sync mirrors CheapRumor.Sync's signature: apply a hoard-fill diff,
// returning the number of files that could not be fetched. A transport
// failure that outlasts the retry policy counts the whole fetch list.
func (r *RemoteRumor) Sync(fetch, evict []simfs.FileID) (failedN int) {
	failed, err := r.SyncBatch(fetch, evict)
	if err != nil {
		// Evictions are local; honor them even when the master is
		// unreachable so the hoard does not leak space.
		r.mu.Lock()
		for _, id := range evict {
			r.evictLocked(id)
		}
		r.mu.Unlock()
		return len(fetch)
	}
	return len(failed)
}

// evictLocked is Evict's body (CheapRumor semantics: dirty files defer).
func (r *RemoteRumor) evictLocked(id simfs.FileID) {
	rep := r.local[id]
	if rep == nil {
		return
	}
	if rep.dirty {
		rep.evictWanted = true
		return
	}
	delete(r.local, id)
}

// Evict implements Replicator.
func (r *RemoteRumor) Evict(id simfs.FileID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked(id)
}

// HasLocal implements Replicator.
func (r *RemoteRumor) HasLocal(id simfs.FileID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.local[id] != nil
}

// Access implements Replicator. While connected the master is asked
// whether the file exists (AccessRemote vs AccessUnknown). While
// disconnected — or when the master cannot be reached — the client
// falls back to what it has learned: a file the master ever confirmed
// is a miss; a file never seen anywhere is unknown.
func (r *RemoteRumor) Access(id simfs.FileID) AccessResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.local[id] != nil {
		return AccessLocal
	}
	if r.connected {
		if req, err := encodeID(id); err == nil {
			var info VersionInfo
			err := r.retry(func() error {
				return r.post(context.TODO(), "/version", req, func(body io.Reader) error {
					var derr error
					info, derr = decodeVersionResp(body)
					return derr
				})
			})
			if err == nil {
				if info.Found {
					r.known[id] = true
					return AccessRemote
				}
				return AccessUnknown
			}
		}
	}
	if r.known[id] {
		return AccessMiss
	}
	return AccessUnknown
}

// WriteLocal records a local modification. While connected the update
// pushes through to the master immediately (create or update), so
// DirtyCount stays zero online; a failed push leaves the file dirty for
// the next reconciliation instead of losing the update.
func (r *RemoteRumor) WriteLocal(id simfs.FileID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.ensureLocked(id)
	rep.dirty = true
	if !r.connected {
		return
	}
	req, err := encodePushReq(id, rep.baseVersion, r.KeepLocalOnConflict)
	if err != nil {
		return
	}
	var res PushResult
	err = r.retry(func() error {
		return r.post(context.TODO(), "/push", req, func(body io.Reader) error {
			var derr error
			res, derr = decodePushResp(body)
			return derr
		})
	})
	if err != nil {
		return // still dirty; reconciliation will retry
	}
	rep.baseVersion = res.Version
	rep.dirty = false
	r.known[id] = true
	if res.Outcome == PushConflict {
		r.totals.Conflicts++
	} else {
		r.totals.Propagated++
	}
}

// DirtyCount returns the number of unpropagated local updates.
func (r *RemoteRumor) DirtyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rep := range r.local {
		if rep.dirty {
			n++
		}
	}
	return n
}

// LocalCount returns the number of locally stored files.
func (r *RemoteRumor) LocalCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.local)
}

// Totals returns the cumulative reconciliation outcomes, including
// connected write-through pushes.
func (r *RemoteRumor) Totals() ReconcileReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals
}

// SetConnected implements Replicator. Reconnecting runs a batched
// reconciliation; if the master cannot be reached even after retries
// the client stays disconnected (and reports nothing), so a later
// SetConnected(true) reconciles from scratch — dirty state is held, not
// dropped.
func (r *RemoteRumor) SetConnected(up bool) ReconcileReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	wasUp := r.connected
	r.connected = up
	if wasUp && !up {
		r.mDisconnects.Inc()
	}
	if !up || wasUp {
		return ReconcileReport{}
	}
	rep, err := r.reconcileLocked()
	if err != nil {
		r.connected = false
		r.mDisconnects.Inc()
		return ReconcileReport{}
	}
	r.mReconnects.Inc()
	return rep
}

// Reconcile runs a reconciliation round trip on demand while connected
// — flushing updates whose connected push failed transiently — and
// returns the outcome. It is SetConnected(true)'s working half.
func (r *RemoteRumor) Reconcile() (ReconcileReport, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.connected {
		return ReconcileReport{}, ErrDisconnected
	}
	return r.reconcileLocked()
}

func (r *RemoteRumor) reconcileLocked() (ReconcileReport, error) {
	req := ReconcileRequest{KeepLocal: r.KeepLocalOnConflict}
	for id, rep := range r.local {
		e := BaseEntry{ID: id, Base: rep.baseVersion}
		if rep.dirty {
			req.Dirty = append(req.Dirty, e)
		} else {
			req.Clean = append(req.Clean, e)
		}
	}
	// Deterministic request layout (map order is random).
	sort.Slice(req.Dirty, func(i, j int) bool { return req.Dirty[i].ID < req.Dirty[j].ID })
	sort.Slice(req.Clean, func(i, j int) bool { return req.Clean[i].ID < req.Clean[j].ID })

	body, err := encodeReconcileReq(req)
	if err != nil {
		return ReconcileReport{}, err
	}
	var resp ReconcileResponse
	err = r.retry(func() error {
		return r.post(context.TODO(), "/reconcile", body, func(rd io.Reader) error {
			var derr error
			resp, derr = decodeReconcileResp(rd)
			return derr
		})
	})
	if err != nil {
		return ReconcileReport{}, err
	}
	if len(resp.Dirty) != len(req.Dirty) || len(resp.Clean) != len(req.Clean) {
		return ReconcileReport{}, fmt.Errorf("%w: /reconcile: misaligned response", ErrUnavailable)
	}

	var report ReconcileReport
	for i, res := range resp.Dirty {
		id := req.Dirty[i].ID
		rep := r.local[id]
		if rep == nil {
			continue
		}
		rep.baseVersion = res.Version
		rep.dirty = false
		r.known[id] = true
		if res.Outcome == PushConflict {
			report.Conflicts++
		} else {
			report.Propagated++
		}
	}
	for i, info := range resp.Clean {
		id := req.Clean[i].ID
		rep := r.local[id]
		if rep == nil || !info.Found {
			continue
		}
		r.known[id] = true
		if info.Version != rep.baseVersion {
			rep.baseVersion = info.Version
			report.Refreshed++
		}
	}
	for id, rep := range r.local {
		if rep.evictWanted && !rep.dirty {
			delete(r.local, id)
			report.Evicted++
		}
	}
	r.totals.merge(report)
	return report, nil
}
