package replic

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/simfs"
)

// Master is the server half of the networked CheapRumor substrate: the
// authoritative version table every laptop reconciles against. It holds
// the same state as the in-memory CheapRumor's server map and applies
// the same reconciliation rules, so a RemoteRumor client over HTTP and
// a CheapRumor in one process converge to identical outcomes — the
// property the chaos tests assert.
//
// Master is safe for concurrent use: every mutation happens under one
// lock, and a batched reconcile is atomic with respect to concurrent
// pushes from other clients.
type Master struct {
	mu       sync.Mutex
	versions map[simfs.FileID]uint64

	// Operation counters live on the registry so they are scrapeable at
	// /metrics. They are atomics, so reading them never contends with
	// the version-table lock.
	reg         *obs.Registry
	mFiles      *obs.Gauge
	mCreates    *obs.Counter
	mPushes     *obs.Counter
	mConflicts  *obs.Counter
	mReconciles *obs.Counter
}

// NewMaster returns an empty master with a private metrics registry.
func NewMaster() *Master { return NewMasterOn(nil) }

// NewMasterOn returns an empty master registering its instruments on
// reg (nil creates a private registry, retrievable via Metrics()).
func NewMasterOn(reg *obs.Registry) *Master {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Master{versions: make(map[simfs.FileID]uint64), reg: reg}
	m.mFiles = reg.Gauge("seer_rumor_files",
		"Files in the master's replicated version table.")
	m.mCreates = reg.Counter("seer_rumor_creates_total",
		"Files registered through Create.")
	m.mPushes = reg.Counter("seer_rumor_pushes_total",
		"Local updates pushed to the master (direct or via reconcile).")
	m.mConflicts = reg.Counter("seer_rumor_conflicts_total",
		"Pushes that found the master's version diverged from the client's base.")
	m.mReconciles = reg.Counter("seer_rumor_reconciles_total",
		"Batched reconciliation rounds served.")
	return m
}

// Metrics returns the registry the master's instruments live on.
func (m *Master) Metrics() *obs.Registry { return m.reg }

// Create registers a file at version 1 (idempotent) and returns its
// version.
func (m *Master) Create(id simfs.FileID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.versions[id]; ok {
		return v
	}
	m.versions[id] = 1
	m.mFiles.Set(int64(len(m.versions)))
	m.mCreates.Inc()
	return 1
}

// Update bumps the version, as another replica pushing through the
// master would; it fails when the file is unknown.
func (m *Master) Update(id simfs.FileID) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.versions[id]
	if !ok {
		return 0, ErrNotReplicated
	}
	m.versions[id] = v + 1
	return v + 1, nil
}

// Version returns the file's version and whether it is replicated.
func (m *Master) Version(id simfs.FileID) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.versions[id]
	return v, ok
}

// Len returns the number of replicated files.
func (m *Master) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.versions)
}

// Fetch answers a batched version query.
func (m *Master) Fetch(ids []simfs.FileID) []VersionInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]VersionInfo, len(ids))
	for i, id := range ids {
		v, ok := m.versions[id]
		out[i] = VersionInfo{ID: id, Version: v, Found: ok}
	}
	return out
}

// Push applies one propagated local update. base is the master version
// the client's copy derives from (0 for a locally created file). The
// outcome mirrors CheapRumor.reconcile's dirty cases: absent → created
// at 1; base current → fast-forward; otherwise a conflict resolved by
// keepLocal (push over) or not (adopt the master's version).
func (m *Master) Push(id simfs.FileID, base uint64, keepLocal bool) PushResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pushLocked(id, base, keepLocal)
}

func (m *Master) pushLocked(id simfs.FileID, base uint64, keepLocal bool) PushResult {
	m.mPushes.Inc()
	sv, ok := m.versions[id]
	switch {
	case !ok:
		m.versions[id] = 1
		m.mFiles.Set(int64(len(m.versions)))
		return PushResult{Outcome: PushCreated, Version: 1}
	case sv == base:
		m.versions[id] = sv + 1
		return PushResult{Outcome: PushFastForward, Version: sv + 1}
	default:
		m.mConflicts.Inc()
		if keepLocal {
			m.versions[id] = sv + 1
			return PushResult{Outcome: PushConflict, Version: sv + 1}
		}
		return PushResult{Outcome: PushConflict, Version: sv}
	}
}

// Reconcile applies a batched reconciliation atomically: every dirty
// file is pushed and every clean file's current version is reported so
// the client can refresh stale hoarded copies.
func (m *Master) Reconcile(req ReconcileRequest) ReconcileResponse {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mReconciles.Inc()
	resp := ReconcileResponse{
		Dirty: make([]PushResult, len(req.Dirty)),
		Clean: make([]VersionInfo, len(req.Clean)),
	}
	for i, e := range req.Dirty {
		resp.Dirty[i] = m.pushLocked(e.ID, e.Base, req.KeepLocal)
	}
	for i, e := range req.Clean {
		v, ok := m.versions[e.ID]
		resp.Clean[i] = VersionInfo{ID: e.ID, Version: v, Found: ok}
	}
	return resp
}

// MasterHandler serves the CheapRumor wire protocol for m. prefix is
// the mount point without trailing slash (e.g. "/rumor"); register the
// handler at prefix+"/". Bodies that fail to decode (truncation, CRC
// mismatch, oversized counts) get 400; unknown paths 404; non-POST 405.
func MasterHandler(prefix string, m *Master) http.Handler {
	return TracedMasterHandler(prefix, m, nil)
}

// TracedMasterHandler is MasterHandler with server-side spans: each
// request carrying a traceparent header records a "master:<endpoint>"
// span in tracer, parented on the client's span, so the hop stitches
// into the caller's distributed trace. tracer nil disables spans.
func TracedMasterHandler(prefix string, m *Master, tracer *obs.Tracer) http.Handler {
	mux := http.NewServeMux()
	// Per-endpoint traffic counters; endpoint values come from the fixed
	// protocol path set, never from request data.
	reqs := m.reg.CounterVec("seer_rumor_requests_total",
		"Wire-protocol requests served, by endpoint.", "endpoint")
	errs := m.reg.CounterVec("seer_rumor_errors_total",
		"Wire-protocol requests rejected (bad method or undecodable body), by endpoint.", "endpoint")
	handle := func(path string, fn func(w http.ResponseWriter, req *http.Request) error) {
		endpoint := strings.TrimPrefix(path, "/")
		mReq, mErr := reqs.With(endpoint), errs.With(endpoint)
		mux.HandleFunc(prefix+path, func(w http.ResponseWriter, req *http.Request) {
			mReq.Inc()
			if req.Method != http.MethodPost {
				w.Header().Set("Allow", http.MethodPost)
				http.Error(w, "method not allowed; use POST", http.StatusMethodNotAllowed)
				mErr.Inc()
				return
			}
			var sp *obs.ActiveSpan
			if sc, ok := obs.Extract(req.Header); ok {
				sp = tracer.StartChild(sc, "master:"+endpoint)
			}
			if err := fn(w, req); err != nil {
				http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
				mErr.Inc()
				sp.Attr("outcome", "error")
			}
			sp.End()
		})
	}

	reply := func(w http.ResponseWriter, body []byte, err error) error {
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "application/x-seer-rumor")
		_, err = w.Write(body)
		return err
	}

	handle("/create", func(w http.ResponseWriter, req *http.Request) error {
		id, err := decodeID(req.Body)
		if err != nil {
			return err
		}
		v := m.Create(id)
		body, err := encodeVersionResp(VersionInfo{ID: id, Version: v, Found: true})
		return reply(w, body, err)
	})
	handle("/update", func(w http.ResponseWriter, req *http.Request) error {
		id, err := decodeID(req.Body)
		if err != nil {
			return err
		}
		v, uerr := m.Update(id)
		if uerr != nil {
			body, err := encodeStatusResp(statusNotReplicated)
			return reply(w, body, err)
		}
		body, err := encodeVersionResp(VersionInfo{ID: id, Version: v, Found: true})
		return reply(w, body, err)
	})
	handle("/version", func(w http.ResponseWriter, req *http.Request) error {
		id, err := decodeID(req.Body)
		if err != nil {
			return err
		}
		v, ok := m.Version(id)
		body, err := encodeVersionResp(VersionInfo{ID: id, Version: v, Found: ok})
		return reply(w, body, err)
	})
	handle("/fetch", func(w http.ResponseWriter, req *http.Request) error {
		ids, err := decodeIDList(req.Body)
		if err != nil {
			return err
		}
		body, err := encodeFetchResp(m.Fetch(ids))
		return reply(w, body, err)
	})
	handle("/push", func(w http.ResponseWriter, req *http.Request) error {
		id, base, keepLocal, err := decodePushReq(req.Body)
		if err != nil {
			return err
		}
		body, err := encodePushResp(m.Push(id, base, keepLocal))
		return reply(w, body, err)
	})
	handle("/reconcile", func(w http.ResponseWriter, req *http.Request) error {
		rreq, err := decodeReconcileReq(req.Body)
		if err != nil {
			return err
		}
		body, err := encodeReconcileResp(m.Reconcile(rreq))
		return reply(w, body, err)
	})

	// Anything else under the prefix is unknown.
	mux.HandleFunc(strings.TrimSuffix(prefix, "/")+"/", func(w http.ResponseWriter, req *http.Request) {
		http.NotFound(w, req)
	})
	return mux
}
