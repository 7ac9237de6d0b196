package replic_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/fmg/seer/internal/fault"
	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
)

// newMasterServer starts a Master behind httptest with the given
// transport decorating the client, returning the pieces.
func newMasterServer(t *testing.T, rt http.RoundTripper) (*replic.Master, *replic.RemoteRumor, *httptest.Server) {
	t.Helper()
	m := replic.NewMaster()
	mux := http.NewServeMux()
	mux.Handle("/rumor/", replic.MasterHandler("/rumor", m))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	hc := &http.Client{Transport: rt}
	if rt == nil {
		hc = ts.Client()
	}
	rr := replic.NewRemoteRumor(ts.URL+"/rumor/", hc) // trailing slash trimmed
	return m, rr, ts
}

// instantRetry is a backoff policy that never sleeps, for tests.
func instantRetry(attempts int) func(func() error) error {
	pol := hoard.RetryPolicy{MaxAttempts: attempts, Sleep: func(time.Duration) {}}
	return pol.Do
}

func TestRemoteFetchAndAccess(t *testing.T) {
	m, rr, _ := newMasterServer(t, nil)
	m.Create(7)
	if got := rr.Access(7); got != replic.AccessRemote {
		t.Errorf("unhoarded access = %v, want remote", got)
	}
	if err := rr.Fetch(7); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if !rr.HasLocal(7) {
		t.Error("fetched file not local")
	}
	if got := rr.Access(7); got != replic.AccessLocal {
		t.Errorf("hoarded access = %v, want local", got)
	}
	if got := rr.Access(999); got != replic.AccessUnknown {
		t.Errorf("nonexistent access = %v, want unknown", got)
	}
	if err := rr.Fetch(999); !errors.Is(err, replic.ErrNotReplicated) {
		t.Errorf("fetch unreplicated = %v", err)
	}

	// Disconnected: a file the master ever confirmed is a miss, an
	// unknown one stays unknown.
	rr.SetConnected(false)
	if got := rr.Access(7); got != replic.AccessLocal {
		t.Errorf("disconnected hoarded access = %v", got)
	}
	rr.Evict(7)
	if got := rr.Access(7); got != replic.AccessMiss {
		t.Errorf("disconnected evicted access = %v, want miss", got)
	}
	if got := rr.Access(999); got != replic.AccessUnknown {
		t.Errorf("disconnected unknown access = %v, want unknown", got)
	}
	if err := rr.Fetch(7); !errors.Is(err, replic.ErrDisconnected) {
		t.Errorf("disconnected fetch = %v", err)
	}
}

func TestRemoteWritePushesThrough(t *testing.T) {
	m, rr, _ := newMasterServer(t, nil)
	m.Create(3)
	if err := rr.Fetch(3); err != nil {
		t.Fatal(err)
	}
	rr.WriteLocal(3)
	if n := rr.DirtyCount(); n != 0 {
		t.Fatalf("connected write DirtyCount = %d, want 0", n)
	}
	if v, ok := m.Version(3); !ok || v != 2 {
		t.Errorf("master version = %d/%v, want 2", v, ok)
	}
	// Local creation while connected registers on the master.
	rr.WriteLocal(44)
	if v, ok := m.Version(44); !ok || v != 1 {
		t.Errorf("created master version = %d/%v, want 1", v, ok)
	}
	if got := rr.Totals().Propagated; got != 2 {
		t.Errorf("Totals().Propagated = %d, want 2", got)
	}
}

func TestRemoteWriteConflict(t *testing.T) {
	m, rr, _ := newMasterServer(t, nil)
	m.Create(3)
	if err := rr.Fetch(3); err != nil { // base 1
		t.Fatal(err)
	}
	if _, err := m.Update(3); err != nil { // another replica: now 2
		t.Fatal(err)
	}
	rr.WriteLocal(3)
	if got := rr.Totals().Conflicts; got != 1 {
		t.Errorf("Totals().Conflicts = %d, want 1", got)
	}
	if v, _ := m.Version(3); v != 2 {
		t.Errorf("master version = %d, want 2 (server copy kept)", v)
	}

	// Keep-local policy pushes over.
	m2, rr2, _ := newMasterServer(t, nil)
	rr2.KeepLocalOnConflict = true
	m2.Create(5)
	if err := rr2.Fetch(5); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Update(5); err != nil {
		t.Fatal(err)
	}
	rr2.WriteLocal(5)
	if v, _ := m2.Version(5); v != 3 {
		t.Errorf("keep-local master version = %d, want 3", v)
	}
}

func TestRemoteOfflineWriteReconciles(t *testing.T) {
	m, rr, _ := newMasterServer(t, nil)
	m.Create(3)
	if err := rr.Fetch(3); err != nil {
		t.Fatal(err)
	}
	rr.SetConnected(false)
	rr.WriteLocal(3)
	rr.WriteLocal(10) // disconnected creation
	if n := rr.DirtyCount(); n != 2 {
		t.Fatalf("offline DirtyCount = %d, want 2", n)
	}
	rep := rr.SetConnected(true)
	if rep.Propagated != 2 || rep.Conflicts != 0 {
		t.Errorf("reconcile report = %+v, want 2 propagated", rep)
	}
	if n := rr.DirtyCount(); n != 0 {
		t.Errorf("post-reconcile DirtyCount = %d", n)
	}
	if v, _ := m.Version(3); v != 2 {
		t.Errorf("master version of 3 = %d, want 2", v)
	}
	if v, ok := m.Version(10); !ok || v != 1 {
		t.Errorf("master version of 10 = %d/%v, want 1", v, ok)
	}
}

func TestRemoteEvictDeferredWhileDirty(t *testing.T) {
	m, rr, _ := newMasterServer(t, nil)
	m.Create(3)
	if err := rr.Fetch(3); err != nil {
		t.Fatal(err)
	}
	rr.SetConnected(false)
	rr.WriteLocal(3)
	rr.Evict(3)
	if !rr.HasLocal(3) {
		t.Fatal("dirty file evicted before propagation — update lost")
	}
	rep := rr.SetConnected(true)
	if rep.Propagated != 1 || rep.Evicted != 1 {
		t.Errorf("reconcile report = %+v, want 1 propagated 1 evicted", rep)
	}
	if rr.HasLocal(3) {
		t.Error("deferred eviction did not complete")
	}
	if v, _ := m.Version(3); v != 2 {
		t.Errorf("master version = %d, want 2 (update propagated before eviction)", v)
	}
}

func TestRemoteSyncBatch(t *testing.T) {
	m, rr, _ := newMasterServer(t, nil)
	m.Create(1)
	m.Create(2)
	if err := rr.Fetch(9); !errors.Is(err, replic.ErrNotReplicated) {
		t.Fatal(err)
	}
	failed, err := rr.SyncBatch([]simfs.FileID{1, 2, 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 9 {
		t.Errorf("failed = %v, want [9]", failed)
	}
	if !rr.HasLocal(1) || !rr.HasLocal(2) || rr.HasLocal(9) {
		t.Error("batch fetch results wrong")
	}
	if _, err := rr.SyncBatch(nil, []simfs.FileID{1}); err != nil {
		t.Fatal(err)
	}
	if rr.HasLocal(1) {
		t.Error("batch eviction not applied")
	}
	rr.SetConnected(false)
	if _, err := rr.SyncBatch([]simfs.FileID{2}, nil); !errors.Is(err, replic.ErrDisconnected) {
		t.Errorf("disconnected batch = %v", err)
	}
}

func TestRemoteUnavailable(t *testing.T) {
	ft := &fault.FlakyTransport{}
	m, rr, _ := newMasterServer(t, ft)
	m.Create(3)
	if err := rr.Fetch(3); err != nil {
		t.Fatal(err)
	}
	ft.SetDown(true)

	if err := rr.Fetch(3); !errors.Is(err, replic.ErrUnavailable) {
		t.Errorf("partitioned fetch = %v, want ErrUnavailable", err)
	}
	if _, err := rr.SyncBatch([]simfs.FileID{3}, nil); !errors.Is(err, replic.ErrUnavailable) {
		t.Errorf("partitioned batch = %v, want ErrUnavailable", err)
	}
	// Sync applies evictions locally even when the master is gone.
	if failed := rr.Sync([]simfs.FileID{5}, []simfs.FileID{3}); failed != 1 {
		t.Errorf("partitioned Sync failed = %d, want 1", failed)
	}
	if rr.HasLocal(3) {
		t.Error("partitioned Sync did not apply local eviction")
	}

	// A write during the partition stays dirty — never dropped.
	rr.WriteLocal(7)
	if n := rr.DirtyCount(); n != 1 {
		t.Fatalf("partitioned write DirtyCount = %d, want 1", n)
	}
	// Reconnecting while still partitioned fails and stays disconnected.
	rr.SetConnected(false)
	if rep := rr.SetConnected(true); rep != (replic.ReconcileReport{}) || rr.Connected() {
		t.Errorf("partitioned reconnect: report %+v connected %v", rep, rr.Connected())
	}
	// Heal: the next reconnect propagates the held update.
	ft.SetDown(false)
	rep := rr.SetConnected(true)
	if !rr.Connected() || rep.Propagated != 1 {
		t.Errorf("healed reconnect: report %+v connected %v", rep, rr.Connected())
	}
	if v, ok := m.Version(7); !ok || v != 1 {
		t.Errorf("held update not propagated: %d/%v", v, ok)
	}
}

func TestRemoteOutageWindowRetry(t *testing.T) {
	// A deterministic outage covering the first two calls: the retry
	// policy rides it out and the third attempt lands.
	ft := &fault.FlakyTransport{FailFrom: 0, FailTo: 2}
	m, rr, _ := newMasterServer(t, ft)
	rr.Retry = instantRetry(4)
	m.Create(3)
	if err := rr.Fetch(3); err != nil {
		t.Fatalf("fetch through outage = %v", err)
	}
	if got := ft.Calls(); got != 3 {
		t.Errorf("calls = %d, want 3 (two failures + success)", got)
	}
	if got := ft.Injected(); got != 2 {
		t.Errorf("injected = %d, want 2", got)
	}
}

func TestRemoteRetryExhaustion(t *testing.T) {
	ft := &fault.FlakyTransport{}
	m, rr, _ := newMasterServer(t, ft)
	rr.Retry = instantRetry(3)
	m.Create(3)
	ft.SetDown(true)
	if err := rr.Fetch(3); !errors.Is(err, replic.ErrUnavailable) {
		t.Fatalf("fetch = %v", err)
	}
	if got := ft.Calls(); got != 3 {
		t.Errorf("calls = %d, want 3 (policy exhausted)", got)
	}
}

func TestRemoteProbabilisticFaults(t *testing.T) {
	// 30% injected failures, retried: every operation still converges.
	ft := &fault.FlakyTransport{FailProb: 0.3, Rand: stats.NewRand(42)}
	m, rr, _ := newMasterServer(t, ft)
	rr.Retry = instantRetry(10)
	for id := simfs.FileID(1); id <= 50; id++ {
		m.Create(id)
		if err := rr.Fetch(id); err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		rr.WriteLocal(id)
	}
	// Flush any writes whose push lost the retry lottery.
	for i := 0; rr.DirtyCount() > 0 && i < 100; i++ {
		rr.Reconcile()
	}
	if n := rr.DirtyCount(); n != 0 {
		t.Fatalf("DirtyCount = %d after flush", n)
	}
	for id := simfs.FileID(1); id <= 50; id++ {
		if v, _ := m.Version(id); v != 2 {
			t.Errorf("master version of %d = %d, want 2", id, v)
		}
	}
	if ft.Injected() == 0 {
		t.Error("no faults injected — test proves nothing")
	}
}

func TestMasterHandlerErrors(t *testing.T) {
	_, _, ts := newMasterServer(t, nil)

	resp, err := http.Get(ts.URL + "/rumor/version")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/rumor/version", "application/x-seer-rumor",
		nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body status = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/rumor/nonsense", "application/x-seer-rumor", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}
}

func TestMasterCreateUpdateIdempotence(t *testing.T) {
	m := replic.NewMaster()
	if v := m.Create(1); v != 1 {
		t.Errorf("create = %d", v)
	}
	if v := m.Create(1); v != 1 {
		t.Errorf("re-create = %d, want 1 (idempotent)", v)
	}
	if v, err := m.Update(1); err != nil || v != 2 {
		t.Errorf("update = %d, %v", v, err)
	}
	if _, err := m.Update(99); !errors.Is(err, replic.ErrNotReplicated) {
		t.Errorf("update unknown = %v", err)
	}
	if m.Len() != 1 {
		t.Errorf("len = %d", m.Len())
	}
	vals := scrape(t, m.Metrics())
	if vals["seer_rumor_files"] != 1 || vals["seer_rumor_creates_total"] != 1 || vals["seer_rumor_pushes_total"] != 0 {
		t.Errorf("files/creates/pushes = %v %v %v, want 1 1 0", vals["seer_rumor_files"],
			vals["seer_rumor_creates_total"], vals["seer_rumor_pushes_total"])
	}
}
