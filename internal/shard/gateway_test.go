package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/obs"
)

// slowWriter is a ResponseWriter whose body writes take delay, as a
// slow client's would once the socket buffer fills.
type slowWriter struct {
	*httptest.ResponseRecorder
	delay time.Duration
}

func (w slowWriter) Write(b []byte) (int, error) {
	time.Sleep(w.delay)
	return w.ResponseRecorder.Write(b)
}

// The gateway's root span and seer_gateway_request_seconds cover the
// body write: a 20 ms write shows in both, under a `write` child span
// that carries the byte count.
func TestGatewayRootCoversBodyWrite(t *testing.T) {
	const delay = 20 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tracer := obs.NewTracer(256)
	mgr := NewManager(ctx, ManagerConfig{
		Shards:     1,
		Runtime:    config.DefaultRuntime(),
		Seed:       1,
		Tracer:     tracer,
		Supervisor: fastSupervisor(),
	})
	defer mgr.Close()
	gw := NewGateway(mgr, Policy{})
	ingest(t, mgr.Shard(0), testLines(0, 20))

	rec := slowWriter{httptest.NewRecorder(), delay}
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/plan", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("/plan: HTTP %d, %d bytes", rec.Code, rec.Body.Len())
	}
	tid, err := obs.ParseTraceID(rec.Header().Get(TraceHeader))
	if err != nil {
		t.Fatalf("trace header: %v", err)
	}

	hist := gw.RequestHist("plan")
	if hist.Count() != 1 || hist.Sum() < delay.Seconds() {
		t.Errorf("request histogram: %d observations, sum %.4fs; want 1 covering >= %v",
			hist.Count(), hist.Sum(), delay)
	}
	var root, write *obs.Span
	spans := tracer.TraceSpans(tid)
	for i := range spans {
		switch spans[i].Stage {
		case "gateway:plan":
			root = &spans[i]
		case "write":
			write = &spans[i]
		}
	}
	if root == nil || write == nil {
		t.Fatalf("want gateway:plan and write spans, got %+v", spans)
	}
	if root.Duration < delay {
		t.Errorf("root span %v, want >= %v", root.Duration, delay)
	}
	if write.Parent != root.ID || write.Duration < delay {
		t.Errorf("write span parent %s duration %v; want parent %s, >= %v",
			write.Parent, write.Duration, root.ID, delay)
	}
	want := obs.Attr{Key: "bytes", Value: strconv.Itoa(rec.Body.Len())}
	if !slices.Contains(write.Attrs, want) {
		t.Errorf("write span attrs %v, want %v", write.Attrs, want)
	}
}
