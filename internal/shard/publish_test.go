package shard

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/trace"
)

// workLines renders n open/close pairs for writer w: bursts of work in
// one of three 40-file projects at a time, by a process of the writer's
// own, so the correlator forms real clusters, no file is frequent
// enough to be hoarded regardless, and two writers never share a
// descriptor table.
func workLines(w, off, n int) []string {
	out := make([]string, 0, 2*n)
	for i := off; i < off+n; i++ {
		proj := i / 8 % 3
		pid := 200 + 10*w + proj
		ts := fmt.Sprintf("12:%02d:%02d.%06d", i/60%60, i%60, i%1_000_000)
		out = append(out,
			fmt.Sprintf(`%d  %s openat(AT_FDCWD, "/home/w%d/p%d/f%02d.c", O_RDONLY) = 3`, pid, ts, w, proj, i*7%40),
			fmt.Sprintf(`%d  %s close(3) = 0`, pid, ts))
	}
	return out
}

// reads names a shard's two published endpoints.
func reads(s *Shard) map[string]func(context.Context) ([]byte, bool, error) {
	return map[string]func(context.Context) ([]byte, bool, error){"plan": s.Plan, "hoard": s.Hoard}
}

// checkPublished asserts, at a quiescent point, that each endpoint's
// answer is the body published at the current generation and that it
// is byte-identical to a render made under the lock at that generation;
// a second read is a published hit and builds no plan.
func checkPublished(t *testing.T, s *Shard, round int) {
	t.Helper()
	ctx := context.Background()
	for name, read := range reads(s) {
		hoard := name == "hoard"
		got, stale, err := read(ctx)
		if err != nil || stale {
			t.Fatalf("round %d: %s = stale %v, err %v; want fresh", round, name, stale, err)
		}
		built := s.mPlans.Value()
		again, stale, err := read(ctx)
		if err != nil || stale || !bytes.Equal(again, got) {
			t.Fatalf("round %d: second %s differs (stale %v, err %v)", round, name, stale, err)
		}
		if n := s.mPlans.Value() - built; n != 0 {
			t.Fatalf("round %d: a repeated %s at one generation built %d plans, want 0", round, name, n)
		}

		var want bytes.Buffer
		s.lock()
		gen := s.gen.Load()
		p := s.pub(hoard).Load()
		if hoard {
			_, err = s.renderHoard(ctx, &want, s.budget.Load())
		} else {
			err = s.renderPlan(ctx, &want, nil)
		}
		s.unlock()
		if err != nil {
			t.Fatalf("round %d: locked %s render: %v", round, name, err)
		}
		if p == nil || p.gen != gen {
			t.Fatalf("round %d: %s published at another generation than %d", round, name, gen)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round %d: published %s differs from a locked render at generation %d:\n--- published\n%s--- render\n%s",
				round, name, gen, got, want.Bytes())
		}
	}
}

// Property: whatever interleaving of concurrent feeds from two writers,
// misses, reloads (budget and KNear flipping) and readers produced a
// state, once the feeder has caught up the /plan and /hoard answers are
// the bodies published at that generation, byte-identical to a render
// made under the lock. Each round then applies one miss, or one reload
// flipping SkipUnfittingClusters (which, unlike KNear here, changes the
// hoard), alone, so a mutation that left the generation unmoved would
// keep serving the body published before it. `make flake-check`
// repeats the test under -race at one and four CPUs.
func TestPublishedBodyMatchesLockedRender(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig(t, 0, "")
	cfg.QueueCap = 4096
	s := Open(ctx, cfg)
	defer s.Close()

	reload := func(kNear int, skip bool, budgetMB int64) {
		rt := config.DefaultRuntime()
		rt.Params = config.Defaults()
		rt.Params.KNear = kNear
		rt.Params.SkipUnfittingClusters = skip
		rt.Daemon.QueueCap = cfg.QueueCap
		rt.Daemon.HoardBudgetMB = budgetMB
		if !s.ApplyRuntime(rt) {
			t.Error("ApplyRuntime refused a serving shard")
		}
	}
	miss := func(path string) {
		if _, err := s.Miss(context.Background(), path); err != nil {
			t.Errorf("Miss: %v", err)
		}
	}
	const (
		rounds   = 8
		perBatch = 45
		readers  = 4
	)
	kNear := config.Defaults().KNear
	var want uint64
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			lines := workLines(w, round*perBatch, perBatch)
			want += uint64(len(lines))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if n, err := s.IngestLines(context.Background(), lines); err != nil || n != len(lines) {
					t.Errorf("IngestLines = %d of %d, %v", n, len(lines), err)
				}
			}()
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			miss(fmt.Sprintf("/home/w%d/p%d/f%02d.c", round%2, round%3, round))
		}()
		go func() {
			defer wg.Done()
			reload(kNear+round%2, true, int64(1+round%2))
		}()
		for r := 0; r < readers; r++ {
			read := s.Plan
			if r%2 == 1 {
				read = s.Hoard
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					if _, _, err := read(context.Background()); err != nil {
						t.Errorf("read: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		waitFor(t, "feeder caught up", func() bool {
			_, _, drops := s.QueueStats()
			return s.Events()+drops >= want
		})
		checkPublished(t, s, round)

		if round%2 == 0 {
			miss(fmt.Sprintf("/home/w1/p%d/f%02d.c", round%3, 39-round))
		} else {
			reload(kNear+round%2, false, int64(1+round%2))
		}
		checkPublished(t, s, round)
	}
}

// A read at an unchanged generation answers from the published body
// without the correlator lock, so a holder of the lock (the
// checkpointer holds it through SaveSnapshot) no longer turns reads
// stale. Once a feed has advanced the generation and wedges under the
// lock, the same reads fall back to the last published body, stale.
func TestPublishedReadSkipsHeldLock(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Open(ctx, testConfig(t, 0, t.TempDir()))
	defer s.Close()
	ingest(t, s, workLines(0, 0, 20))

	want := map[string][]byte{}
	for name, read := range reads(s) {
		body, stale, err := read(context.Background())
		if err != nil || stale {
			t.Fatalf("warm %s: stale %v, err %v", name, stale, err)
		}
		want[name] = body
	}
	deadlineRead := func(read func(context.Context) ([]byte, bool, error)) ([]byte, bool, error) {
		rctx, rcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer rcancel()
		return read(rctx)
	}

	s.lock()
	for name, read := range reads(s) {
		body, stale, err := deadlineRead(read)
		if err != nil || stale || !bytes.Equal(body, want[name]) {
			s.unlock()
			t.Fatalf("%s under a held lock at an unchanged generation: stale %v, err %v, same body %v; want the fresh published body",
				name, stale, err, bytes.Equal(body, want[name]))
		}
	}
	s.unlock()

	wedge, entered := make(chan struct{}), make(chan struct{}, 1)
	s.SetFeedHook(func(trace.Event) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-wedge
	})
	defer func() {
		s.SetFeedHook(nil)
		close(wedge)
	}()
	if _, err := s.IngestLines(context.Background(), workLines(0, 20, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("feeder never reached the wedge")
	}
	for name, read := range reads(s) {
		body, stale, err := deadlineRead(read)
		if err != nil || !stale || !bytes.Equal(body, want[name]) {
			t.Fatalf("%s behind a wedged feed: stale %v, err %v, same body %v; want the last published body, stale",
				name, stale, err, bytes.Equal(body, want[name]))
		}
	}
}

// A reload that changes only the budget changes the /hoard summary line
// at once: the published hoard is keyed by budget as well as
// generation, and the reload does not touch the correlator.
func TestBudgetReloadChangesHoardSummary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Open(ctx, testConfig(t, 0, ""))
	defer s.Close()
	ingest(t, s, workLines(0, 0, 20))

	summary := func() string {
		t.Helper()
		body, stale, err := s.Hoard(context.Background())
		if err != nil || stale {
			t.Fatalf("Hoard: stale %v, err %v", stale, err)
		}
		line, _, _ := strings.Cut(string(body), "\n")
		return line
	}
	if got := summary(); !strings.HasSuffix(got, fmt.Sprintf(" of %d budget", 1<<20)) {
		t.Fatalf("hoard summary %q, want the 1 MB budget", got)
	}
	gen := s.gen.Load()
	rt := config.DefaultRuntime()
	rt.Params = s.Params()
	rt.Daemon.HoardBudgetMB = 7
	if !s.ApplyRuntime(rt) {
		t.Fatal("ApplyRuntime refused a serving shard")
	}
	if got := s.gen.Load(); got != gen {
		t.Fatalf("budget-only reload moved the generation %d → %d", gen, got)
	}
	if got := summary(); !strings.HasSuffix(got, fmt.Sprintf(" of %d budget", 7<<20)) {
		t.Fatalf("hoard summary after the reload %q, want the 7 MB budget", got)
	}
}

// A read that renders, and a /miss, record their wait for the
// correlator lock as a lock_wait child of the request span and in
// seer_shard_lock_wait_seconds; a published hit records neither, which
// is how a trace shows the saving.
func TestLockWaitRecordedOnlyWhenLocking(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig(t, 0, "")
	cfg.Tracer = obs.NewTracer(256)
	s := Open(ctx, cfg)
	defer s.Close()
	ingest(t, s, workLines(0, 0, 20))

	// lockWaits runs op under a fresh request span and returns how many
	// lock_wait spans it recorded directly under that span.
	lockWaits := func(op func(context.Context)) int {
		root := cfg.Tracer.StartRoot("test")
		op(obs.ContextWithSpan(context.Background(), root.Context()))
		root.End()
		spans := cfg.Tracer.TraceSpans(root.Context().Trace)
		parents := map[obs.SpanID]bool{root.Context().Span: true}
		for _, sp := range spans {
			if sp.Parent == root.Context().Span {
				parents[sp.ID] = true
			}
		}
		n := 0
		for _, sp := range spans {
			if sp.Stage == "lock_wait" && parents[sp.Parent] {
				n++
			}
		}
		return n
	}
	plan := func(ctx context.Context) {
		if _, stale, err := s.Plan(ctx); err != nil || stale {
			t.Fatalf("Plan: stale %v, err %v", stale, err)
		}
	}
	miss := func(ctx context.Context) {
		if _, err := s.Miss(ctx, "/home/w0/p0/f00.c"); err != nil {
			t.Fatalf("Miss: %v", err)
		}
	}
	for _, step := range []struct {
		name string
		op   func(context.Context)
		want int
	}{
		{"rendering plan", plan, 1},
		{"published plan", plan, 0},
		{"miss", miss, 1},
		{"plan after the miss", plan, 1},
	} {
		if got := lockWaits(step.op); got != step.want {
			t.Errorf("%s: %d lock_wait spans, want %d", step.name, got, step.want)
		}
	}
	if got := s.mLockWait.Count(); got != 3 {
		t.Errorf("seer_shard_lock_wait_seconds count = %d, want 3", got)
	}
}
