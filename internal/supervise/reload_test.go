package supervise

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestWatcherAppliesChanges(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seerd.conf")
	if err := os.WriteFile(path, []byte("queue 100\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var applied []string
	w := NewWatcher(path, time.Millisecond, func(data []byte) error {
		mu.Lock()
		applied = append(applied, string(data))
		mu.Unlock()
		return nil
	})
	w.MarkApplied([]byte("queue 100\n"))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Stage()(ctx) }()

	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(applied)
	}
	// Unchanged content is never re-applied.
	time.Sleep(20 * time.Millisecond)
	if count() != 0 {
		t.Fatalf("unchanged file applied %d times", count())
	}
	// A rewrite is picked up.
	if err := os.WriteFile(path, []byte("queue 200\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "first apply", func() bool { return count() == 1 })
	// The same content again is not re-applied.
	time.Sleep(20 * time.Millisecond)
	if count() != 1 {
		t.Fatalf("same content re-applied: %d", count())
	}
	// An atomic rename-style replace is picked up too.
	tmp := filepath.Join(dir, "seerd.conf.tmp")
	if err := os.WriteFile(tmp, []byte("queue 300\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "apply after rename", func() bool { return count() == 2 })
	mu.Lock()
	got := applied[1]
	mu.Unlock()
	if got != "queue 300\n" {
		t.Fatalf("applied %q", got)
	}
	cancel()
	<-done
}

// An in-place rewrite can be read between its truncate and its write.
// That torn read is an empty file: the watcher must skip it rather than
// hand Apply an empty config, which would revert every file setting.
func TestWatcherSkipsEmptyRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seerd.conf")
	var applied []string
	w := NewWatcher(path, time.Hour, func(data []byte) error {
		applied = append(applied, string(data))
		return nil
	})
	for _, content := range []string{"queue 100\n", "", "queue 200\n"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		w.check()
	}
	if len(applied) != 2 || applied[0] != "queue 100\n" || applied[1] != "queue 200\n" {
		t.Fatalf("applied %q, want the two non-empty contents", applied)
	}
}

func TestWatcherRejectionNotRetriedUntilChange(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seerd.conf")
	var calls atomic.Int64
	w := NewWatcher(path, time.Millisecond, func(data []byte) error {
		calls.Add(1)
		return fmt.Errorf("invalid")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Stage()(ctx) }()

	// Missing file: nothing applied.
	time.Sleep(10 * time.Millisecond)
	if calls.Load() != 0 {
		t.Fatal("apply called with no file")
	}
	// A bad file is applied (and rejected) exactly once, not every poll.
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "rejection", func() bool { return calls.Load() == 1 })
	time.Sleep(20 * time.Millisecond)
	if calls.Load() != 1 {
		t.Fatalf("rejected content re-applied: %d", calls.Load())
	}
	// Kick forces a check but unchanged content still applies nothing.
	w.Kick()
	time.Sleep(10 * time.Millisecond)
	if calls.Load() != 1 {
		t.Fatalf("kick re-applied unchanged content: %d", calls.Load())
	}
	// New content is tried again.
	if err := os.WriteFile(path, []byte("garbage 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "second rejection", func() bool { return calls.Load() == 2 })
	cancel()
	<-done
}

func TestQueueSetCapGrowWakesBlockedProducer(t *testing.T) {
	q := NewQueue[int](1, time.Minute)
	if !q.Put(context.Background(), 1) {
		t.Fatal("first put failed")
	}
	done := make(chan bool, 1)
	go func() { done <- q.Put(context.Background(), 2) }()
	select {
	case <-done:
		t.Fatal("put returned while queue full")
	case <-time.After(20 * time.Millisecond):
	}
	q.SetCap(4)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("put failed after grow")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("grow did not wake blocked producer")
	}
	if q.Len() != 2 || q.Cap() != 4 || q.Drops() != 0 {
		t.Fatalf("len=%d cap=%d drops=%d", q.Len(), q.Cap(), q.Drops())
	}
}

func TestQueueSetCapShrinkKeepsItems(t *testing.T) {
	q := NewQueue[int](8, 0)
	for i := 0; i < 6; i++ {
		q.Put(context.Background(), i)
	}
	q.SetCap(2)
	if q.Len() != 6 || q.Cap() != 2 {
		t.Fatalf("after shrink: len=%d cap=%d", q.Len(), q.Cap())
	}
	if q.FillPct() != 300 {
		t.Fatalf("FillPct = %d, want 300", q.FillPct())
	}
	// A Put while over-capacity sheds the oldest, keeping depth level.
	if !q.Put(context.Background(), 6) {
		t.Fatal("put failed")
	}
	if q.Len() != 6 || q.Drops() != 1 {
		t.Fatalf("after over-capacity put: len=%d drops=%d", q.Len(), q.Drops())
	}
	// FIFO order is preserved minus the shed head.
	want := []int{1, 2, 3, 4, 5, 6}
	for _, exp := range want {
		v, ok := q.TryGet()
		if !ok || v != exp {
			t.Fatalf("TryGet = %d,%v want %d", v, ok, exp)
		}
	}
}

func TestQueueResizeUnderConcurrency(t *testing.T) {
	q := NewQueue[int](64, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const total = 20000
	var consumed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			_, ok := q.Get(ctx)
			if !ok {
				return
			}
			consumed.Add(1)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			switch i % 4 {
			case 0:
				q.SetCap(16)
			case 1:
				q.SetCap(1024)
			case 2:
				q.SetCap(1)
			default:
				q.SetCap(256)
			}
			select {
			case <-ctx.Done():
				return
			default:
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for i := 0; i < total; i++ {
		if !q.Put(context.Background(), i) {
			t.Fatalf("put %d failed", i)
		}
	}
	// Every produced item was either consumed or shed; nothing vanished.
	waitCond(t, "drain", func() bool {
		return consumed.Load()+int64(q.Drops())+int64(q.Len()) >= total
	})
	cancel()
	wg.Wait()
	for {
		if _, ok := q.TryGet(); !ok {
			break
		}
		consumed.Add(1)
	}
	if got := consumed.Load() + int64(q.Drops()); got != total {
		t.Fatalf("consumed+shed = %d, want %d", got, total)
	}
}
