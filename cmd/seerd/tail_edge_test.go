package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/daemon"
	"github.com/fmg/seer/internal/fault"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/supervise"
)

// TestFollowFailureMatrix interleaves the two tail-loop disruptions
// (truncation and rotation) with checkpoint-sink failures: the pipeline
// must keep ingesting through both, health must degrade while the sink
// is broken and recover after it heals, and the snapshot the final
// drain writes must still be loadable at the end.
func TestFollowFailureMatrix(t *testing.T) {
	oldPoll := followPoll
	followPoll = 5 * time.Millisecond
	// Cleanup, not defer: registered before startTestPipeline's cleanup,
	// so the tailer has stopped before the global is restored.
	t.Cleanup(func() { followPoll = oldPoll })

	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	if err := os.WriteFile(path, []byte("pre-follow noise\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var sink fault.Sink
	rt := testRuntime(path)
	rt.Daemon.Follow = true
	rt.Daemon.ShardDir = dir
	p, stop := startTestPipeline(t, pipelineConfig{Options: daemon.Options{Runtime: rt}, checkpointEvery: 15 * time.Millisecond},
		func(p *pipeline) { p.mgr.Shard(0).SetSaveWrapper(sink.Do) })

	// Healthy append baseline.
	time.Sleep(30 * time.Millisecond) // tailer seeks to end first
	appendLine(t, path, chaosLine(0))
	waitEvents(t, p, 1)

	// Case 1: truncation while checkpoints fail. The tailer reopens from
	// the start; the broken sink degrades health but stops nothing.
	sink.Break()
	if err := os.WriteFile(path, []byte(chaosLine(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, p, 2)
	waitFor(t, "degraded during sink break (truncation)", func() bool {
		return p.Sup.Health() == supervise.Degraded
	})
	sink.Heal()
	waitFor(t, "healthy after heal (truncation)", func() bool {
		return p.Sup.Health() == supervise.Healthy
	})

	// Case 2: rotation while checkpoints fail.
	sink.Break()
	tmp := filepath.Join(dir, "rotated.strace")
	if err := os.WriteFile(tmp, []byte(chaosLine(2)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, p, 3)
	waitFor(t, "degraded during sink break (rotation)", func() bool {
		return p.Sup.Health() == supervise.Degraded
	})
	sink.Heal()
	waitFor(t, "healthy after heal (rotation)", func() bool {
		return p.Sup.Health() == supervise.Healthy
	})

	// Case 3: rotation immediately followed by truncation, sink healthy —
	// plain disruption interleaving, nothing may be lost after reopen.
	tmp2 := filepath.Join(dir, "rotated2.strace")
	if err := os.WriteFile(tmp2, []byte(chaosLine(3)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp2, path); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, p, 4)
	// The truncated replacement must be strictly shorter than what the
	// tailer already consumed, or the size check cannot see it shrink.
	short := `100  12:00:09.000009 openat(AT_FDCWD, "/h/x.c", O_RDONLY) = 3` + "\n"
	if len(short) >= len(chaosLine(3)) {
		t.Fatalf("test bug: truncation line (%d bytes) not shorter than rotated line (%d)", len(short), len(chaosLine(3)))
	}
	if err := os.WriteFile(path, []byte(short), 0o644); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, p, 5)

	// Stopping drains the slot to its final checkpoint.
	total := events(p)
	stop()
	r := shard.RestoreSnapshot(filepath.Join(dir, "shard-000.db"), core.Options{Seed: 1}, obs.NewLogger(io.Discard))
	if r.Events() != total {
		t.Fatalf("restored %d events after failure matrix, want %d", r.Events(), total)
	}
}

// The feedLines oversized-line boundary semantics: a line's length
// includes its newline when compared against maxLine, so content of
// exactly maxLine bytes is skipped while maxLine-1 passes. These pins
// keep that edge from silently moving.
func TestFeedLinesMaxLineBoundary(t *testing.T) {
	const maxLine = 100
	exact := strings.Repeat("a", maxLine)   // maxLine content + \n => skipped
	under := strings.Repeat("b", maxLine-1) // maxLine-1 content + \n => delivered
	in := exact + "\n" + under + "\n" + "ok\n"
	var got []string
	if err := feedLines(context.Background(), strings.NewReader(in), maxLine, func(s string) {
		got = append(got, s)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != under || got[1] != "ok" {
		t.Fatalf("got %d lines %v, want [%d-byte line, ok]", len(got), preview(got), maxLine-1)
	}
}

// An oversized final line with no terminating newline must be skipped
// without delivering anything, without error, and without hanging.
func TestFeedLinesOversizedUnterminatedTail(t *testing.T) {
	const maxLine = 64 * 1024
	in := "first\n" + strings.Repeat("x", 2*maxLine) // no trailing \n
	var got []string
	done := make(chan error, 1)
	go func() {
		done <- feedLines(context.Background(), strings.NewReader(in), maxLine, func(s string) {
			got = append(got, s)
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("feedLines hung on oversized unterminated tail")
	}
	if len(got) != 1 || got[0] != "first" {
		t.Fatalf("got %v, want [first]", preview(got))
	}
}

// An oversized line whose newline lands exactly on the 64 KiB bufio
// buffer boundary exercises the skip state machine across the
// chunk-reassembly path: the line is skipped and the next line is still
// delivered.
func TestFeedLinesOversizedAtBufferBoundary(t *testing.T) {
	const bufSize = 64 * 1024
	in := strings.Repeat("y", bufSize-1) + "\n" + "after\n"
	var got []string
	if err := feedLines(context.Background(), strings.NewReader(in), 100, func(s string) {
		got = append(got, s)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "after" {
		t.Fatalf("got %v, want [after]", preview(got))
	}
}

// Cancellation mid-stream stops delivery promptly: feedLines checks the
// context every 64 lines, so cancelling inside the callback stops the
// stream well short of the input and returns context.Canceled.
func TestFeedLinesCancelMidStream(t *testing.T) {
	const total = 1024
	var in strings.Builder
	for i := 0; i < total; i++ {
		in.WriteString("line\n")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	err := feedLines(ctx, strings.NewReader(in.String()), 100, func(string) {
		delivered++
		if delivered == 10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered >= total {
		t.Fatalf("delivered all %d lines despite cancellation", delivered)
	}
	if delivered > 10+64 {
		t.Fatalf("delivered %d lines after cancel at 10; the every-64-lines check is not working", delivered)
	}
}

// preview truncates long captured lines for failure messages.
func preview(lines []string) []string {
	out := make([]string, len(lines))
	for i, s := range lines {
		if len(s) > 32 {
			s = s[:32] + "..."
		}
		out[i] = s
	}
	return out
}

// TestFollowResumesWhereBootstrapStopped appends lines between the
// bootstrap's EOF and the tailer's first open. The tailer must pick up
// where bootstrap stopped, not at the file's end when it opens, so no
// line is lost at the handoff; a file rotated or truncated in between
// is read from its start instead.
func TestFollowResumesWhereBootstrapStopped(t *testing.T) {
	oldPoll := followPoll
	followPoll = 5 * time.Millisecond
	t.Cleanup(func() { followPoll = oldPoll })

	for _, c := range []struct {
		name    string
		between func(t *testing.T, path string)
		want    uint64
	}{
		{"append", func(t *testing.T, path string) {
			for i := 5; i < 8; i++ {
				appendLine(t, path, chaosLine(i))
			}
		}, 8},
		{"rotate", func(t *testing.T, path string) {
			next := path + ".next"
			writeTrace(t, next, 2)
			if err := os.Rename(next, path); err != nil {
				t.Fatal(err)
			}
		}, 7},
		{"truncate", func(t *testing.T, path string) {
			writeTrace(t, path, 2)
		}, 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "seer.strace")
			writeTrace(t, path, 5)
			rt := testRuntime(path)
			rt.Daemon.Follow = true
			p := newPipeline(pipelineConfig{Options: daemon.Options{
				Runtime: rt, Base: rt, Supervisor: testSupervisorConfig()}})
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			err = p.bootstrap(context.Background(), f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			c.between(t, path)

			ctx, cancel := context.WithCancel(context.Background())
			p.Sup.Start(ctx)
			defer func() {
				cancel()
				p.Sup.Wait()
				p.close()
			}()
			waitEvents(t, p, c.want)
			time.Sleep(30 * time.Millisecond) // several polls: nothing is read twice
			if got := events(p); got != c.want {
				t.Fatalf("fed %d events, want %d", got, c.want)
			}
		})
	}
}
