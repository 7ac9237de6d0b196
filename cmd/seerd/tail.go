package main

// Strace ingest for the one-slot deployment: the cold bootstrap over
// the existing trace, and the -follow tailer over appended lines. Both
// hand lines to the slot's shard through Shard.IngestLines, which parses
// them with the shard's stateful parser and queues the events for its
// feeder.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/shard"
)

// maxLineLen bounds a single strace line. Longer lines (a pathological
// argument list, a corrupt trace) are skipped with a warning; a
// bufio.Scanner would instead stop the whole stream with ErrTooLong.
const maxLineLen = 1 << 20

// tailChunk bounds how many lines the tailer hands to the shard in one
// IngestLines call while a burst is still arriving.
const tailChunk = 256

// bootstrapStallPolls is how many 1 ms polls without progress, after a
// feeder restart, bootstrap waits before declaring the batch lost.
const bootstrapStallPolls = 100

// followPoll is how long the tailer waits at EOF before polling again
// (a variable so tests can tighten the loop).
var followPoll = time.Second

// lineSplitter reassembles newline-terminated lines from the chunks
// bufio.Reader.ReadString returns, skipping any line longer than max
// (newline included) instead of aborting the stream.
type lineSplitter struct {
	max      int
	partial  []byte
	skipping bool
	log      *slog.Logger
}

// push consumes one chunk; complete reports whether it ended in a
// newline. It returns the finished line, newline stripped, if any.
func (s *lineSplitter) push(chunk string, complete bool) (string, bool) {
	if s.skipping {
		// The oversized line ends with this chunk's newline, if it has one.
		s.skipping = !complete
		return "", false
	}
	s.partial = append(s.partial, chunk...)
	if len(s.partial) > s.max {
		s.log.Warn("skipping oversized line", "bytes", len(s.partial))
		s.partial = s.partial[:0]
		s.skipping = !complete
		return "", false
	}
	if !complete {
		return "", false
	}
	line := strings.TrimSuffix(string(s.partial), "\n")
	s.partial = s.partial[:0]
	return line, true
}

// flush returns the unterminated line pending at the end of a stream.
func (s *lineSplitter) flush() (string, bool) {
	if s.skipping || len(s.partial) == 0 {
		return "", false
	}
	line := string(s.partial)
	s.partial = s.partial[:0]
	return line, true
}

// feedLines delivers each newline-terminated line of r (and a trailing
// unterminated line at EOF) to fn with the newline stripped. Lines
// longer than maxLine are skipped with a warning instead of aborting
// the stream. A cancelled ctx stops the read promptly (checked every
// few lines) and returns ctx.Err(), so SIGINT during a large cold
// bootstrap does not have to run to EOF before it is noticed.
func feedLines(ctx context.Context, r io.Reader, maxLine int, fn func(string)) error {
	br := bufio.NewReaderSize(r, 64*1024)
	split := lineSplitter{max: maxLine, log: logger}
	done := ctx.Done()
	for lines := 0; ; lines++ {
		if lines%64 == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		chunk, err := br.ReadString('\n')
		if line, ok := split.push(chunk, err == nil); ok {
			fn(line)
		}
		if err == io.EOF {
			if line, ok := split.flush(); ok {
				fn(line)
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// bootstrap is the cold pass over the existing trace f into the single
// slot. It must not shed: it applies backpressure at the producer,
// ingesting at most a queue's worth of lines and then waiting for the
// feeder to catch up before reading on. One "bootstrap" root span
// parents every batch's ingest span. A cancelled ctx stops it promptly;
// whatever is still queued is folded by the final drain. If the feeder
// fails while a batch is in flight (a restart drops the event it was
// feeding; a broken feeder feeds nothing), the batch can never be
// caught up: bootstrap stops reading and returns an error counting the
// unfed events. A read that reaches EOF hands its end to the tailer.
func (p *pipeline) bootstrap(ctx context.Context, f *os.File) error {
	s := p.mgr.Shard(0)
	root := p.Tracer.StartRoot("bootstrap")
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	bctx := obs.ContextWithSpan(rctx, root.Context())
	_, capacity, _ := s.QueueStats()
	var (
		batch  []string
		events int
		lost   error
	)
	flush := func() {
		if len(batch) == 0 || lost != nil {
			return
		}
		want, restarts := s.Events(), s.Restarts()
		n, _ := s.IngestLines(bctx, batch)
		events += n
		want += uint64(n)
		batch = batch[:0]
		for idle, seen := 0, s.Events(); seen < want && rctx.Err() == nil; {
			time.Sleep(time.Millisecond)
			if now := s.Events(); now != seen || s.Restarts() == restarts {
				idle, seen = 0, now
				continue
			}
			// The feeder restarted and has stopped making progress (the
			// queue is empty, or the feeder's breaker tripped): the event
			// it was feeding when it failed is gone, so want is out of
			// reach.
			if idle++; idle >= bootstrapStallPolls {
				unfed := want - seen
				logger.Error("bootstrap stopped: shard feeder failed", "unfed_events", unfed)
				lost = fmt.Errorf("bootstrap: shard feeder failed with %d events unfed", unfed)
				cancel()
				return
			}
		}
	}
	err := feedLines(bctx, f, maxLineLen, func(line string) {
		if batch = append(batch, line); len(batch) >= capacity {
			flush()
		}
	})
	flush()
	root.AttrInt("events", int64(events)).End()
	if lost != nil {
		return lost
	}
	if err == nil {
		// At EOF the buffered reader has consumed everything it read, so
		// the file position is where the tailer must pick up. Without a
		// handoff (stdin is a pipe and cannot seek) the tailer starts at
		// the end, as a restart does.
		st, serr := f.Stat()
		off, oerr := f.Seek(0, io.SeekCurrent)
		if serr == nil && oerr == nil {
			p.handoff = &tailHandoff{file: st, offset: off}
		}
	}
	return err
}

// tailHandoff is where bootstrap stopped reading the trace: the file it
// read and the offset of its EOF.
type tailHandoff struct {
	file   os.FileInfo
	offset int64
}

// seek positions f, freshly opened at its start, where bootstrap
// stopped: at the handoff offset while f is still the file bootstrap
// read and has not shrunk below it, else at 0 (it was rotated or
// truncated in between, so all of it is new). It returns the offset.
func (h *tailHandoff) seek(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if !os.SameFile(st, h.file) || st.Size() < h.offset {
		return 0, nil
	}
	return f.Seek(h.offset, io.SeekStart)
}

// tailIngest hands one batch of tailed lines to the single slot,
// backing off while a drain swaps the slot's shard for its replacement.
func (p *pipeline) tailIngest(ctx context.Context, lines []string) {
	for {
		_, err := p.mgr.Shard(0).IngestLines(ctx, lines)
		if !shard.IsTransient(err) {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// tailStage tails the strace file for appended lines and hands them to
// the slot's shard, whose bounded queue sheds rather than blocks — the
// tailer never touches the correlator (or its lock), so a wedged
// clustering cannot stall the tail loop. It survives the file being
// truncated or rotated (size shrank or inode changed): the new file is
// reopened from the start instead of polling a dead offset forever. Its
// first run resumes where bootstrap stopped reading, so lines appended
// in between are ingested. It returns when ctx is cancelled; errors and
// panics bubble to the supervisor, which restarts the stage with
// backoff (a restart seeks to the current end of the file).
func (p *pipeline) tailStage(ctx context.Context) error {
	path := p.Store.Get().Daemon.Strace
	tlog := logger.With("component", "tailer")
	var (
		f      *os.File
		br     *bufio.Reader
		offset int64
		split  lineSplitter
	)
	// One ingestion batch — everything read between two EOF pauses —
	// shares a "tail" root span, which parents the ingest span of every
	// chunk handed to the shard.
	var (
		batch []string
		root  *obs.ActiveSpan
		bctx  context.Context // nil between batches
		lines int64
	)
	flush := func() {
		if len(batch) > 0 {
			p.tailIngest(bctx, batch)
			lines += int64(len(batch))
			batch = batch[:0]
		}
	}
	endBatch := func() {
		if bctx == nil {
			return
		}
		flush()
		root.AttrInt("lines", lines).End()
		tlog.Debug("ingestion batch complete", "trace", root.Context().Trace.String(), "lines", lines)
		root, bctx, lines = nil, nil, 0
	}
	defer endBatch()
	open := func(seekEnd bool) error {
		nf, err := os.Open(path)
		if err != nil {
			return err
		}
		var off int64
		if seekEnd {
			if off, err = nf.Seek(0, io.SeekEnd); err != nil {
				nf.Close()
				return err
			}
		}
		if f != nil {
			f.Close()
		}
		var r io.Reader = nf
		if p.wrapTail != nil {
			r = p.wrapTail(nf)
		}
		f, br, offset = nf, bufio.NewReaderSize(r, 64*1024), off
		split = lineSplitter{max: maxLineLen, log: tlog}
		return nil
	}
	resume := p.handoff
	p.handoff = nil
	if err := open(resume == nil); err != nil {
		return fmt.Errorf("follow: %w", err)
	}
	defer func() { f.Close() }()
	if resume != nil {
		var err error
		if offset, err = resume.seek(f); err != nil {
			return fmt.Errorf("follow: %w", err)
		}
	}
	for {
		chunk, err := br.ReadString('\n')
		offset += int64(len(chunk))
		if line, ok := split.push(chunk, err == nil); ok {
			if bctx == nil {
				root = p.Tracer.StartRoot("tail")
				bctx = obs.ContextWithSpan(ctx, root.Context())
			}
			batch = append(batch, line)
			if len(batch) >= tailChunk {
				flush()
			}
		}
		if err == nil {
			continue
		}
		// At EOF: the splitter keeps the partial line, so wait for growth
		// and watch for the file shrinking or being replaced underneath us.
		endBatch()
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(followPoll):
		}
		if st, serr := os.Stat(path); serr == nil {
			cur, ferr := f.Stat()
			rotated := ferr == nil && !os.SameFile(st, cur)
			truncated := !rotated && st.Size() < offset
			if rotated || truncated {
				why := "rotated"
				if truncated {
					why = "truncated"
				}
				tlog.Warn("trace file replaced; reopening from start", "path", path, "why", why)
				if oerr := open(false); oerr != nil {
					tlog.Error("reopen failed", "path", path, "err", oerr)
				}
			}
		}
	}
}
