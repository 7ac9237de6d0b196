package supervise

import (
	"bytes"
	"context"
	"os"
	"time"
)

// Watcher polls a config file and hands changed contents to an Apply
// callback — the supervised half of hot reload. It deliberately avoids
// inotify-style APIs: a poll every second is free at config-file sizes,
// works on every platform and filesystem (NFS home directories were
// SEER's natural habitat), and survives editors that replace rather
// than rewrite the file.
//
// Change detection is by content, not mtime: each poll reads the file
// and compares bytes against the last content handed to Apply, so
// same-second rewrites and mtime-preserving copies are still caught.
// An in-place rewrite (os.WriteFile truncates, then writes) can be read
// between the two steps; that torn read is an empty file, which the
// watcher skips like a missing one, so Apply never sees it. An operator
// who wants to revert every file setting leaves a comment line instead
// of an empty file. Writers should still prefer
// write-to-temp-then-rename.
//
// Apply errors do not stop the watcher: the caller logs/counts the
// rejection and the old configuration keeps serving. A missing or empty
// file is not an error — the watcher waits for content to appear (and
// re-applies when it reappears after deletion).
type Watcher struct {
	path  string
	poll  time.Duration
	apply func(data []byte) error
	kick  chan struct{}

	// last is the most recent content handed to Apply (nil = none yet);
	// owned by the stage goroutine.
	last []byte
}

// NewWatcher returns a watcher for path polling at the given interval
// (≤ 0 means one second). apply receives the full file contents on
// every change; it must parse, validate, and swap — returning an error
// leaves the previous configuration active.
func NewWatcher(path string, poll time.Duration, apply func(data []byte) error) *Watcher {
	if poll <= 0 {
		poll = time.Second
	}
	return &Watcher{path: path, poll: poll, apply: apply, kick: make(chan struct{}, 1)}
}

// Kick forces an immediate check on the next loop iteration (SIGHUP
// handling); safe from any goroutine.
func (w *Watcher) Kick() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// MarkApplied seeds the change detector with contents already applied
// at startup, so the first poll does not re-apply the same bytes. Call
// before Stage runs.
func (w *Watcher) MarkApplied(data []byte) {
	w.last = append([]byte(nil), data...)
}

// Stage returns the StageFunc to register under a Supervisor. It polls
// until ctx ends; a panicking Apply bubbles to the supervisor like any
// stage failure and the watcher restarts with backoff.
func (w *Watcher) Stage() StageFunc {
	return func(ctx context.Context) error {
		t := time.NewTicker(w.poll)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return nil
			case <-t.C:
			case <-w.kick:
			}
			w.check()
		}
	}
}

// check reads the file and applies changed content. Read errors
// (missing file, permissions) and empty reads leave the last-applied
// state untouched.
func (w *Watcher) check() {
	data, err := os.ReadFile(w.path)
	if err != nil || len(data) == 0 {
		return
	}
	if w.last != nil && bytes.Equal(data, w.last) {
		return
	}
	// Record the content as seen whether or not Apply accepts it: a
	// rejected file should be re-applied only when it changes again,
	// not re-rejected (and re-logged) every poll.
	w.last = data
	w.apply(data)
}
