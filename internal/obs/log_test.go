package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// syncBuilder serializes writes so the test can read the builder after
// concurrent logging without a race.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) take() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.b.String()
	s.b.Reset()
	return out
}

func TestLoggerText(t *testing.T) {
	var b syncBuilder
	NewLogger(&b).Info("plan built", "files", 12, "dur", "40ms")
	got := b.take()
	if !strings.HasPrefix(got, "time=") ||
		!strings.HasSuffix(got, ` level=INFO msg="plan built" files=12 dur=40ms`+"\n") {
		t.Fatalf("got %q", got)
	}
}

// With children carry their tags and share the parent's level,
// including a level set after they were derived.
func TestLoggerWithTags(t *testing.T) {
	var b syncBuilder
	l := NewLogger(&b)
	child := l.With("component", "tailer")
	child.Warn("shed", "n", 3)
	if got := b.take(); !strings.Contains(got, "component=tailer") || !strings.Contains(got, "level=WARN") {
		t.Fatalf("got %q", got)
	}
	if err := ConfigureLogger(l, "error", "text"); err != nil {
		t.Fatal(err)
	}
	child.Warn("dropped")
	if got := b.take(); got != "" {
		t.Fatalf("warn emitted past error level: %q", got)
	}
}

// A level change reaches loggers derived with With before the change.
func TestLoggerLevelFilter(t *testing.T) {
	var b syncBuilder
	l := NewLogger(&b)
	child := l.With("component", "tailer")
	child.Debug("hidden")
	if got := b.take(); got != "" {
		t.Fatalf("debug emitted at the default info level: %q", got)
	}
	if err := ConfigureLogger(l, "debug", "text"); err != nil {
		t.Fatal(err)
	}
	child.Debug("shown", "n", 3)
	if got := b.take(); !strings.Contains(got, "level=DEBUG") || !strings.Contains(got, "n=3") {
		t.Fatalf("child did not follow the level change: %q", got)
	}
}

// A text ↔ JSON switch reaches loggers derived with With or WithGroup
// before the switch, bound attributes included; error values keep only
// their first line.
func TestLoggerJSON(t *testing.T) {
	var b syncBuilder
	l := NewLogger(&b)
	child := l.With("component", "shard", "shard", "3")
	if err := ConfigureLogger(l, "info", "json"); err != nil {
		t.Fatal(err)
	}
	child.Error("boom", "err", errors.New("bad\nstack"), "files", 12)
	var m map[string]any
	if err := json.Unmarshal([]byte(b.take()), &m); err != nil {
		t.Fatalf("not a JSON line after the switch: %v", err)
	}
	if m["level"] != "ERROR" || m["msg"] != "boom" || m["component"] != "shard" ||
		m["shard"] != "3" || m["files"] != float64(12) || m["err"] != "bad" {
		t.Fatalf("parsed %v", m)
	}
	l.WithGroup("req").Info("grouped", "n", 2)
	if got := b.take(); !strings.Contains(got, `"req":{"n":2}`) {
		t.Fatalf("WithGroup child did not follow the JSON switch: %q", got)
	}
	if err := ConfigureLogger(l, "info", "text"); err != nil {
		t.Fatal(err)
	}
	child.Info("plan built")
	if got := b.take(); !strings.Contains(got, `msg="plan built"`) || !strings.Contains(got, "component=shard") {
		t.Fatalf("not a text line after switching back: %q", got)
	}
}

// An error carrying a panic stack, or a string holding one, logs as
// one line in either format.
func TestLoggerCutsValuesAtNewline(t *testing.T) {
	var b syncBuilder
	l := NewLogger(&b)
	stack := errors.New("panic: boom\ngoroutine 1 [running]:\nmain.main()")
	for _, format := range []string{"text", "json"} {
		if err := ConfigureLogger(l, "info", format); err != nil {
			t.Fatal(err)
		}
		l.With("stage", "feeder\nextra").Error("stage failure\nmore", "err", stack, "note", "a\nb")
		got := b.take()
		if strings.Count(got, "\n") != 1 {
			t.Fatalf("%s: record spans lines: %q", format, got)
		}
		for _, gone := range []string{"goroutine", "extra", "more", "b\""} {
			if strings.Contains(got, gone) {
				t.Fatalf("%s: %q survived the cut: %q", format, gone, got)
			}
		}
		if !strings.Contains(got, "panic: boom") {
			t.Fatalf("%s: first line of the error lost: %q", format, got)
		}
	}
}

func TestLoggerQuoting(t *testing.T) {
	var b syncBuilder
	NewLogger(&b).Info("x", "path", "/tmp/a b", "empty", "")
	got := b.take()
	if !strings.Contains(got, `path="/tmp/a b"`) || !strings.Contains(got, `empty=""`) {
		t.Fatalf("got %q", got)
	}
}

// ConfigureLogger takes the -log-level names in any case and refuses
// anything else, leaving the level as it was.
func TestParseLevel(t *testing.T) {
	var b syncBuilder
	l := NewLogger(&b)
	for _, s := range []string{"debug", "info", "WARN", "Error"} {
		if err := ConfigureLogger(l, s, "text"); err != nil {
			t.Fatalf("ConfigureLogger(%q): %v", s, err)
		}
	}
	if err := ConfigureLogger(l, "loud", "text"); err == nil {
		t.Fatal("ConfigureLogger accepted garbage")
	}
	l.Warn("hidden")
	l.Error("shown")
	if got := b.take(); strings.Contains(got, "hidden") || !strings.Contains(got, "shown") {
		t.Fatalf("level moved by a refused name: %q", got)
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var b syncBuilder
	l := NewLogger(&b)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := l.With("worker", i)
			for j := 0; j < 200; j++ {
				cl.Info("tick", "j", j)
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(b.take(), "\n"), "\n")
	if len(lines) != 1600 {
		t.Fatalf("got %d lines, want 1600", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "time=") || !strings.Contains(ln, "msg=tick") {
			t.Fatalf("torn line %q", ln)
		}
	}
}
