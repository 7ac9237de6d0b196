package obs

import (
	"context"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// logSwitch is the level and format shared by a logger and every
// logger derived from it with With.
type logSwitch struct {
	level slog.LevelVar
	json  atomic.Bool
}

// logHandler writes each record through a text (key=value) or a JSON
// slog handler, chosen per record, so the format can change while the
// daemon runs. Both handlers write to the same writer, carry the same
// bound attributes, and read the shared level.
type logHandler struct {
	sw         *logSwitch
	text, json slog.Handler
}

func (h *logHandler) Enabled(_ context.Context, l slog.Level) bool {
	return l >= h.sw.level.Level()
}

func (h *logHandler) Handle(ctx context.Context, r slog.Record) error {
	if h.sw.json.Load() {
		return h.json.Handle(ctx, r)
	}
	return h.text.Handle(ctx, r)
}

func (h *logHandler) WithAttrs(as []slog.Attr) slog.Handler {
	return &logHandler{sw: h.sw, text: h.text.WithAttrs(as), json: h.json.WithAttrs(as)}
}

func (h *logHandler) WithGroup(name string) slog.Handler {
	return &logHandler{sw: h.sw, text: h.text.WithGroup(name), json: h.json.WithGroup(name)}
}

// oneLine cuts string and error values at their first newline, so a
// panic stack carried by an error never spans log lines.
func oneLine(_ []string, a slog.Attr) slog.Attr {
	switch v := a.Value.Any().(type) {
	case string:
		if s, _, cut := strings.Cut(v, "\n"); cut {
			a.Value = slog.StringValue(s)
		}
	case error:
		s, _, _ := strings.Cut(v.Error(), "\n")
		a.Value = slog.StringValue(s)
	}
	return a
}

// NewLogger returns a logger writing one line per record to w (nil
// means os.Stderr), at info level in slog's text form. Loggers derived
// from it with With share its level and format, and ConfigureLogger
// changes both while they run.
func NewLogger(w io.Writer) *slog.Logger {
	if w == nil {
		w = os.Stderr
	}
	sw := &logSwitch{}
	opts := &slog.HandlerOptions{Level: &sw.level, ReplaceAttr: oneLine}
	return slog.New(&logHandler{
		sw:   sw,
		text: slog.NewTextHandler(w, opts),
		json: slog.NewJSONHandler(w, opts),
	})
}

// ConfigureLogger sets the level (debug, info, warn or error) and the
// format (json, or text for anything else) of a logger built by
// NewLogger, and so of every logger derived from it. It returns an
// error for an unknown level, and leaves other loggers alone.
func ConfigureLogger(l *slog.Logger, level, format string) error {
	h, ok := l.Handler().(*logHandler)
	if !ok {
		return nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return err
	}
	h.sw.level.Set(lv)
	h.sw.json.Store(format == "json")
	return nil
}
