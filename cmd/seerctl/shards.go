package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/fmg/seer/internal/shard"
)

// shardsResponse is seerd's /shards body.
type shardsResponse struct {
	Shards []shard.Info `json:"shards"`
	Health string       `json:"health"`
}

// printShards fetches /shards from seerd and renders
// one row per shard: lifecycle state, health, event count, queue
// occupancy, restart/replace history, stale serves, and sheds.
func printShards(w io.Writer, base string) error {
	body, err := call(http.MethodGet, base, "/shards", 5*time.Second)
	if err != nil {
		return err
	}
	var sr shardsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("decoding /shards: %w", err)
	}
	fmt.Fprintf(w, "# %s/shards — overall %s\n", strings.TrimRight(base, "/"), sr.Health)
	fmt.Fprintf(w, "%5s %-9s %-11s %10s %11s %8s %8s %6s %6s\n",
		"shard", "state", "health", "events", "queue", "restarts", "replaced", "stale", "sheds")
	for _, s := range sr.Shards {
		state := s.State
		if s.Draining {
			state += "*" // drain in flight
		}
		fmt.Fprintf(w, "%5d %-9s %-11s %10d %6d/%-4d %8d %8d %6d %6d\n",
			s.Shard, state, s.Health, s.Events, s.Queue, s.QueueCap,
			s.Restarts, s.Replaced, s.Stale, s.Sheds)
	}
	return nil
}

// drainShard asks seerd to drain and replace one shard:
// POST /shards/drain?shard=N. The daemon blocks until the migration
// finishes (final checkpoint written, replacement replayed), so the
// printed response is the completed outcome.
func drainShard(w io.Writer, base, arg string) error {
	if _, err := strconv.Atoi(arg); err != nil {
		return fmt.Errorf("drain needs a numeric shard index, got %q", arg)
	}
	body, err := call(http.MethodPost, base, "/shards/drain?shard="+url.QueryEscape(arg), 5*time.Minute)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}
