package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/fmg/seer/internal/config"
)

// printConfig fetches /debug/config from a running seerd or rumord and
// renders the active settings plus the last reload outcome as a
// one-screen table.
func printConfig(w io.Writer, base string) error {
	body, err := call(http.MethodGet, base, "/debug/config", 5*time.Second)
	if err != nil {
		return err
	}
	var dc struct {
		Generation uint64               `json:"generation"`
		ConfigFile string               `json:"config_file"`
		Settings   []config.KV          `json:"settings"`
		LastReload *config.ReloadStatus `json:"last_reload"`
	}
	if err := json.Unmarshal(body, &dc); err != nil {
		return fmt.Errorf("decoding /debug/config: %w", err)
	}
	fmt.Fprintf(w, "generation  %d\n", dc.Generation)
	if dc.ConfigFile != "" {
		fmt.Fprintf(w, "config file %s\n", dc.ConfigFile)
	}
	if lr := dc.LastReload; lr != nil {
		outcome := "applied"
		if !lr.OK {
			outcome = "REJECTED: " + lr.Err
		}
		fmt.Fprintf(w, "last reload %s (%s)\n", outcome, lr.At.Format(time.RFC3339))
	} else {
		fmt.Fprintln(w, "last reload never")
	}
	fmt.Fprintln(w)
	for _, kv := range dc.Settings {
		fmt.Fprintf(w, "%-28s %s\n", kv.Key, kv.Value)
	}
	return nil
}
