package e2e

import (
	"bytes"
	"fmt"
	"strconv"
)

// Entry is one /plan line: a file and the plan's cumulative bytes up to
// and including it.
type Entry struct {
	Path string
	Cum  int64
}

// scanPlan walks a /plan body ("rank reason size cum path" per line)
// and checks that the cumulative column never decreases. fn, when not
// nil, sees every entry.
func scanPlan(body []byte, fn func(path []byte, cum int64)) (int, error) {
	n := 0
	prev := int64(-1)
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		rest := line
		var field [4][]byte
		for k := range field {
			rest = bytes.TrimLeft(rest, " ")
			i := bytes.IndexByte(rest, ' ')
			if i < 0 {
				return n, fmt.Errorf("plan line %d: %q has fewer than five fields", n, line)
			}
			field[k], rest = rest[:i], rest[i+1:]
		}
		cum, err := strconv.ParseInt(string(field[3]), 10, 64)
		if err != nil {
			return n, fmt.Errorf("plan line %d: bad cumulative bytes in %q", n, line)
		}
		if cum < prev {
			return n, fmt.Errorf("plan line %d: cumulative bytes fall from %d to %d", n, prev, cum)
		}
		prev = cum
		if fn != nil {
			fn(rest, cum)
		}
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("empty plan")
	}
	return n, nil
}

// ParsePlan returns a checked /plan body's entries.
func ParsePlan(body []byte) ([]Entry, error) {
	var out []Entry
	_, err := scanPlan(body, func(path []byte, cum int64) {
		out = append(out, Entry{Path: string(path), Cum: cum})
	})
	return out, err
}

// MissFree is the hoard size that would have served every existing file
// referenced during a disconnection: the cumulative bytes at the
// deepest of paths in plan. Paths the plan lacks could not have been
// hoarded and are skipped.
func MissFree(plan []Entry, paths []string) int64 {
	want := make(map[string]bool, len(paths))
	for _, p := range paths {
		want[p] = true
	}
	var bytes int64
	for _, e := range plan {
		if want[e.Path] {
			bytes = e.Cum
		}
	}
	return bytes
}
