package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its sorted
// rendered label set (`{k="v",...}` or empty), and the sample value.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Key returns the name with the label set appended, the form scrape
// maps are keyed by.
func (s Sample) Key() string { return s.Name + s.Labels }

// ParseProm parses Prometheus text-format exposition (the subset
// /metrics emits: HELP/TYPE comments, samples with optional labels, no
// timestamps) into a key → value map. It is the consuming half of
// WritePrometheus, used by seerctl and by tests asserting on scrapes.
func ParseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: /metrics line %d: %v", lineNo, err)
		}
		out[s.Key()] = s.Value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// stripExemplar removes an OpenMetrics exemplar suffix
// (` # {trace_id="…"} value`) from a sample line. Label values here
// come from small closed sets that never contain " # " (DESIGN.md §12
// cardinality rules), so splitting on the marker is safe.
func stripExemplar(line string) string {
	if i := strings.Index(line, " # "); i >= 0 {
		return line[:i]
	}
	return line
}

// parseSample parses one sample line into name, canonical label string,
// and value.
func parseSample(line string) (Sample, error) {
	line = stripExemplar(line)
	var name, rest string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return Sample{}, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := canonLabels(line[i+1 : j])
		if err != nil {
			return Sample{}, err
		}
		rest = strings.TrimSpace(line[j+1:])
		v, err := parseValue(rest)
		if err != nil {
			return Sample{}, err
		}
		return Sample{Name: name, Labels: labels, Value: v}, nil
	}
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return Sample{}, fmt.Errorf("no value in %q", line)
	}
	name = line[:i]
	v, err := parseValue(strings.TrimSpace(line[i:]))
	if err != nil {
		return Sample{}, err
	}
	return Sample{Name: name, Value: v}, nil
}

func parseValue(s string) (float64, error) {
	// A trailing timestamp (which we never emit) would appear as a
	// second field; take the first.
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		s = s[:i]
	}
	switch s {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// canonLabels re-renders a label body with pairs sorted by key so that
// scrapes from different writers compare equal.
func canonLabels(body string) (string, error) {
	if strings.TrimSpace(body) == "" {
		return "", nil
	}
	var pairs []string
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return "", fmt.Errorf("bad label pair in %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		rest := body[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return "", fmt.Errorf("unquoted label value in %q", body)
		}
		// Find the closing quote, honoring backslash escapes.
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return "", fmt.Errorf("unterminated label value in %q", body)
		}
		pairs = append(pairs, fmt.Sprintf(`%s="%s"`, key, rest[1:end]))
		body = strings.TrimPrefix(strings.TrimSpace(rest[end+1:]), ",")
		body = strings.TrimSpace(body)
	}
	sort.Strings(pairs)
	return "{" + strings.Join(pairs, ",") + "}", nil
}
