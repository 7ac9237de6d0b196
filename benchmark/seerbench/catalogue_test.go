package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/fmg/seer/benchmark/ops"
)

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json's workload and
// metric lists
// in step with what the benchmark runs and prints.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	for _, c := range []struct {
		what       string
		json, code []string
	}{
		{"workloads", names(spec.Workloads), sorted(ops.Names)},
		{"end_to_end", names(spec.EndToEnd), sorted(endToEndCatalogue)},
		{"per_layer", names(spec.PerLayer), sorted(perLayerCatalogue)},
	} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark reports %v", c.what, c.json, c.code)
			continue
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s: BENCHMARK.json has %v, the benchmark reports %v", c.what, c.json, c.code)
				break
			}
		}
	}
}
