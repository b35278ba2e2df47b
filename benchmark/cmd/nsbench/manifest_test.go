package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in this package are
// what nsbench prints. They must say the same thing.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, nsbench has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, nsbench has %q: %q", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, nsbench reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, nsbench has %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound):
				t.Errorf("%s %s: bound in BENCHMARK.json differs from nsbench's %v", kind, d.name, d.bound)
			case bounded && (d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound %v is outside (0, 0.25]", kind, d.name, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric name %s is used twice", d.name)
		}
		seen[d.name] = true
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
}

// The calibration server is the yardstick: it may import the standard
// library and nothing else, least of all the program it calibrates.
func TestEchoImportsOnlyTheStandardLibrary(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../../echo/main.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Imports) == 0 {
		t.Fatal("no imports parsed from the echo server")
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(path, "/")
		if first == "smalldb" || strings.Contains(first, ".") {
			t.Errorf("echo imports %s; it must stay standard library only", path)
		}
	}
}
