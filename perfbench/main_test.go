package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The metric lists the program prints must be the ones BENCHMARK.json
// declares, in name and unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", what, len(declared), len(defs))
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "optimize", "--seconds", "0"},
		{"--workload", "optimize", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}
