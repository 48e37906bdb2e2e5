package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at smoke scale:
// the benchmark cannot rot without `go test` noticing.
func TestSmoke(t *testing.T) {
	sc := scales["smoke"]
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			rep, err := runUntraced(w, 1, 1, sc, out)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.notes)
			}
			for _, d := range endToEnd {
				if rep.values[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, rep.values[d.name])
				}
			}
			if w.topo == topoSingle {
				hits, misses := rep.values["result_cache_hits"], rep.values["result_cache_misses"]
				if !w.hot && hits != 0 {
					t.Errorf("%d result-cache hits: the never-repeating mix repeated a text", int(hits))
				}
				if w.hot && misses > float64(clients*sc.HotPool) {
					t.Errorf("%d result-cache misses over a pool of %d texts: the pool does not stay cached", int(misses), sc.HotPool)
				}
			}

			rep, err = runTraced(w, 1, 1, sc, out)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("traced: %d of %d ops failed: %v", rep.failed, rep.attempted, rep.notes)
			}
			f, err := os.Open(filepath.Join(out, "trace-"+w.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans := 0
			for lines := bufio.NewScanner(f); lines.Scan(); spans++ {
				var s span
				if err := json.Unmarshal(lines.Bytes(), &s); err != nil {
					t.Fatalf("span %d: %v", spans, err)
				}
				if s.Span == "" || s.EndNS < s.StartNS {
					t.Fatalf("span %d is malformed: %+v", spans, s)
				}
			}
			if spans == 0 {
				t.Fatal("traced run wrote no span")
			}
		})
	}
}

// TestBenchmarkJSONAgrees pins BENCHMARK.json to the program's own
// tables of workloads and metrics.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	for what, pair := range map[string]struct {
		json []entry
		defs []metricDef
	}{"end_to_end": {spec.EndToEnd, endToEnd}, "per_layer": {spec.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.defs) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the program reports %d", what, len(pair.json), len(pair.defs))
		}
		for i, d := range pair.defs {
			if pair.json[i].Name != d.name || pair.json[i].Unit != d.unit {
				t.Errorf("%s metric %d is %v in BENCHMARK.json, %v in the program", what, i, pair.json[i], d)
			}
		}
	}
}
