package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// TestWorkloadsSmoke runs every workload at toy size, untraced and traced,
// and checks the result line, the run records and the Chrome traces.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	records := filepath.Join(dir, "runs.jsonl")
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		code := run(&out, workloads, options{seed: 3, phase: 500 * time.Millisecond, trace: traced,
			toy: true, dir: dir, traceOut: dir, records: records})
		res := lastLine(t, out.String())
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < len(workloads) {
			t.Fatalf("traced=%v: exit %d, result %+v\n%s", traced, code, res, out.String())
		}
		tab := endToEnd
		if traced {
			tab = perLayer
		}
		if len(res.Metrics) != len(tab)*len(workloads) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(tab)*len(workloads))
		}
		for _, wl := range workloads {
			for _, m := range tab {
				jm, ok := res.Metrics[wl.name+"/"+m.name]
				if !ok || jm.Unit != m.unit {
					t.Errorf("%s/%s: got %+v", wl.name, m.name, jm)
				}
			}
		}
	}
	recs, err := readRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*len(workloads) {
		t.Errorf("%d run records, want %d", len(recs), 2*len(workloads))
	}
	for _, wl := range workloads {
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+wl.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("%s trace: %v", wl.name, err)
		}
		names := map[string]bool{}
		for _, ev := range tr.TraceEvents {
			names[ev.Name] = true
		}
		// Bench spans sit above the program's own spans.
		for _, want := range []string{"bench:" + wl.name, "core:CompressCtx", "compress", "store:SaveTo"} {
			if !names[want] {
				t.Errorf("%s trace lacks span %q", wl.name, want)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json in
// step with the metric tables and workloads defined here.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json next to bench/: %v", err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, want %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []jm, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			better := "lower"
			if w.higherBetter {
				better = "higher"
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, g, w.name, w.unit, better)
			}
			if (g.Bound != nil) != (kind == "end_to_end") || g.Bound != nil && *g.Bound != w.bound {
				t.Errorf("%s %s: bound %v, want %v", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
