// Command bench is the repository's benchmark: four workloads that drive
// the public functions of core, plan, krylov, hss, store and serve from
// outside, check every output, and report end-to-end metrics (or, traced,
// per-layer ones). See README.md for the workloads and metric definitions.
//
//	bash bench/run.sh --workload krr-cg --seed 1 --seconds 10 --trace 0
//	go run . --workload all --seed 1              # from inside bench/
//	go run . compare A.jsonl B.jsonl
//	go run . median runs.jsonl > trajectory-line.jsonl
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit status is non-zero when any check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gofmm/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			if len(os.Args) != 4 {
				fatalf("usage: bench compare BASE.jsonl CHANGE.jsonl")
			}
			if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
				fatalf("compare: %v", err)
			}
			return
		case "median":
			if err := medianRecords(os.Stdout, os.Args[2:]); err != nil {
				fatalf("median: %v", err)
			}
			return
		}
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phases, in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "directory for the Chrome traces of --trace 1 (default .bench_build)")
	records := fs.String("records", "", "append each workload's run record to this JSON-lines file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		fatalf("%v", err)
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("usage: bench --workload <name|all> --seed N --seconds S --trace 0|1")
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		fatalf("%v", err)
	}
	// Two threads of work: the configured worker pools are two wide and the
	// serving load uses two connections; pinning GOMAXPROCS keeps the
	// runtime from spreading beyond that on larger machines.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	// Store files go to a scratch directory inside the working directory,
	// next to the build products, and are removed on exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatalf("scratch directory: %v", err)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fatalf("scratch directory: %v", err)
	}
	code := run(os.Stdout, ws, options{
		seed: *seed, phase: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, traceOut: *traceOut, records: *records, dir: work,
	})
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintf(os.Stderr, "bench: removing %s: %v\n", work, err)
	}
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(names, ", "))
}

// options are the settings of one invocation.
type options struct {
	seed     int64
	phase    time.Duration
	trace    bool
	toy      bool // smoke-test sizes
	traceOut string
	records  string
	dir      string
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes the workloads, prints their tables, records and the result
// line, and returns the exit status.
func run(w io.Writer, ws []workload, opts options) int {
	var total tally
	out := map[string]jsonMetric{}
	tab := endToEnd
	if opts.trace {
		tab = perLayer
	}
	complete := true
	for _, wl := range ws {
		res := runWorkload(context.Background(), w, wl, opts)
		total.add(res.t)
		fmt.Fprintf(w, "== %s: %d attempted, %d failed\n", wl.name, res.t.attempted, res.t.failed)
		for _, e := range res.t.errs {
			fmt.Fprintf(w, "   failure: %s\n", e)
		}
		for _, m := range tab {
			v, ok := res.metrics[m.name]
			if !ok {
				complete = false
				fmt.Fprintf(w, "   %-26s missing\n", m.name)
				continue
			}
			fmt.Fprintf(w, "   %-26s %14.6g %s\n", m.name, v, m.unit)
			key := m.name
			if len(ws) > 1 {
				key = wl.name + "/" + m.name
			}
			out[key] = jsonMetric{Value: v, Unit: m.unit}
		}
		if v, ok := res.metrics["op_tail_ms"]; ok && !opts.trace {
			fmt.Fprintf(w, "   %-26s %14.6g ms (p%g of %d samples, not gated)\n", "op_tail_ms", v,
				100*res.metrics["op.tail_q"], int(res.metrics["op.samples"]))
		}
		if err := writeRecordLine(w, res.record); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
		if opts.records != "" {
			if err := appendRecord(opts.records, res.record); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				complete = false
			}
		}
	}
	if total.attempted == 0 {
		total.attempted, total.failed = 1, 1
	}
	correct := complete && total.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, total.attempted, total.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rr *telemetry.RunRecord) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeRecordLine(f, rr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
