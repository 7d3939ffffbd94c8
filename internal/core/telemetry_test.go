package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
)

// instrumentedRun compresses a small Gaussian kernel with a recorder
// attached and runs one matvec, returning the recorder.
func instrumentedRun(t *testing.T, exec ExecMode) (*telemetry.Recorder, *Hierarchical) {
	t.Helper()
	rec := telemetry.New()
	h, _ := compressGauss(t, 300, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-7, Kappa: 8,
		Budget: 0.05, Distance: Kernel, Exec: exec, Seed: 5,
		NumWorkers: 2, Telemetry: rec,
	})
	rng := rand.New(rand.NewSource(7))
	h.Matvec(linalg.GaussianMatrix(rng, 300, 2))
	return rec, h
}

func TestTelemetryCompressSpans(t *testing.T) {
	rec, h := instrumentedRun(t, Dynamic)
	snap := rec.Snapshot()

	// Compression phases must appear as children of the "compress" span and
	// agree with the legacy Stats fields (same clock, same numbers).
	for phase, want := range map[string]float64{
		"ann":   h.Stats.ANNTime,
		"tree":  h.Stats.TreeTime,
		"lists": h.Stats.ListsTime,
		"skel":  h.Stats.SkelTime,
	} {
		got := rec.PhaseSeconds("compress", phase)
		if got <= 0 {
			t.Fatalf("missing compress/%s span", phase)
		}
		if got != want {
			t.Fatalf("compress/%s: span %gs vs Stats %gs", phase, got, want)
		}
	}
	if got := rec.PhaseSeconds("compress"); got != h.Stats.CompressTime {
		t.Fatalf("compress span %g vs Stats.CompressTime %g", got, h.Stats.CompressTime)
	}

	// The oracle wrapper must have counted entry traffic.
	if snap.Counters["oracle.entries"] == 0 {
		t.Fatal("oracle.entries counter is zero")
	}
	// Skeletonization must have filled the rank histogram.
	hs, ok := snap.Histograms["skel.rank"]
	if !ok || hs.Count == 0 {
		t.Fatal("skel.rank histogram missing or empty")
	}
	if hs.Max > float64(h.Cfg.MaxRank) {
		t.Fatalf("skel.rank max %g exceeds MaxRank %d", hs.Max, h.Cfg.MaxRank)
	}
}

// hasSpan reports whether the snapshot's span forest contains the path.
func hasSpan(spans []telemetry.SpanStat, path ...string) bool {
	for _, name := range path {
		var found *telemetry.SpanStat
		for i := range spans {
			if spans[i].Name == name {
				found = &spans[i]
				break
			}
		}
		if found == nil {
			return false
		}
		spans = found.Children
	}
	return true
}

func TestTelemetryMatvecPassesAllExecutors(t *testing.T) {
	for _, exec := range []ExecMode{Sequential, LevelByLevel, Dynamic, TaskDepend} {
		rec, _ := instrumentedRun(t, exec)
		spans := rec.Snapshot().Spans
		for _, pass := range []string{"N2S", "S2S", "S2N", "L2L"} {
			if !hasSpan(spans, "matvec", pass) {
				t.Fatalf("%v: missing matvec/%s span", exec, pass)
			}
		}
		snap := rec.Snapshot()
		if snap.Counters["matvec.calls"] != 1 {
			t.Fatalf("%v: matvec.calls = %d", exec, snap.Counters["matvec.calls"])
		}
		if snap.Counters["matvec.flops"] == 0 {
			t.Fatalf("%v: matvec.flops is zero", exec)
		}
	}
}

// The recorder's task events are the task trace: every execution of the
// compression, then of the matvec, so the last run's trace is the events
// after the compression's.
func TestTelemetryTaskEventsAndLastTrace(t *testing.T) {
	rec, _ := instrumentedRun(t, Dynamic)
	evs := rec.TaskEvents()
	if len(evs) == 0 {
		t.Fatal("no task events recorded")
	}
	kinds := map[string]bool{}
	for _, ev := range evs {
		if ev.Worker < 0 || ev.Worker >= 2 {
			t.Fatalf("task event worker %d out of range", ev.Worker)
		}
		kinds[taskPhase(ev.Name)] = true
	}
	for _, want := range []string{"SKEL", "COEF", "N2S", "S2S", "S2N", "L2L"} {
		if !kinds[want] {
			t.Fatalf("no task events of kind %s (have %v)", want, kinds)
		}
	}
	snap := rec.Snapshot()
	nc, nm := snap.Counters["sched.compress.tasks"], snap.Counters["sched.matvec.tasks"]
	if nc == 0 || nm == 0 {
		t.Fatal("scheduler task counters missing")
	}
	if int64(len(evs)) != nc+nm {
		t.Fatalf("%d task events, want %d compress + %d matvec", len(evs), nc, nm)
	}
	for i, ev := range evs {
		kind := taskPhase(ev.Name)
		if compressTask := kind == "SKEL" || kind == "COEF"; compressTask != (int64(i) < nc) {
			t.Fatalf("task event %d (%s) out of run order", i, ev.Name)
		}
	}
}

func TestTelemetryChromeTraceFromRealRun(t *testing.T) {
	rec, _ := instrumentedRun(t, Dynamic)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty chrome trace")
	}
	report := rec.Report()
	for _, want := range []string{"compress", "matvec", "skel.rank"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestTelemetryNilRecorderIsInert(t *testing.T) {
	// The zero-config path must behave exactly as before: no trace, no
	// panic, Stats still populated.
	h, _ := compressGauss(t, 200, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-7, Kappa: 8,
		Budget: 0.05, Distance: Kernel, Exec: Dynamic, Seed: 5,
		NumWorkers: 2,
	})
	rng := rand.New(rand.NewSource(7))
	h.Matvec(linalg.GaussianMatrix(rng, 200, 2))
	if h.Stats.CompressTime <= 0 || h.Stats.EvalTime <= 0 {
		t.Fatal("Stats not populated on the nil-recorder path")
	}
	if h.TelemetryReport() != "telemetry disabled\n" {
		t.Fatalf("unexpected nil report: %q", h.TelemetryReport())
	}
}
