package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-matrix", "K10", "-n", "200", "-m", "32", "-s", "32", "-r", "2", "-exec", "seq"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"matrix K10", "compression:", "evaluation (2 rhs)", "sampled relative error"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "chaos") {
		t.Fatalf("chaos output printed without chaos flags:\n%s", out)
	}
}

func TestRunStructureFlag(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-matrix", "G03", "-n", "128", "-m", "32", "-s", "32", "-r", "1",
		"-budget", "0.3", "-structure", "-exec", "seq"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "block structure") {
		t.Fatalf("structure block missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "#") {
		t.Fatal("structure grid missing dense marker")
	}
}

func TestRunAllDistancesAndExecutors(t *testing.T) {
	for _, dist := range []string{"angle", "kernel", "lexicographic", "random"} {
		var sb strings.Builder
		if err := run([]string{"-matrix", "K09", "-n", "128", "-m", "32", "-s", "16",
			"-r", "1", "-dist", dist, "-exec", "level", "-workers", "2"}, &sb); err != nil {
			t.Fatalf("dist %s: %v", dist, err)
		}
	}
	for _, ex := range []string{"dynamic", "level", "taskdep", "seq"} {
		var sb strings.Builder
		if err := run([]string{"-matrix", "K09", "-n", "128", "-m", "32", "-s", "16",
			"-r", "1", "-exec", ex}, &sb); err != nil {
			t.Fatalf("exec %s: %v", ex, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-matrix", "NOPE"}, &sb); err == nil {
		t.Fatal("expected error for unknown matrix")
	}
	if err := run([]string{"-dist", "NOPE", "-n", "64"}, &sb); err == nil {
		t.Fatal("expected error for unknown distance")
	}
	if err := run([]string{"-exec", "NOPE", "-n", "64"}, &sb); err == nil {
		t.Fatal("expected error for unknown executor")
	}
	// Geometric distance on a problem without points must fail cleanly.
	if err := run([]string{"-matrix", "G01", "-n", "64", "-dist", "geometric"}, &sb); err == nil {
		t.Fatal("expected error for geometric distance without points")
	}
}

func TestRunSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/k.store"
	var sb strings.Builder
	if err := run([]string{"-matrix", "K09", "-n", "128", "-m", "32", "-s", "16",
		"-r", "1", "-exec", "seq", "-store", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "operator store to") {
		t.Fatalf("store message missing:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"-matrix", "K09", "-n", "128", "-m", "32", "-s", "16",
		"-r", "1", "-exec", "seq", "-load", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "loaded compressed form") {
		t.Fatalf("load message missing:\n%s", sb.String())
	}
}

func TestRunTelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	metrics := filepath.Join(dir, "metrics.json")
	var sb strings.Builder
	err := run([]string{"-matrix", "K10", "-n", "200", "-m", "32", "-s", "32", "-r", "2",
		"-workers", "2", "-trace", trace, "-metrics", metrics, "-report"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"wrote Chrome trace", "wrote metrics snapshot", "compress", "counters:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Both artifacts must be valid JSON with the expected top-level shape.
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	data, err = os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if snap["schema"] != "gofmm.telemetry/v1" {
		t.Fatalf("metrics schema = %v", snap["schema"])
	}
}

func TestRunChaosFlags(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-matrix", "K05", "-n", "512", "-m", "64", "-s", "64", "-r", "2",
		"-budget", "0.03", "-workers", "4",
		"-chaos-seed", "3", "-chaos-task-fail", "0.05"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"chaos: seed 3", "chaos summary:", "recovered:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDegradeFlag(t *testing.T) {
	var sb strings.Builder
	// A full-rank random problem at tiny tolerance: strict mode must fail…
	err := run([]string{"-matrix", "K06", "-n", "256", "-m", "32", "-s", "8", "-tol", "1e-12",
		"-budget", "0", "-r", "1", "-exec", "seq", "-degrade", "strict"}, &sb)
	if err == nil {
		t.Fatal("expected strict-mode tolerance failure")
	}
	// …dense mode must succeed and report the fallbacks.
	sb.Reset()
	if err := run([]string{"-matrix", "K06", "-n", "256", "-m", "32", "-s", "8", "-tol", "1e-12",
		"-budget", "0", "-r", "1", "-exec", "seq", "-degrade", "dense"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "graceful degradation:") {
		t.Fatalf("degradation report missing:\n%s", sb.String())
	}
	if err := run([]string{"-degrade", "NOPE", "-n", "64"}, &sb); err == nil {
		t.Fatal("expected error for unknown degrade policy")
	}
}

func TestRunTimeoutFlag(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-matrix", "K05", "-n", "512", "-m", "32", "-s", "64", "-r", "2",
		"-timeout", "1ns"}, &sb)
	if err == nil {
		t.Fatal("expected deadline error with -timeout 1ns")
	}
}
