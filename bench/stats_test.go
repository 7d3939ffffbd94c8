package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gofmm/internal/telemetry"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v", got)
	}
	if got := spread([]float64{2, 2, 2}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {40, 0.75}, {100, 0.90}, {200, 0.95}, {500, 0.98}, {999, 0.98}, {1000, 0.99}, {5000, 0.99}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	secs := make([]float64, 200)
	for i := range secs {
		secs[i] = float64(i+1) / 1000
	}
	l := summarize(secs)
	if l.n != 200 || l.q != 0.95 || !near(l.p50, 100.5) || l.tail <= l.p50 {
		t.Errorf("summarize = %+v", l)
	}
}

func TestTally(t *testing.T) {
	var a, b tally
	a.record(nil)
	a.record(errors.New("wrong answer"))
	b.record(nil)
	for i := 0; i < 7; i++ {
		b.record(errors.New("refused"))
	}
	a.add(b)
	if a.attempted != 10 || a.failed != 8 {
		t.Errorf("tally = %d attempted, %d failed", a.attempted, a.failed)
	}
	if len(a.errs) != 5 || a.errs[0] != "wrong answer" {
		t.Errorf("kept failures %q", a.errs)
	}
}

func TestVerdict(t *testing.T) {
	lat := metric{name: "op_p50_ms", bound: 0.10}
	rate := metric{name: "rhs_per_s", higherBetter: true, bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		m            metric
		base, change []float64
		want         string
	}{
		{lat, steady, scaled(steady, 1.02), "same"},
		{lat, steady, scaled(steady, 1.20), "worse"},
		{lat, steady, scaled(steady, 0.80), "better"},
		{rate, steady, scaled(steady, 0.80), "worse"},
		{rate, steady, scaled(steady, 1.20), "better"},
		{lat, []float64{50, 150, 80, 120, 100}, []float64{100, 100, 100, 100, 100}, "unresolved"},
		// A wide spread does not hide a change that wins every run.
		{lat, []float64{150, 160, 170, 180, 200}, []float64{50, 60, 70, 80, 100}, "better"},
		{metric{name: "plan.ops"}, steady, steady, "-"},
		{metric{name: "plan.gflops_r1", higherBetter: true}, steady, scaled(steady, 2), "better"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.m.name, got, c.want)
		}
	}
}

func writeRecords(t *testing.T, path string, vals map[string][]float64) {
	t.Helper()
	var buf bytes.Buffer
	n := 0
	for _, vs := range vals {
		n = len(vs)
	}
	for i := 0; i < n; i++ {
		rr := telemetry.NewRunRecord("krr-cg")
		rr.Params["seed"] = i + 1
		for k, vs := range vals {
			rr.Metrics[k] = vs[i]
		}
		if err := writeRecordLine(&buf, rr); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareAndMedianRecords(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl"), filepath.Join(dir, "c.jsonl")
	writeRecords(t, a, map[string][]float64{"op_p50_ms": {100, 101, 99, 100, 102}, "eps2": {1e-3, 1e-3, 1e-3, 1e-3, 1e-3}})
	writeRecords(t, b, map[string][]float64{"op_p50_ms": {101, 100, 100, 99, 101}, "eps2": {1e-3, 1e-3, 1e-3, 1e-3, 1e-3}})
	writeRecords(t, c, map[string][]float64{"op_p50_ms": {130, 131, 129, 130, 132}, "eps2": {1e-3, 1e-3, 1e-3, 1e-3, 1e-3}})
	var out bytes.Buffer
	if err := compare(&out, a, b); err != nil {
		t.Fatalf("compare of equal runs: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "op_p50_ms") || strings.Contains(out.String(), "worse") {
		t.Errorf("compare output:\n%s", out.String())
	}
	out.Reset()
	if err := compare(&out, a, c); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 30%% slower change must read worse: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := medianRecords(&out, []string{a}); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateRunRecord(out.Bytes()); err != nil {
		t.Fatalf("median record: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), `"op_p50_ms":100`) || !strings.Contains(out.String(), `"runs":5`) {
		t.Errorf("median record: %s", out.String())
	}
	if _, err := readRecords(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("reading a missing file must fail")
	}
}
