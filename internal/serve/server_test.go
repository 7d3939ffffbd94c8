package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/spdmat"
	"gofmm/internal/telemetry"
	"gofmm/internal/telemetry/live"
)

// testOperator compresses a small HSS-shaped problem once per test binary;
// the compression is deterministic, so sharing it across tests is safe.
var (
	testOpOnce sync.Once
	testOpH    *core.Hierarchical
	testOpErr  error
)

func compressedOperator(t *testing.T) *core.Hierarchical {
	t.Helper()
	testOpOnce.Do(func() {
		p, err := spdmat.Generate("K02", 256, 1)
		if err != nil {
			testOpErr = err
			return
		}
		testOpH, testOpErr = core.Compress(p.K, core.Config{
			LeafSize: 32, MaxRank: 32, Tol: 1e-6, Kappa: 8, Budget: 0,
			Exec: core.Sequential, NumWorkers: 2, Seed: 1, CacheBlocks: true,
		})
		if testOpErr == nil {
			// Compile the plan up front: registered operators always serve
			// the compiled replay (hierarchicalSpec compiles eagerly), so
			// direct h.Matvec references in tests must take the same path
			// regardless of which test touches the shared operator first.
			_, testOpErr = testOpH.CompilePlan()
		}
	})
	if testOpErr != nil {
		t.Fatalf("compressing test operator: %v", testOpErr)
	}
	return testOpH
}

// newTestServer stands up a full serving stack over the shared compressed
// operator plus any extra specs, with quotas driven by the fake clock.
func newTestServer(t *testing.T, quota QuotaConfig, lim Limits, extra ...OperatorSpec) (*Server, *Registry, *telemetry.Recorder, *fakeClock) {
	t.Helper()
	rec := telemetry.New()
	reg := NewRegistry(rec)
	h := compressedOperator(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if _, err := reg.RegisterHierarchical(ctx, "main", h,
		core.BatchOptions{MaxBatch: 8, MaxDelay: 100 * time.Microsecond}, lim); err != nil {
		t.Fatal(err)
	}
	for _, spec := range extra {
		if _, err := reg.Register(spec, lim); err != nil {
			t.Fatal(err)
		}
	}
	clk := newFakeClock()
	s, err := NewServer(Config{
		Registry:  reg,
		Telemetry: rec,
		Quota:     quota,
		Now:       clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return s, reg, rec, clk
}

func postJSON(t *testing.T, client *http.Client, url string, body any, hdr map[string]string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil && err != io.EOF {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, doc
}

func floats(t *testing.T, raw json.RawMessage) []float64 {
	t.Helper()
	var out []float64
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServeMatvecMatmatSolveCorrectness(t *testing.T) {
	s, _, _, _ := newTestServer(t, QuotaConfig{}, Limits{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	h := compressedOperator(t)
	n := h.N()
	rng := rand.New(rand.NewSource(3))
	W := linalg.GaussianMatrix(rng, n, 2)
	want := h.Matvec(W)

	// matvec (JSON vector in, vector out).
	resp, doc := postJSON(t, ts.Client(), ts.URL+"/v1/operators/main/matvec",
		map[string]any{"vector": W.Col(0)}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matvec status %d", resp.StatusCode)
	}
	got := floats(t, doc["vector"])
	for i, v := range got {
		if math.Abs(v-want.At(i, 0)) > 1e-10 {
			t.Fatalf("matvec[%d] = %g, want %g", i, v, want.At(i, 0))
		}
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("no trace ID minted")
	}

	// matmat (columns in, columns out).
	cols := [][]float64{append([]float64(nil), W.Col(0)...), append([]float64(nil), W.Col(1)...)}
	resp, doc = postJSON(t, ts.Client(), ts.URL+"/v1/operators/main/matmat",
		map[string]any{"columns": cols}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matmat status %d", resp.StatusCode)
	}
	var gotCols [][]float64
	if err := json.Unmarshal(doc["columns"], &gotCols); err != nil {
		t.Fatal(err)
	}
	for j := range gotCols {
		for i, v := range gotCols[j] {
			if math.Abs(v-want.At(i, j)) > 1e-10 {
				t.Fatalf("matmat[%d][%d] = %g, want %g", j, i, v, want.At(i, j))
			}
		}
	}

	// solve: K̃·x must reproduce b.
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	resp, doc = postJSON(t, ts.Client(), ts.URL+"/v1/operators/main/solve",
		map[string]any{"vector": b}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	x := linalg.NewMatrix(n, 1)
	copy(x.Col(0), floats(t, doc["vector"]))
	back := h.Matvec(x)
	var num, den float64
	for i := 0; i < n; i++ {
		num += (back.At(i, 0) - b[i]) * (back.At(i, 0) - b[i])
		den += b[i] * b[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-5 {
		t.Fatalf("solve residual %.3e", rel)
	}

	// Binary fast path round-trips and matches JSON.
	buf := make([]byte, 8*n)
	for i, v := range W.Col(0) {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/operators/main/matvec", bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/octet-stream")
	bresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK || bresp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("binary matvec: status %d, content-type %q", bresp.StatusCode, bresp.Header.Get("Content-Type"))
	}
	out, err := io.ReadAll(bresp.Body)
	if err != nil || len(out) != 8*n {
		t.Fatalf("binary response %d bytes, err %v", len(out), err)
	}
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(out[8*i:]))
		if math.Abs(v-want.At(i, 0)) > 1e-10 {
			t.Fatalf("binary matvec[%d] = %g, want %g", i, v, want.At(i, 0))
		}
	}
}

func TestServeErrorTaxonomy(t *testing.T) {
	s, _, _, clk := newTestServer(t, QuotaConfig{RatePerSec: 1, Burst: 2}, Limits{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	h := compressedOperator(t)
	n := h.N()
	vec := make([]float64, n)

	cases := []struct {
		name   string
		url    string
		body   any
		hdr    map[string]string
		status int
		kind   string
	}{
		{"unknown operator", "/v1/operators/nope/matvec", map[string]any{"vector": vec}, nil,
			http.StatusNotFound, "unknown_operator"},
		{"unknown op verb", "/v1/operators/main/transmogrify", map[string]any{"vector": vec}, nil,
			http.StatusBadRequest, "invalid_input"},
		{"dimension mismatch", "/v1/operators/main/matvec", map[string]any{"vector": vec[:5]}, nil,
			http.StatusBadRequest, "invalid_input"},
		{"empty body", "/v1/operators/main/matvec", map[string]any{}, nil,
			http.StatusBadRequest, "invalid_input"},
		{"both encodings", "/v1/operators/main/matvec",
			map[string]any{"vector": vec, "columns": [][]float64{vec}}, nil,
			http.StatusBadRequest, "invalid_input"},
		{"bad deadline header", "/v1/operators/main/matvec", map[string]any{"vector": vec},
			map[string]string{"X-Deadline-Ms": "soon"}, http.StatusBadRequest, "invalid_input"},
	}
	for _, tc := range cases {
		resp, doc := postJSON(t, ts.Client(), ts.URL+tc.url, tc.body, tc.hdr)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
			continue
		}
		var kind string
		_ = json.Unmarshal(doc["kind"], &kind)
		if kind != tc.kind {
			t.Errorf("%s: kind %q, want %q", tc.name, kind, tc.kind)
		}
	}

	// Tenant quota: burst of 2 columns, then 429 with Retry-After; an
	// independent tenant is unaffected.
	hdr := map[string]string{"X-Tenant": "alice"}
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/operators/main/matvec",
			map[string]any{"vector": vec}, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-quota request %d: status %d", i, resp.StatusCode)
		}
	}
	resp, doc := postJSON(t, ts.Client(), ts.URL+"/v1/operators/main/matvec",
		map[string]any{"vector": vec}, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var kind string
	_ = json.Unmarshal(doc["kind"], &kind)
	if kind != "quota_exceeded" {
		t.Fatalf("over-quota kind %q", kind)
	}
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/operators/main/matvec",
		map[string]any{"vector": vec}, map[string]string{"X-Tenant": "bob"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("independent tenant throttled: %d", resp.StatusCode)
	}
	clk.advance(10 * time.Second)
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/operators/main/matvec",
		map[string]any{"vector": vec}, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("refilled tenant still throttled: %d", resp.StatusCode)
	}

	// Trace IDs: the caller's ID is echoed back verbatim.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/operators/main/matvec",
		map[string]any{"vector": vec}, map[string]string{"X-Trace-Id": "cafe0123beef4567"})
	if got := resp.Header.Get("X-Trace-Id"); got != "cafe0123beef4567" {
		t.Fatalf("trace ID not echoed: %q", got)
	}
}

// A client-supplied deadline must propagate into the evaluation context
// and come back as 504 with a typed timeout kind.
func TestServeDeadlinePropagation(t *testing.T) {
	slow := OperatorSpec{
		Name: "slow", Dim: 4,
		Matvec: func(ctx context.Context, W *linalg.Matrix) (*linalg.Matrix, error) {
			select {
			case <-time.After(5 * time.Second):
				return linalg.NewMatrix(4, W.Cols), nil
			case <-ctx.Done():
				return nil, fmt.Errorf("slow op: %w", resilience.FromContext(ctx))
			}
		},
	}
	s, _, _, _ := newTestServer(t, QuotaConfig{}, Limits{}, slow)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	start := time.Now()
	resp, doc := postJSON(t, ts.Client(), ts.URL+"/v1/operators/slow/matvec",
		map[string]any{"vector": []float64{1, 2, 3, 4}},
		map[string]string{"X-Deadline-Ms": "50"})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not propagate: request took %v", elapsed)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var kind string
	_ = json.Unmarshal(doc["kind"], &kind)
	if kind != "timeout" {
		t.Fatalf("kind %q, want timeout", kind)
	}
}

func TestServeOperatorList(t *testing.T) {
	s, _, _, _ := newTestServer(t, QuotaConfig{}, Limits{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/operators")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Operators []struct {
			Name    string `json:"name"`
			Dim     int    `json:"dim"`
			Matmat  bool   `json:"matmat"`
			Solve   bool   `json:"solve"`
			Breaker string `json:"breaker"`
		} `json:"operators"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Operators) != 1 || doc.Operators[0].Name != "main" {
		t.Fatalf("operator list = %+v", doc.Operators)
	}
	op := doc.Operators[0]
	if op.Dim != compressedOperator(t).N() || !op.Matmat || !op.Solve || op.Breaker != "closed" {
		t.Fatalf("operator metadata = %+v", op)
	}
}

// Satellite: /readyz transitions under concurrent scrape during warm-up
// and drain. Scrapers hammer /readyz from many goroutines (this test is
// meaningful under -race) while the server walks not-ready → ready →
// draining; the probe must never report ready during warm-up or after
// drain begins.
func TestReadyzTransitionsUnderConcurrentScrape(t *testing.T) {
	rec := telemetry.New()
	lv := live.New(rec, nil)
	lv.SetReady(false) // warm-up

	reg := NewRegistry(rec)
	h := compressedOperator(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if _, err := reg.RegisterHierarchical(ctx, "main", h, core.BatchOptions{}, Limits{}); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Registry: reg, Telemetry: rec, Live: lv})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	scrape := func() (int, string) {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Errorf("scrape failed: %v", err)
			return 0, ""
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	var phase struct {
		sync.Mutex
		warm, drained bool
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Phase reads bracket the scrape: drained-before means the
				// drain flip fully preceded this scrape, and not-warm-after
				// means SetReady(true) cannot yet have happened — in both
				// windows the probe must report 503.
				phase.Lock()
				drainedBefore := phase.drained
				phase.Unlock()
				code, body := scrape()
				phase.Lock()
				warmAfter := phase.warm
				phase.Unlock()
				switch {
				case drainedBefore && code != http.StatusServiceUnavailable:
					t.Errorf("ready after drain completed: %d %q", code, body)
				case !warmAfter && code != http.StatusServiceUnavailable:
					t.Errorf("ready during warm-up: %d %q", code, body)
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // concurrent scrapes against warm-up
	phase.Lock()
	phase.warm = true
	phase.Unlock()
	lv.SetReady(true)

	// Serving window: /readyz must actually report ready.
	okDeadline := time.Now().Add(2 * time.Second)
	for {
		if code, _ := scrape(); code == http.StatusOK {
			break
		}
		if time.Now().After(okDeadline) {
			t.Fatal("/readyz never reported ready in the serving window")
		}
		time.Sleep(time.Millisecond)
	}

	// Drain: the flip must be visible to concurrent scrapers immediately
	// after Drain returns (and stay down).
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(dctx) }()
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	phase.Lock()
	phase.drained = true
	phase.Unlock()
	if code, body := scrape(); code != http.StatusServiceUnavailable ||
		!strings.HasPrefix(body, "not ready") {
		t.Fatalf("post-drain /readyz = %d %q, want 503 not ready", code, body)
	}
	time.Sleep(10 * time.Millisecond) // let scrapers observe the drained phase
	close(stop)
	wg.Wait()
}
