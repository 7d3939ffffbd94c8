package live

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gofmm/internal/resilience"
	"gofmm/internal/telemetry"
)

// get issues a request against the in-process handler (no sockets) and
// returns the recorded response.
func get(s *Server, method, target string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(method, target, nil))
	return rr
}

func TestMetricsEndpoint(t *testing.T) {
	rec := telemetry.New()
	rec.Counter("batch.flushes").Add(3)
	rec.Histogram("matvec.latency_ms").Observe(2.5)
	s := New(rec, nil)

	rr := get(s, http.MethodGet, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"gofmm_batch_flushes_total 3",
		`gofmm_matvec_latency_ms{quantile="0.5"}`,
		"gofmm_matvec_latency_ms_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// Scrapes are themselves counted, so the next scrape must show it.
	if body2 := get(s, http.MethodGet, "/metrics").Body.String(); !strings.Contains(body2, "gofmm_live_scrapes_total 2") {
		t.Fatalf("scrape counter missing:\n%s", body2)
	}
	if rr := get(s, http.MethodPost, "/metrics"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d", rr.Code)
	}
}

// TestConcurrentRegistrationDuringScrape hammers the recorder with 64
// goroutines registering fresh metrics while scrapes run — the -race gate
// for the snapshot/exposition path.
func TestConcurrentRegistrationDuringScrape(t *testing.T) {
	rec := telemetry.New()
	s := New(rec, nil)
	const goroutines = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec.Counter(fmt.Sprintf("c.%d.%d", g, i)).Add(1)
				rec.Gauge(fmt.Sprintf("g.%d", g)).Set(float64(i))
				rec.Histogram(fmt.Sprintf("h.%d", g)).Observe(float64(i + 1))
				sp := rec.StartSpan(fmt.Sprintf("span.%d", g))
				sp.SetAttr(telemetry.AttrTraceID, telemetry.NewTraceID())
				sp.End()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if rr := get(s, http.MethodGet, "/metrics"); rr.Code != http.StatusOK {
					t.Errorf("scrape under load: %d", rr.Code)
					return
				}
			}
		}
	}()
	// Wait for the writers, then stop the scraper.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	body := get(s, http.MethodGet, "/metrics").Body.String()
	if !strings.Contains(body, "gofmm_c_0_49_total 1") {
		t.Fatal("registered counter missing from final scrape")
	}
}

func TestHealthzReadyz(t *testing.T) {
	s := New(telemetry.New(), nil)
	if rr := get(s, http.MethodGet, "/healthz"); rr.Code != http.StatusOK || rr.Body.String() != "ok\n" {
		t.Fatalf("healthz = %d %q", rr.Code, rr.Body.String())
	}
	if rr := get(s, http.MethodGet, "/readyz"); rr.Code != http.StatusOK || rr.Body.String() != "ok\n" {
		t.Fatalf("readyz = %d %q", rr.Code, rr.Body.String())
	}

	s.SetReady(false)
	if rr := get(s, http.MethodGet, "/readyz"); rr.Code != http.StatusServiceUnavailable ||
		!strings.HasPrefix(rr.Body.String(), "not ready") {
		t.Fatalf("readyz after SetReady(false) = %d %q", rr.Code, rr.Body.String())
	}
	// Liveness does not follow the ready flag.
	if rr := get(s, http.MethodGet, "/healthz"); rr.Code != http.StatusOK {
		t.Fatalf("healthz while not ready = %d", rr.Code)
	}
	s.SetReady(true)
	if rr := get(s, http.MethodGet, "/readyz"); rr.Code != http.StatusOK {
		t.Fatalf("readyz after SetReady(true) = %d", rr.Code)
	}
}

func TestSpansReplayNDJSON(t *testing.T) {
	rec := telemetry.New()
	flight := telemetry.NewFlightRecorder(rec, 32)
	s := New(rec, flight)

	for i := 0; i < 5; i++ {
		sp := rec.StartSpan(fmt.Sprintf("op%d", i))
		sp.SetAttr(telemetry.AttrTraceID, fmt.Sprintf("%016d", i))
		sp.End()
	}
	rr := get(s, http.MethodGet, "/debug/spans?replay=3&limit=3")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var names []string
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		var ev telemetry.SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		names = append(names, ev.Name)
	}
	if len(names) != 3 || names[0] != "op2" || names[2] != "op4" {
		t.Fatalf("replayed %v, want [op2 op3 op4]", names)
	}

	if rr := get(s, http.MethodGet, "/debug/spans?limit=nope"); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad limit → %d", rr.Code)
	}
	if rr := get(s, http.MethodGet, "/debug/spans?replay=-2"); rr.Code != http.StatusBadRequest {
		t.Fatalf("negative replay → %d", rr.Code)
	}
}

func TestSpansLiveStream(t *testing.T) {
	rec := telemetry.New()
	s := New(rec, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	pr, pw := io.Pipe()
	req := httptest.NewRequest(http.MethodGet, "/debug/spans?limit=2", nil).WithContext(ctx)
	rr := &streamRecorder{header: http.Header{}, w: pw}
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer pw.Close()
		s.Handler().ServeHTTP(rr, req)
	}()
	// Give the handler a moment to subscribe, then complete two spans.
	time.Sleep(20 * time.Millisecond)
	rec.StartSpan("live1").End()
	rec.StartSpan("live2").End()

	sc := bufio.NewScanner(pr)
	var got []string
	for sc.Scan() {
		var ev telemetry.SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		got = append(got, ev.Name)
	}
	<-served
	if len(got) != 2 || got[0] != "live1" || got[1] != "live2" {
		t.Fatalf("streamed %v", got)
	}
}

// streamRecorder is a minimal flushing ResponseWriter backed by a pipe so
// the streaming handler's writes are observable before it returns.
type streamRecorder struct {
	header http.Header
	w      io.Writer
}

func (s *streamRecorder) Header() http.Header         { return s.header }
func (s *streamRecorder) WriteHeader(int)             {}
func (s *streamRecorder) Write(p []byte) (int, error) { return s.w.Write(p) }
func (s *streamRecorder) Flush()                      {}

func TestFlightRecordEndpoint(t *testing.T) {
	rec := telemetry.New()
	flight := telemetry.NewFlightRecorder(rec, 16)
	s := New(rec, flight)

	rec.StartSpan("before").End()
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/debug/flightrecord", nil)
	req.Header.Set("X-Trace-Id", "aaaabbbbccccdddd")
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	var d telemetry.FlightDump
	if err := json.Unmarshal(rr.Body.Bytes(), &d); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if d.Schema != telemetry.FlightDumpSchema || d.Reason != "manual" {
		t.Fatalf("dump header = %q/%q", d.Schema, d.Reason)
	}
	if len(d.Spans) == 0 || d.Spans[0].Name != "before" {
		t.Fatalf("dump spans = %+v", d.Spans)
	}
	// The dump request itself becomes a span carrying the header trace ID.
	found := false
	for _, ev := range flight.RecentSpans(0) {
		if ev.Name == "live.flightrecord" && ev.TraceID == "aaaabbbbccccdddd" {
			found = true
		}
	}
	if !found {
		t.Fatal("flightrecord span with X-Trace-Id not recorded")
	}

	if rr := get(s, http.MethodGet, "/debug/flightrecord"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET → %d", rr.Code)
	}
	if rr := get(New(telemetry.New(), nil), http.MethodPost, "/debug/flightrecord"); rr.Code != http.StatusNotFound {
		t.Fatalf("no recorder → %d", rr.Code)
	}
}

func TestIndexAndVars(t *testing.T) {
	s := New(telemetry.New(), nil)
	rr := get(s, http.MethodGet, "/")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "/metrics") {
		t.Fatalf("index = %d %q", rr.Code, rr.Body.String())
	}
	if rr := get(s, http.MethodGet, "/nope"); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown path → %d", rr.Code)
	}
	rr = get(s, http.MethodGet, "/debug/vars")
	var doc struct {
		Goroutines int                `json:"goroutines"`
		Telemetry  telemetry.Snapshot `json:"telemetry"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	if doc.Goroutines <= 0 || doc.Telemetry.Schema == "" {
		t.Fatalf("vars doc = %+v", doc)
	}
	if rr := get(s, http.MethodGet, "/debug/pprof/cmdline"); rr.Code != http.StatusOK {
		t.Fatalf("pprof cmdline → %d", rr.Code)
	}
}

func TestStartShutdownLifecycle(t *testing.T) {
	rec := telemetry.New()
	s := New(rec, nil)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Skipf("cannot bind localhost in this environment: %v", err)
	}
	addr := s.Addr()
	if addr == "" {
		t.Fatal("Addr empty after Start")
	}
	if err := s.Start(addr); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("double Start = %v", err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
}

// A started debug server carries the serving layer's limits: a client that
// trickles its headers or body, idles on a keep-alive connection or sends
// oversized headers cannot hold the port.
func TestStartedServerIsHardened(t *testing.T) {
	s := New(telemetry.New(), nil)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Skipf("cannot bind localhost in this environment: %v", err)
	}
	defer s.Shutdown(context.Background())
	s.ln.mu.Lock()
	srv := s.ln.srv
	s.ln.mu.Unlock()
	if srv.ReadHeaderTimeout != 10*time.Second || srv.ReadTimeout != debugReadTimeout ||
		srv.IdleTimeout != 60*time.Second || srv.MaxHeaderBytes != 1<<20 {
		t.Fatalf("http.Server limits: header %v, read %v, idle %v, max header %d bytes",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
}

func TestFeedDropOnSlowSubscriber(t *testing.T) {
	f := newSpanFeed()
	id, ch := f.subscribe(2)
	for i := 0; i < 10; i++ {
		f.publish(telemetry.SpanEvent{Name: fmt.Sprintf("e%d", i)})
	}
	// Only the buffer's worth arrives; the rest were dropped, not blocked on.
	if len(ch) != 2 {
		t.Fatalf("buffered %d, want 2", len(ch))
	}
	f.unsubscribe(id)
	if _, ok := <-ch; ok {
		// one queued event is fine; drain until close
		for range ch {
		}
	}
	f.close()
	if id2, ch2 := f.subscribe(1); id2 != -1 {
		t.Fatal("subscribe after close must refuse")
	} else if _, ok := <-ch2; ok {
		t.Fatal("post-close channel must be closed")
	}
}
