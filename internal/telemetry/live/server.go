package live

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gofmm/internal/resilience"
	"gofmm/internal/telemetry"
)

// Server is the live introspection endpoint set over one telemetry
// Recorder. Zero-dependency (stdlib only), embeddable two ways: Start/
// Shutdown run it on its own listener (the CLIs' -debug-addr), or Handler
// mounts the same routes inside another process's HTTP server (gofmmd's
// serving port).
//
// Endpoints:
//
//	GET  /metrics            Prometheus text exposition (0.0.4)
//	GET  /healthz            liveness: 200 "ok"
//	GET  /readyz             readiness: 200 while the ready flag is set
//	GET  /debug/vars         cmdline, memstats, goroutines, metrics snapshot
//	GET  /debug/pprof/*      stdlib profiling endpoints
//	GET  /debug/spans        completed spans as NDJSON (?replay=N&limit=K)
//	POST /debug/flightrecord flight-recorder dump as JSON
type Server struct {
	rec    *telemetry.Recorder
	flight *telemetry.FlightRecorder
	mux    *http.ServeMux
	feed   *spanFeed
	ready  atomic.Bool
	ln     Listener
}

// debugReadTimeout bounds how long a debug-port client may spend sending
// its request.
const debugReadTimeout = 30 * time.Second

// New builds a Server over rec (which may be nil: every endpoint still
// answers, exposing empty telemetry). flight, which may be nil, gives POST
// /debug/flightrecord a ring to dump and GET /debug/spans?replay=N history
// to replay. The server subscribes to the recorder's span-end feed
// immediately; spans completed before the first /debug/spans client
// connects are only visible via ?replay= when a flight recorder is
// attached.
func New(rec *telemetry.Recorder, flight *telemetry.FlightRecorder) *Server {
	s := &Server{rec: rec, flight: flight, feed: newSpanFeed()}
	s.ready.Store(true)
	rec.OnSpanEnd(s.feed.publish)

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/spans", s.handleSpans)
	mux.HandleFunc("/debug/flightrecord", s.handleFlightRecord)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the route set for mounting inside another server.
func (s *Server) Handler() http.Handler { return s.mux }

// SetReady sets the readiness flag /readyz reports. Servers start ready;
// a CLI run clears it while compressing and a serving drain clears it for
// good, so load balancers (or CI probes) can tell warm-up and drain from
// serving.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Start listens on addr (host:port; port 0 picks a free port) and serves in
// a background goroutine until Shutdown. Call Addr to learn the bound
// address.
func (s *Server) Start(addr string) error {
	return s.ln.Start(addr, s.mux, debugReadTimeout, s.rec)
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string { return s.ln.Addr() }

// Shutdown gracefully stops the server: in-flight requests get until ctx
// expires, live span subscribers are disconnected, and the serve goroutine
// is reaped. Safe to call without a prior Start and safe to call twice.
func (s *Server) Shutdown(ctx context.Context) error {
	s.feed.close() // wakes /debug/spans streamers so Shutdown is not stuck on them
	return s.ln.Shutdown(ctx)
}

// Listener runs one handler on its own TCP listener behind a hardened
// http.Server: header and body read timeouts bound slowloris clients, idle
// keep-alive connections are reaped, and request headers are capped. The
// zero value is ready to Start, and it may be started again after
// Shutdown.
type Listener struct {
	mu   sync.Mutex
	srv  *http.Server  // guarded by mu
	ln   net.Listener  // guarded by mu
	done chan struct{} // guarded by mu
}

// Start listens on addr (port 0 picks a free port) and serves h in a
// background goroutine until Shutdown. readTimeout bounds how long one
// request may spend sending its headers and body; serve errors are logged
// through rec's logger.
func (l *Listener) Start(addr string, h http.Handler, readTimeout time.Duration, rec *telemetry.Recorder) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ln != nil {
		return fmt.Errorf("live: already serving on %s: %w", l.ln.Addr(), resilience.ErrInvalidInput)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("live: listen %s: %w", addr, err)
	}
	l.ln = ln
	l.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTimeout,
		IdleTimeout:       60 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	l.done = make(chan struct{})
	go func(srv *http.Server, ln net.Listener, done chan struct{}) {
		defer close(done)
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			if lg := rec.Logger(); lg != nil {
				lg.Error("http server exited", "addr", ln.Addr().String(), "err", err.Error())
			}
		}
	}(l.srv, ln, l.done)
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (l *Listener) Addr() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ln == nil {
		return ""
	}
	return l.ln.Addr().String()
}

// Shutdown closes the listener after in-flight requests finish or ctx
// expires, and waits for the serve goroutine. Safe without Start and safe
// to call twice.
func (l *Listener) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	srv, done := l.srv, l.done
	l.srv, l.ln = nil, nil
	l.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Shutdown(ctx)
	<-done
	if err != nil {
		return fmt.Errorf("live: shutdown: %w", err)
	}
	return nil
}

// handleIndex lists the endpoints (text/plain, for humans with curl).
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `gofmm live introspection
  GET  /metrics            Prometheus text exposition
  GET  /healthz            liveness
  GET  /readyz             readiness
  GET  /debug/vars         process + telemetry snapshot (JSON)
  GET  /debug/pprof/       profiling index
  GET  /debug/spans        completed spans, NDJSON (?replay=N&limit=K)
  POST /debug/flightrecord flight-recorder dump (JSON)
`)
}

// handleMetrics renders the Prometheus exposition from a fresh snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.rec.Counter("live.scrapes").Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WritePrometheus(w, s.rec.Snapshot()); err != nil {
		// Headers are gone; all we can do is log.
		if l := s.rec.Logger(); l != nil {
			l.Warn("metrics scrape failed", "err", err.Error())
		}
	}
}

// handleHealthz answers liveness: a process that serves HTTP is alive.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers 200 "ok" while the ready flag is set and 503 "not
// ready" otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	s.handleHealthz(w, r)
}

// handleVars serves an expvar-style JSON document: process identity, memory
// statistics, goroutine count, and the full telemetry snapshot.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	doc := map[string]any{
		"cmdline":    os.Args,
		"goroutines": runtime.NumGoroutine(),
		"memstats":   ms,
		"telemetry":  s.rec.Snapshot(),
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		if l := s.rec.Logger(); l != nil {
			l.Warn("debug/vars encode failed", "err", err.Error())
		}
	}
}

// handleSpans streams completed spans as NDJSON. ?replay=N first emits the
// last N spans from the flight recorder's ring (when one is attached), then
// the stream goes live; ?limit=K closes the response after K events total —
// the knob that makes the endpoint usable from curl and CI without a
// timeout. The connection also closes when the client goes away or the
// server shuts down.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	replay, err := queryInt(r, "replay")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	emit := func(ev telemetry.SpanEvent) bool {
		if encErr := enc.Encode(ev); encErr != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		sent++
		return limit <= 0 || sent < limit
	}
	if replay > 0 {
		for _, ev := range s.flight.RecentSpans(replay) {
			if !emit(ev) {
				return
			}
		}
	}
	id, ch := s.feed.subscribe(256)
	if id >= 0 {
		defer s.feed.unsubscribe(id)
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !emit(ev) {
				return
			}
		}
	}
}

// queryInt parses a non-negative integer query parameter (0 when absent).
func queryInt(r *http.Request, key string) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("live: bad %s=%q: want non-negative integer: %w",
			key, raw, resilience.ErrInvalidInput)
	}
	return n, nil
}

// handleFlightRecord answers POST with a full flight-recorder dump as JSON.
// The request is itself recorded as a span (trace ID from the X-Trace-Id
// header when the caller sets one), so the dump action appears in the very
// history it captures.
func (s *Server) handleFlightRecord(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed (use POST)", http.StatusMethodNotAllowed)
		return
	}
	if s.flight == nil {
		http.Error(w, "no flight recorder attached", http.StatusNotFound)
		return
	}
	sp := s.rec.StartSpan("live.flightrecord")
	defer sp.End()
	sp.SetTraceIDFromContext(
		telemetry.ContextWithTraceID(r.Context(), r.Header.Get("X-Trace-Id")))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := s.flight.WriteDump(w, "manual"); err != nil {
		if l := s.rec.Logger(); l != nil {
			l.Warn("flight dump request failed", "err", err.Error())
		}
	}
}
