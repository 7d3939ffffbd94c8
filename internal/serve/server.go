package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/telemetry"
	"gofmm/internal/telemetry/live"
)

// Config assembles a serving endpoint over a Registry.
type Config struct {
	// Registry is the operator set to serve (required).
	Registry *Registry
	// Telemetry receives serve.* metrics and per-request spans (nil
	// disables recording).
	Telemetry *telemetry.Recorder
	// Quota is the per-tenant admission policy (zero RatePerSec disables).
	Quota QuotaConfig
	// Live, when set, is mounted on the same mux: /metrics, /healthz,
	// /readyz, /debug/*. Drain clears its ready flag.
	Live *live.Server
	// MaxBodyBytes bounds request bodies (default 64 MiB). Oversized
	// bodies fail with 400, not unbounded buffering.
	MaxBodyBytes int64
	// DefaultDeadline applies when a request carries no X-Deadline-Ms
	// header (default 30s). Every evaluation runs under a deadline: a
	// stuck kernel cannot pin a serving slot forever.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (default 5m).
	MaxDeadline time.Duration
	// ReadTimeout bounds how long one request may spend trickling its body
	// (slowloris protection; default 30s). Applied by Start's listener;
	// Handler-mounted deployments configure their own http.Server.
	ReadTimeout time.Duration
	// Now is the quota clock (tests inject a fake; nil means time.Now).
	Now func() time.Time
	// Admin, when set, mounts the store-backed operator administration
	// endpoints (POST/DELETE /admin/operators/{name}) — see AdminConfig.
	Admin *AdminConfig
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	return c
}

// Server is the HTTP serving layer.
//
// Endpoints:
//
//	GET  /v1/operators                  registered operators (JSON)
//	POST /v1/operators/{name}/matvec    U = K·w
//	POST /v1/operators/{name}/matmat    U = K·X (multi-RHS)
//	POST /v1/operators/{name}/solve     U = K⁻¹·b (HSS operators)
//
// plus the live introspection set when Config.Live is mounted. Request
// bodies are JSON ({"vector": [...]} or {"columns": [[...], ...]}) or raw
// little-endian float64 columns (Content-Type: application/octet-stream);
// responses mirror the request's encoding. Headers: X-Tenant selects the
// quota bucket, X-Deadline-Ms propagates the client deadline into the
// evaluation context, X-Trace-Id threads the caller's trace through every
// span the request produces (minted and echoed back when absent).
type Server struct {
	cfg    Config
	reg    *Registry
	rec    *telemetry.Recorder
	quotas *quotas
	mux    *http.ServeMux

	mu       sync.Mutex
	draining bool          // guarded by mu
	inflight int           // guarded by mu
	idle     chan struct{} // closed when draining and inflight == 0

	ln live.Listener
}

// NewServer builds the serving mux over cfg.Registry.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil {
		return nil, fmt.Errorf("%w: serve: Config.Registry is required", resilience.ErrInvalidInput)
	}
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Registry,
		rec:    cfg.Telemetry,
		quotas: newQuotas(cfg.Quota, cfg.Now),
		idle:   make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/operators", s.handleList)
	mux.HandleFunc("POST /v1/operators/{name}/{op}", s.handleEval)
	if cfg.Admin != nil {
		if cfg.Admin.StoreDir == "" || cfg.Admin.EvalCtx == nil {
			return nil, fmt.Errorf("%w: serve: AdminConfig needs StoreDir and EvalCtx",
				resilience.ErrInvalidInput)
		}
		mux.HandleFunc("POST /admin/operators/{name}", s.handleAdminLoad)
		mux.HandleFunc("DELETE /admin/operators/{name}", s.handleAdminDelete)
	}
	if cfg.Live != nil {
		mux.Handle("/metrics", cfg.Live.Handler())
		mux.Handle("/healthz", cfg.Live.Handler())
		mux.Handle("/readyz", cfg.Live.Handler())
		mux.Handle("/debug/", cfg.Live.Handler())
	}
	s.mux = mux
	return s, nil
}

// Handler returns the route set for mounting inside another server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start serves on addr (port 0 picks a free port) behind live.Listener's
// hardened http.Server, with Config.ReadTimeout as its read timeout.
func (s *Server) Start(addr string) error {
	return s.ln.Start(addr, s.mux, s.cfg.ReadTimeout, s.rec)
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string { return s.ln.Addr() }

// Drain performs the graceful half of shutdown: clear the live server's
// ready flag (so /readyz answers 503 before admission closes), stop
// admitting (new requests get 503 ErrDraining), wait for every in-flight
// request to be answered, then close the registry so each BatchEvaluator
// runs its final flush. The elapsed time lands in the serve.drain_ms
// gauge. Bounded by ctx: on expiry it returns a typed timeout but still
// closes the registry — a drain deadline means "stop now", not "keep
// serving". Idempotent; concurrent calls all wait.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	if s.cfg.Live != nil {
		s.cfg.Live.SetReady(false)
	}
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	if first && s.inflight == 0 {
		close(s.idle)
	}
	s.mu.Unlock()
	var err error
	select {
	case <-s.idle:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain interrupted with requests in flight: %w",
			resilience.FromContext(ctx))
	}
	if first {
		s.reg.Close()
		s.rec.Gauge("serve.drain_ms").Set(time.Since(start).Seconds() * 1e3)
	}
	return err
}

// Shutdown closes the listener after in-flight requests finish (call Drain
// first for the full graceful sequence). Safe without Start and safe to
// call twice.
func (s *Server) Shutdown(ctx context.Context) error { return s.ln.Shutdown(ctx) }

// begin registers an in-flight request unless draining. It returns the
// matching end function, or a typed error when admission is closed.
func (s *Server) begin() (func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.inflight++
	return s.end, nil
}

func (s *Server) end() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		close(s.idle)
	}
	s.mu.Unlock()
}

// handleList answers GET /v1/operators.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type opInfo struct {
		Name    string `json:"name"`
		Dim     int    `json:"dim"`
		Matmat  bool   `json:"matmat"`
		Solve   bool   `json:"solve"`
		Breaker string `json:"breaker"`
	}
	var out struct {
		Operators []opInfo `json:"operators"`
	}
	for _, name := range s.reg.Names() {
		op, err := s.reg.Get(name)
		if err != nil {
			continue
		}
		out.Operators = append(out.Operators, opInfo{
			Name: op.Name(), Dim: op.Dim(),
			Matmat: op.CanMatmat(), Solve: op.CanSolve(),
			Breaker: op.BreakerState().String(),
		})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		if l := s.rec.Logger(); l != nil {
			l.Warn("serve: list encode failed", "err", err.Error())
		}
	}
}

// handleEval serves POST /v1/operators/{name}/{op}. The full request path:
// drain gate → operator lookup → trace/deadline propagation → body decode
// (bounded) → tenant quota → operator protection stack → response in the
// request's encoding.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.rec.Counter("serve.requests").Add(1)
	end, err := s.begin()
	if err != nil {
		s.writeError(w, r, err, "")
		return
	}
	defer end()

	name, what := r.PathValue("name"), r.PathValue("op")
	tid := r.Header.Get("X-Trace-Id")
	if tid == "" {
		tid = telemetry.NewTraceID()
	}
	w.Header().Set("X-Trace-Id", tid)
	ctx := telemetry.ContextWithTraceID(r.Context(), tid)
	ctx, cancel, err := s.withDeadline(ctx, r)
	if err != nil {
		s.writeError(w, r, err, tid)
		return
	}
	defer cancel()

	sp := s.rec.StartSpan("serve.request")
	defer sp.End()
	sp.SetAttr(telemetry.AttrTraceID, tid)
	sp.SetAttr("operator", name)
	sp.SetAttr("op", what)

	op, err := s.reg.Get(name)
	if err != nil {
		s.writeError(w, r, err, tid)
		return
	}
	W, binaryIn, vectorIn, err := s.readBody(w, r, op.Dim())
	if err != nil {
		s.writeError(w, r, err, tid)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "anonymous"
	}
	if err := s.quotas.allow(tenant, float64(W.Cols)); err != nil {
		if HTTPStatus(err) == http.StatusTooManyRequests {
			s.rec.Counter("serve.quota_rejects").Add(1)
		}
		s.writeError(w, r, err, tid)
		return
	}
	var U *linalg.Matrix
	switch what {
	case "matvec":
		U, err = op.Matvec(ctx, W)
	case "matmat":
		U, err = op.Matmat(ctx, W)
	case "solve":
		U, err = op.Solve(ctx, W)
	default:
		err = fmt.Errorf("%w: unknown operation %q (want matvec|matmat|solve)",
			resilience.ErrInvalidInput, what)
	}
	if err != nil {
		sp.SetAttr("error", ErrKind(err))
		s.writeError(w, r, err, tid)
		return
	}
	s.writeResult(w, U, binaryIn, vectorIn)
}

// withDeadline derives the evaluation context: the client's X-Deadline-Ms
// (clamped to MaxDeadline) or DefaultDeadline when absent.
func (s *Server) withDeadline(ctx context.Context, r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultDeadline
	if raw := r.Header.Get("X-Deadline-Ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("%w: bad X-Deadline-Ms %q: want positive integer",
				resilience.ErrInvalidInput, raw)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, nil
}

// evalRequest is the JSON request/response body: exactly one of Vector
// (one column) or Columns (k columns, each of length dim) is set.
type evalRequest struct {
	Vector  []float64   `json:"vector,omitempty"`
	Columns [][]float64 `json:"columns,omitempty"`
}

// readBody decodes the request into an n×k matrix. JSON and raw
// little-endian float64 (application/octet-stream, k = size/8/dim columns)
// are accepted; the booleans report the encoding so the response mirrors
// it. The body is bounded by MaxBodyBytes before any decoding.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, dim int) (m *linalg.Matrix, binaryIn, vectorIn bool, err error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
		raw, rerr := readAll(body)
		if rerr != nil {
			return nil, false, false, rerr
		}
		if len(raw) == 0 || len(raw)%8 != 0 || (len(raw)/8)%dim != 0 {
			return nil, false, false, fmt.Errorf(
				"%w: binary body of %d bytes is not a whole number of %d-row float64 columns",
				resilience.ErrInvalidInput, len(raw), dim)
		}
		cols := len(raw) / 8 / dim
		m := linalg.NewMatrix(dim, cols)
		for j := 0; j < cols; j++ {
			col := m.Col(j)
			for i := range col {
				col[i] = math.Float64frombits(
					binary.LittleEndian.Uint64(raw[8*(j*dim+i):]))
			}
		}
		return m, true, cols == 1, nil
	}
	var req evalRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if derr := dec.Decode(&req); derr != nil {
		return nil, false, false, fmt.Errorf("%w: bad JSON body: %v", resilience.ErrInvalidInput, derr)
	}
	switch {
	case req.Vector != nil && req.Columns != nil:
		return nil, false, false, fmt.Errorf(`%w: body sets both "vector" and "columns"`,
			resilience.ErrInvalidInput)
	case req.Vector != nil:
		if len(req.Vector) != dim {
			return nil, false, false, fmt.Errorf("%w: vector has %d entries, operator dim is %d",
				resilience.ErrInvalidInput, len(req.Vector), dim)
		}
		m := linalg.NewMatrix(dim, 1)
		copy(m.Col(0), req.Vector)
		return m, false, true, nil
	case len(req.Columns) > 0:
		m := linalg.NewMatrix(dim, len(req.Columns))
		for j, col := range req.Columns {
			if len(col) != dim {
				return nil, false, false, fmt.Errorf(
					"%w: column %d has %d entries, operator dim is %d",
					resilience.ErrInvalidInput, j, len(col), dim)
			}
			copy(m.Col(j), col)
		}
		return m, false, false, nil
	default:
		return nil, false, false, fmt.Errorf(`%w: body needs "vector" or "columns"`,
			resilience.ErrInvalidInput)
	}
}

// readAll drains r fully, translating the MaxBytesReader overrun into the
// taxonomy.
func readAll(r io.Reader) ([]byte, error) {
	out, err := io.ReadAll(r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("%w: request body exceeds %d bytes",
				resilience.ErrInvalidInput, tooLarge.Limit)
		}
		return nil, fmt.Errorf("%w: reading body: %v", resilience.ErrInvalidInput, err)
	}
	return out, nil
}

// writeResult encodes U in the request's encoding.
func (s *Server) writeResult(w http.ResponseWriter, U *linalg.Matrix, binaryIn, vectorIn bool) {
	w.Header().Set("X-Cols", strconv.Itoa(U.Cols))
	if binaryIn {
		w.Header().Set("Content-Type", "application/octet-stream")
		buf := make([]byte, 8*U.Rows*U.Cols)
		for j := 0; j < U.Cols; j++ {
			col := U.Col(j)
			for i, v := range col {
				binary.LittleEndian.PutUint64(buf[8*(j*U.Rows+i):], math.Float64bits(v))
			}
		}
		if _, err := w.Write(buf); err != nil {
			s.logWriteErr(err)
		}
		return
	}
	var resp evalRequest
	if vectorIn && U.Cols == 1 {
		resp.Vector = append([]float64(nil), U.Col(0)...)
	} else {
		resp.Columns = make([][]float64, U.Cols)
		for j := 0; j < U.Cols; j++ {
			resp.Columns[j] = append([]float64(nil), U.Col(j)...)
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logWriteErr(err)
	}
}

// writeError maps err through the status taxonomy, attaches the
// Retry-After hint when one rides the error, and emits a structured JSON
// body clients can dispatch on.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error, tid string) {
	status := HTTPStatus(err)
	if hint, ok := resilience.RetryAfterHint(err); ok {
		secs := int64(hint / time.Second)
		if hint%time.Second != 0 {
			secs++ // ceil: never tell a client to return early
		}
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	body := map[string]string{"error": err.Error(), "kind": ErrKind(err)}
	if tid != "" {
		body["trace_id"] = tid
	}
	if encErr := json.NewEncoder(w).Encode(body); encErr != nil {
		s.logWriteErr(encErr)
	}
}

func (s *Server) logWriteErr(err error) {
	if l := s.rec.Logger(); l != nil {
		l.Warn("serve: response write failed", "err", err.Error())
	}
}
