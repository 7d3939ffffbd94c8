// Package gofmm is a Go implementation of GOFMM — the geometry-oblivious
// fast multipole method of Yu, Levitt, Reiz & Biros (SC'17) — for
// compressing arbitrary dense symmetric positive definite (SPD) matrices
// into hierarchical (H-matrix) form and evaluating fast matrix-vector
// products.
//
// The only thing GOFMM needs from your matrix is an entry oracle:
//
//	type SPD interface {
//	    Dim() int
//	    At(i, j int) float64
//	}
//
// No point coordinates and no kernel function are required. Because an SPD
// matrix is the Gram matrix of some (unknown) set of vectors, distances
// between matrix indices can be defined purely algebraically
// (d²ij = Kii + Kjj − 2Kij, or the Gram angle 1 − K²ij/(KiiKjj)); those
// distances drive the hierarchical clustering, neighbor search, near–far
// pruning and importance sampling of a classical FMM.
//
// Quickstart:
//
//	K := gofmm.NewDense(myMatrix)              // or any SPD implementation
//	H, err := gofmm.Compress(K, gofmm.Config{
//	    LeafSize: 256, MaxRank: 256, Tol: 1e-5, Budget: 0.03,
//	})
//	U := H.Matvec(W)                           // ≈ K·W in O(N·r) time
//	eps := H.SampleRelErr(W, U, 100, 0)        // sampled relative error
//
// See the examples directory for runnable programs and DESIGN.md for the
// mapping between this library and the paper.
package gofmm

import (
	"context"
	"io"

	"gofmm/internal/core"
	"gofmm/internal/hss"
	"gofmm/internal/linalg"
	"gofmm/internal/plan"
	"gofmm/internal/resilience"
	"gofmm/internal/sched"
	"gofmm/internal/telemetry"
)

// Matrix is a dense column-major matrix (element (i,j) at Data[j*Stride+i]).
type Matrix = linalg.Matrix

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix { return linalg.NewMatrix(r, c) }

// FromRows builds a matrix from row slices (copying).
func FromRows(rows [][]float64) *Matrix { return linalg.FromRows(rows) }

// Eye returns the n×n identity.
func Eye(n int) *Matrix { return linalg.Eye(n) }

// SPD is the entry oracle GOFMM compresses: a dimension and sampled entries.
// Implementations may additionally provide
//
//	Submatrix(I, J []int, dst *Matrix)
//
// (the Bulk interface) as a block-gather fast path, and
//
//	Column(I []int, j int, dst []float64)
//
// which fills dst[r] = At(I[r], j) with At's exact bits in one call. The
// neighbor search and the tree split read their distances through Column
// when the oracle has it, one call per column instead of one per entry.
type SPD = core.SPD

// Bulk is the optional block-gather fast path.
type Bulk = core.Bulk

// Config collects GOFMM's tuning parameters (§3 of the paper): leaf size m,
// maximum rank s, adaptive tolerance τ, neighbor count κ, the budget that
// bounds direct evaluations (0 ⇒ HSS), the distance definition, and the
// parallel execution strategy.
type Config = core.Config

// Hierarchical is a compressed SPD matrix K̃ = D + S + UV supporting fast
// Matvec, batched multi-RHS Matmat, error estimation, and structural
// inspection.
type Hierarchical = core.Hierarchical

// Stats aggregates per-phase times, flop counts, average skeleton rank and
// direct-evaluation volume.
type Stats = core.Stats

// Distance selects how index-to-index distances are defined.
type Distance = core.Distance

// Distance values.
const (
	// Angle is the Gram angle distance (geometry-oblivious, default).
	Angle = core.Angle
	// Kernel is the Gram ℓ₂ distance (geometry-oblivious).
	Kernel = core.Kernel
	// Geometric uses point coordinates (requires Config.Points).
	Geometric = core.Geometric
	// Lexicographic keeps the input order (no permutation).
	Lexicographic = core.Lexicographic
	// RandomPerm applies a random permutation.
	RandomPerm = core.RandomPerm
)

// ExecMode selects the shared-memory execution strategy.
type ExecMode = core.ExecMode

// ExecMode values.
const (
	// Dynamic is the task runtime with HEFT scheduling and work stealing.
	Dynamic = core.Dynamic
	// LevelByLevel synchronizes with a barrier per tree level.
	LevelByLevel = core.LevelByLevel
	// TaskDepend emulates `omp task depend` (DAG + FIFO queue).
	TaskDepend = core.TaskDepend
	// Sequential runs the level-by-level traversals on one worker, the
	// calling goroutine (reference).
	Sequential = core.Sequential
)

// WorkerSpec describes one worker of a heterogeneous pool (speed factor,
// task batch size, stealing policy, accelerator flag).
type WorkerSpec = sched.WorkerSpec

// Compress builds the hierarchical approximation of K (Algorithm 2.2:
// neighbor search, metric tree, near/far lists, nested skeletonization).
func Compress(K SPD, cfg Config) (*Hierarchical, error) { return core.Compress(K, cfg) }

// CompressCtx is Compress with cancellation and deadline support: the
// returned error wraps ErrCancelled or ErrTimeout when ctx fires mid-phase.
func CompressCtx(ctx context.Context, K SPD, cfg Config) (*Hierarchical, error) {
	return core.CompressCtx(ctx, K, cfg)
}

// ExactMatvec computes K·W exactly from entries in O(N²·r) — the dense
// baseline (use for verification on small problems).
func ExactMatvec(K SPD, W *Matrix) *Matrix { return core.ExactMatvec(K, W) }

// dense adapts a *Matrix into an SPD oracle with the bulk fast path.
type dense struct{ m *Matrix }

func (d dense) Dim() int            { return d.m.Rows }
func (d dense) At(i, j int) float64 { return d.m.At(i, j) }
func (d dense) Submatrix(I, J []int, dst *Matrix) {
	for c, j := range J {
		d.Column(I, j, dst.Col(c))
	}
}
func (d dense) Column(I []int, j int, dst []float64) {
	src := d.m.Col(j)
	for r, i := range I {
		dst[r] = src[i]
	}
}

// NewDense wraps an in-memory symmetric matrix as an SPD oracle.
func NewDense(m *Matrix) SPD { return dense{m} }

// Factorization is a hierarchical direct solver for a compressed operator
// (recursive Schur elimination through the skeleton hierarchy): Solve(B)
// returns K̃⁻¹·B in O(N·s²). This implements the paper's stated future work
// ("the hierarchical matrix factorization based on our method").
type Factorization = hss.Factorization

// ErrNotHSS is returned by Factor for compressions with a sparse correction.
var ErrNotHSS = hss.ErrNotHSS

// Factor builds a direct solver for an HSS-mode compression (Budget 0).
// Use it to solve K̃x = b directly, or as a preconditioner for CG on the
// exact matrix (see examples/fastsolve). A diagonal block that lost
// positive definiteness to compression error is rescued with escalating
// diagonal regularization; the perturbation is reported in
// Factorization.Jitter and Factorization.RegularizedNodes.
func Factor(h *Hierarchical) (*Factorization, error) {
	return FactorCtx(context.Background(), h)
}

// FactorCtx is Factor with cancellation and deadline support.
func FactorCtx(ctx context.Context, h *Hierarchical) (*Factorization, error) {
	hs, err := hss.FromGOFMM(h)
	if err != nil {
		return nil, err
	}
	return hs.FactorCtx(ctx)
}

// --- Resilience ---------------------------------------------------------

// Typed error taxonomy. Every failure surfaced by the ctx-aware API wraps
// one of these sentinels (test with errors.Is); legacy entry points keep
// their original panic/error behavior.
var (
	// ErrCancelled wraps failures caused by context cancellation.
	ErrCancelled = resilience.ErrCancelled
	// ErrTimeout wraps failures caused by a context deadline.
	ErrTimeout = resilience.ErrTimeout
	// ErrStalled is reported by the scheduler watchdog for deadlocked or
	// hung DAG execution, together with the stuck task frontier.
	ErrStalled = resilience.ErrStalled
	// ErrTaskFailed marks a scheduler task whose retry budget ran out.
	ErrTaskFailed = resilience.ErrTaskFailed
	// ErrTolerance is returned under DegradeStrict when a node cannot reach
	// the requested tolerance at MaxRank.
	ErrTolerance = resilience.ErrTolerance
	// ErrInvalidInput marks rejected arguments (dimension mismatches, nil
	// operands) that previously panicked.
	ErrInvalidInput = resilience.ErrInvalidInput
	// ErrBadOracle is returned by Compress when oracle validation finds
	// NaN/Inf entries, asymmetry, or non-positive diagonals.
	ErrBadOracle = core.ErrBadOracle
	// ErrNotSPD is the root cause wrapped by factorization failures that
	// even escalating regularization could not rescue.
	ErrNotSPD = linalg.ErrNotSPD
)

// PanicError is the typed error a recovered worker panic is converted to;
// it carries the task label, the panic value, and the stack.
type PanicError = resilience.PanicError

// DegradeMode selects what happens when a node cannot reach Config.Tol at
// Config.MaxRank (see Config.Degrade).
type DegradeMode = core.DegradeMode

// DegradeMode values.
const (
	// DegradeTruncate accepts the rank-MaxRank truncation (default; the
	// paper's behavior — the sampled error estimate reports the damage).
	DegradeTruncate = core.DegradeTruncate
	// DegradeDense stores the node exactly (identity interpolation) instead
	// of a too-lossy skeleton; flagged in Inspect and counted in Stats.
	DegradeDense = core.DegradeDense
	// DegradeStrict fails the compression with ErrTolerance.
	DegradeStrict = core.DegradeStrict
)

// ChaosConfig configures the deterministic fault-injection harness:
// seedable probabilities for scheduler task failures and oracle-entry
// poisoning.
type ChaosConfig = resilience.ChaosConfig

// Chaos is a deterministic fault injector; attach via Config.Chaos. Nil is
// inert. Injection decisions are pure functions of (seed, site),
// independent of goroutine interleaving.
type Chaos = resilience.Chaos

// NewChaos builds a fault injector recording injection counts to rec
// (rec may be nil).
func NewChaos(cfg ChaosConfig, rec *Recorder) *Chaos { return resilience.NewChaos(cfg, rec) }

// Recorder is the telemetry sink for compression, evaluation and solver
// runs: a hierarchical span tracer plus a registry of named counters,
// gauges and histograms. Attach one via Config.Telemetry (nil disables all
// recording at zero overhead), then export with
// WriteChromeTrace (Perfetto/chrome://tracing timeline), WriteMetricsJSON
// (structured snapshot) or Report (human-readable phase tree).
type Recorder = telemetry.Recorder

// NewRecorder returns an empty telemetry recorder.
func NewRecorder() *Recorder { return telemetry.New() }

// FlightRecorder is the bounded post-mortem ring over a Recorder: the last
// N completed spans, the recorded errors, and a metrics snapshot, dumped as
// JSON (schema gofmm.flight/v1) automatically from the panic/stall/deadlock
// crash paths (set a dump directory with SetDumpDir) or on demand. The live
// debug server serves the same dump at POST /debug/flightrecord.
type FlightRecorder = telemetry.FlightRecorder

// NewFlightRecorder attaches a flight recorder retaining the last n span
// completions to rec (nil rec returns a nil, inert recorder).
func NewFlightRecorder(rec *Recorder, n int) *FlightRecorder {
	return telemetry.NewFlightRecorder(rec, n)
}

// ContextWithTraceID returns ctx tagged with a request trace ID. The ID
// rides through MatvecCtx/MatmatCtx and the BatchEvaluator onto every span
// the request produces, linking coalesced requests to the batch flush that
// served them. An empty id returns ctx unchanged.
func ContextWithTraceID(ctx context.Context, id string) context.Context {
	return telemetry.ContextWithTraceID(ctx, id)
}

// TraceIDFrom extracts the trace ID from ctx ("" , false when untagged).
func TraceIDFrom(ctx context.Context) (string, bool) { return telemetry.TraceIDFrom(ctx) }

// NewTraceID mints a fresh random 16-hex-digit trace ID.
func NewTraceID() string { return telemetry.NewTraceID() }

// RunRecord is the stable machine-readable benchmark/run format
// (schema gofmm.bench/v1) shared by the benchmark harness, cmd/repro
// -benchjson and CI artifacts.
type RunRecord = telemetry.RunRecord

// NewRunRecord starts a named run record.
func NewRunRecord(name string) *RunRecord { return telemetry.NewRunRecord(name) }

// --- Batched evaluation --------------------------------------------------

// BatchEvaluator coalesces concurrent single-vector Matvec requests from
// many goroutines into Matmat calls: requests gather until
// BatchOptions.MaxBatch right-hand sides are pending or the oldest request
// has waited BatchOptions.MaxDelay, then one batched four-pass sweep serves
// the whole window and each caller receives exactly its own columns (or a
// typed error). Obtain one with Hierarchical.NewBatchEvaluator; Close stops
// the background flusher after a final drain. See the README "Batched
// evaluation" section for the window semantics.
type BatchEvaluator = core.BatchEvaluator

// BatchOptions configures a BatchEvaluator's coalescing window (max batch
// width, max delay); the zero value picks serving-oriented defaults.
type BatchOptions = core.BatchOptions

// BatchStats is a snapshot of a BatchEvaluator's coalescing counters
// (requests, columns, flushes).
type BatchStats = core.BatchStats

// ErrEvaluatorClosed is the typed error BatchEvaluator.Matvec returns for
// submissions after Close: they fail fast instead of hanging or panicking.
// Close itself is idempotent and safe to call concurrently with Matvec —
// requests accepted before Close are served by the closing drain, and
// every later submission gets this sentinel (dispatch with errors.Is).
var ErrEvaluatorClosed = core.ErrEvaluatorClosed

// Plan is a compiled evaluation plan: the four-pass N2S/S2S/S2N/L2L
// traversal lowered once into a flat, replayable schedule of kernel calls
// with pre-resolved buffer offsets. Compile one with
// Hierarchical.CompilePlan or CompilePlanCtx after Compress; subsequent
// Matvec/Matmat calls replay the plan instead of re-walking the tree. The
// tree interpreter remains available as the reference path through
// InterpMatvecCtx/InterpMatmatCtx.
type Plan = plan.Plan

// Save writes a compressed representation to w in the operator-store
// format (gofmm.store/v1): structure, skeletons, interpolation matrices,
// interaction lists, the cached blocks (one per symmetric pair) and the
// installed compiled plan — not the matrix oracle itself. It is the stream form of
// (*Hierarchical).SaveTo; LoadOperator reads the same bytes from a file.
func Save(h *Hierarchical, w io.Writer) error {
	_, err := h.WriteStore(w)
	return err
}

// Load reads a compressed representation written by Save (or SaveTo) and
// attaches it to the entry oracle K, which must have the stored dimension
// (a mismatch wraps ErrInvalidInput). Executor fields of the loaded Cfg
// default to sequential; adjust before calling Matvec if desired. Passing a
// nil oracle is allowed: the loaded operator evaluates from its cached
// blocks alone and returns a typed error from any path that would need
// fresh K(i,j) entries.
func Load(r io.Reader, K SPD) (*Hierarchical, error) { return core.ReadStore(r, K) }

// LoadOptions configures LoadOperator. See core.LoadOptions.
type LoadOptions = core.LoadOptions

// StoreInfo reports how a store-backed operator was loaded.
type StoreInfo = core.StoreInfo

// LoadOperator opens a gofmm.store/v1 operator store written by
// (*Hierarchical).SaveTo and returns a ready-to-serve oracle-free operator.
// With opts.Mmap set the arena is mapped read-only and matvecs run zero-copy
// straight out of the page cache; otherwise (or when mapping is unsupported)
// the file is read and verified portably. Call ReleaseStore (or keep the
// operator for the process lifetime) to unmap.
func LoadOperator(path string, opts LoadOptions) (*Hierarchical, *StoreInfo, error) {
	return core.LoadFrom(path, opts)
}
