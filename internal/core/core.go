// Package core implements GOFMM (geometry-oblivious fast multipole method),
// the primary contribution of the paper: hierarchical low-rank compression
// K ≈ D + S + UV of an arbitrary dense SPD matrix using only sampled matrix
// entries, and the O(N)/O(N log N) matrix-vector evaluation on the
// compressed form.
//
// The compression pipeline follows Algorithm 2.2 of the paper:
//
//	(1–3) iterative randomized-tree all-nearest-neighbor search
//	(4)   metric ball tree build (kernel/angle/geometric distance)
//	(5–7) near and far interaction lists (LeafNear, FindFar, MergeFar)
//	(8–9) nested skeletonization (SKEL) and interpolation coefficients (COEF)
//	(10–11) optional caching of near blocks K_βα and far blocks K_β̃α̃
//
// and the evaluation follows Algorithm 2.7: N2S (nodes to skeletons), S2S
// (skeletons to skeletons), S2N (skeletons to nodes) and L2L (leaves to
// leaves). Both phases run level by level with barriers (on one worker,
// the calling goroutine, under Sequential) or out of order on the task
// runtime in internal/sched with HEFT or FIFO dispatch.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gofmm/internal/ann"
	"gofmm/internal/linalg"
	"gofmm/internal/metric"
	"gofmm/internal/plan"
	"gofmm/internal/resilience"
	"gofmm/internal/sched"
	"gofmm/internal/store"
	"gofmm/internal/telemetry"
	"gofmm/internal/tree"
	"gofmm/internal/workspace"
)

// SPD is the minimal access GOFMM requires from the input matrix: its
// dimension and an entry oracle. Every structural decision (permutation,
// pruning, sampling) is derived from these entries alone. Two optional fast
// paths give the same entries: Bulk gathers a block, and metric.Columns
// reads one column with At's bits.
type SPD interface {
	Dim() int
	At(i, j int) float64
}

// Bulk is an optional fast path for gathering submatrices K[I, J]. Dense
// matrices copy; kernel matrices evaluate blocks with a GEMM-style 2-norm
// expansion (the trick the paper uses on memory-limited platforms).
type Bulk interface {
	Submatrix(I, J []int, dst *linalg.Matrix)
}

// Gather fills dst (len(I)×len(J)) with K[I, J], using the Bulk fast path
// when available, else one column read per column.
func Gather(K SPD, I, J []int, dst *linalg.Matrix) {
	if dst.Rows != len(I) || dst.Cols != len(J) {
		panic("core: Gather destination shape mismatch")
	}
	if b, ok := K.(Bulk); ok {
		b.Submatrix(I, J, dst)
		return
	}
	for c, j := range J {
		readColumn(K, I, j, dst.Col(c))
	}
}

// readColumn fills dst[r] = K[I[r], j], through K's column read when it
// has one.
func readColumn(K SPD, I []int, j int, dst []float64) {
	if c, ok := K.(metric.Columns); ok {
		c.Column(I, j, dst)
		return
	}
	for r, i := range I {
		dst[r] = K.At(i, j)
	}
}

// NewGathered allocates and fills K[I, J].
func NewGathered(K SPD, I, J []int) *linalg.Matrix {
	dst := linalg.NewMatrix(len(I), len(J))
	Gather(K, I, J, dst)
	return dst
}

// Distance selects how index-to-index distances are defined (§2.1). Kernel
// and Angle are the geometry-oblivious Gram-space distances; Geometric
// requires coordinates; Lexicographic and Random define no distance at all
// (no neighbors, HSS-only — the Figure 7 baselines).
type Distance int

const (
	// Angle is the Gram angle distance 1 − K²ij/(Kii·Kjj) (the default).
	Angle Distance = iota
	// Kernel is the Gram ℓ₂ distance Kii + Kjj − 2Kij.
	Kernel
	// Geometric is the point distance ‖xi − xj‖; requires Config.Points.
	Geometric
	// Lexicographic keeps the input order (no permutation, no neighbors).
	Lexicographic
	// RandomPerm permutes uniformly at random (no neighbors).
	RandomPerm
)

func (d Distance) String() string {
	switch d {
	case Angle:
		return "angle"
	case Kernel:
		return "kernel"
	case Geometric:
		return "geometric"
	case Lexicographic:
		return "lexicographic"
	case RandomPerm:
		return "random"
	}
	return fmt.Sprintf("Distance(%d)", int(d))
}

// HasNeighbors reports whether the distance supports neighbor search (and
// therefore FMM-style sparse corrections and importance sampling).
func (d Distance) HasNeighbors() bool {
	return d == Angle || d == Kernel || d == Geometric
}

// ExecMode selects the parallel execution strategy for both compression and
// evaluation, matching the three schemes compared in Figure 4.
type ExecMode int

const (
	// Dynamic is the task runtime with HEFT scheduling and work stealing.
	Dynamic ExecMode = iota
	// LevelByLevel synchronizes with a barrier after every tree level.
	LevelByLevel
	// TaskDepend uses the task DAG with a plain FIFO queue (omp task depend).
	TaskDepend
	// Sequential runs the level-by-level traversals on one worker, the
	// calling goroutine; a compiled plan replays there too (reference).
	Sequential
)

func (e ExecMode) String() string {
	switch e {
	case Dynamic:
		return "dynamic"
	case LevelByLevel:
		return "level-by-level"
	case TaskDepend:
		return "task-depend"
	case Sequential:
		return "sequential"
	}
	return fmt.Sprintf("ExecMode(%d)", int(e))
}

// DegradeMode selects how compression responds when a node's sampled
// off-diagonal block cannot reach Tol at MaxRank — the numerical failure
// mode of the interpolative decomposition.
type DegradeMode int

const (
	// DegradeTruncate accepts the rank-MaxRank approximation and moves on
	// (the historical behavior; the miss is recorded in telemetry).
	DegradeTruncate DegradeMode = iota
	// DegradeDense falls back to exact storage for the failing node: all
	// candidate columns become the skeleton with identity interpolation.
	// Costlier but never less accurate than requested; the node is flagged
	// in Inspect and counted in Stats.DenseFallbacks.
	DegradeDense
	// DegradeStrict fails the whole compression with ErrTolerance.
	DegradeStrict
)

func (d DegradeMode) String() string {
	switch d {
	case DegradeTruncate:
		return "truncate"
	case DegradeDense:
		return "dense"
	case DegradeStrict:
		return "strict"
	}
	return fmt.Sprintf("DegradeMode(%d)", int(d))
}

// Config collects GOFMM's tuning parameters; zero values choose the paper's
// defaults (m=256, s=m, τ=1e-5, κ=32, 3% budget, angle distance).
type Config struct {
	// LeafSize is m, the leaf node size of the partition tree.
	LeafSize int
	// MaxRank is s, the maximum skeleton size per node.
	MaxRank int
	// Tol is τ, the adaptive-rank tolerance: skeletonization stops once the
	// estimated σ_{s+1} of the sampled off-diagonal block falls below
	// Tol·σ₁.
	Tol float64
	// Kappa is κ, the number of nearest neighbors per index.
	Kappa int
	// Budget bounds the sparse correction: |Near(β)| ≤ Budget·(N/m)
	// (Eq. 6). Budget 0 yields an HSS approximation (S = 0).
	Budget float64
	// Distance selects the index distance (default Angle).
	Distance Distance
	// Points holds coordinates as columns of a d×N matrix; required for
	// Geometric, optional otherwise.
	Points *linalg.Matrix
	// NumWorkers sets the worker-pool size (default 1); ignored when
	// WorkerSpecs is non-nil.
	NumWorkers int
	// WorkerSpecs optionally describes a heterogeneous pool (Table 5's
	// CPU+device configurations).
	WorkerSpecs []sched.WorkerSpec
	// Exec selects the execution strategy (default Dynamic).
	Exec ExecMode
	// CacheBlocks caches near blocks K_βα and far blocks K_β̃α̃ during
	// compression (tasks Kba and SKba); evaluation then avoids re-gathering.
	// One block is stored per symmetric pair (see pairs.go): the partner's
	// list slot applies it transposed.
	CacheBlocks bool
	// CacheSingle stores the interpolation coefficients (each basis's T
	// block; its identity columns are implicit) and, with CacheBlocks, the
	// cached blocks in float32 (half the memory, the paper's
	// single-precision storage regime); accumulation stays float64. Proj
	// widens T exactly when it forms a full basis.
	CacheSingle bool
	// SampleRows bounds the number of importance-sampled rows used per
	// skeletonization (default 4·MaxRank + LeafSize).
	SampleRows int
	// Seed makes all randomized components deterministic.
	Seed int64
	// NoSymmetrize skips the near-list symmetrization step. GOFMM always
	// symmetrizes (its K̃ is symmetric by construction); the ASKIT baseline
	// sets this.
	NoSymmetrize bool
	// Telemetry, when non-nil, records phase spans, oracle/flop counters,
	// skeleton-rank histograms and scheduler task events into the attached
	// recorder. The task events are the trace of the Dynamic/TaskDepend
	// runs: every execution with its worker, timing, queue wait and steal
	// origin, in run order. Nil disables all recording; every
	// instrumentation point is a no-op on a nil recorder, so the hot paths
	// carry no conditionals.
	Telemetry *telemetry.Recorder
	// Chaos, when non-nil and enabled, injects deterministic faults (task
	// failures during skeletonization, oracle poisoning) to exercise the
	// recovery paths. Nil disables all injection.
	Chaos *resilience.Chaos
	// Degrade selects what happens when a node cannot reach Tol at MaxRank
	// (default DegradeTruncate, the historical behavior).
	Degrade DegradeMode
	// Workspace, when non-nil, counts the arena each new replay binding
	// allocates (plan.ExecOptions.Pool); nothing else reads it. It stays
	// only for the benchmark's workspace.hit_frac and goes in the last step
	// of ROADMAP item 11.
	Workspace *workspace.Pool
}

// withDefaults fills in unset fields.
func (c Config) withDefaults(n int) Config {
	if c.LeafSize <= 0 {
		c.LeafSize = 256
	}
	if c.LeafSize > n {
		c.LeafSize = n
	}
	if c.MaxRank <= 0 {
		c.MaxRank = c.LeafSize
	}
	if c.Tol <= 0 {
		c.Tol = 1e-5
	}
	if c.Kappa <= 0 {
		c.Kappa = 32
	}
	if c.NumWorkers <= 0 {
		c.NumWorkers = 1
	}
	if c.SampleRows <= 0 {
		c.SampleRows = 4*c.MaxRank + c.LeafSize
	}
	return c
}

// node holds the per-tree-node state of the compressed representation.
//
// A node's interpolation basis P (P_α̃α for a leaf, P_α̃[l̃r̃] for an
// interior node) is s×c over its c candidate columns (the leaf's indices,
// or [l̃; r̃]) and is [I T]Π by construction: each skeleton column
// interpolates itself, and only the s×(c−s) block T of the redundant
// columns carries information. The node stores T alone and the column
// order Π as candidate positions; Proj forms the full P.
type node struct {
	skel []int // skeleton indices α̃ (original matrix indices)
	// pos is Π: the candidate positions in the column order of [I T], the
	// skeleton's in skeleton order (pos[k] holds skel[k]), then the
	// redundant ones ascending. Nil for the root and for a node without
	// candidates.
	pos []int
	// coef is T, float32 under Config.CacheSingle; absent when no
	// column is redundant (s = c) or the rank is 0.
	coef block
	near []int // near node IDs (leaves only, includes self; sorted)
	far  []int // far node IDs (after MergeFar; sorted)
	// denseFallback marks a node whose sampled block could not reach Tol at
	// MaxRank: all candidate columns were kept as the skeleton with identity
	// interpolation (exact but uncompressed — graceful degradation).
	denseFallback bool

	// cacheNear[k] holds K_βα for near slot k and cacheFar[k] K_β̃α̃ for far
	// slot k, float32 under Config.CacheSingle; nil when not cached. A slot
	// whose block the partner owns is absent: it applies the partner's
	// block transposed (see slotOwner).
	cacheNear []block
	cacheFar  []block
}

// Stats aggregates cost accounting for the experiment harness.
//
// Deprecated-ish: with Config.Telemetry attached, Stats is a derived view of
// the telemetry span tree and metric registry (same clock, same numbers —
// see Recorder.Snapshot for the structured form). The fields are kept so
// existing callers and the experiment harness keep working unchanged.
type Stats struct {
	// Times in seconds.
	ANNTime, TreeTime, ListsTime, SkelTime, CacheTime float64
	// CompressTime is the total of the above; EvalTime is the last Matvec.
	CompressTime, EvalTime float64
	// PlanTime is the cost of the last CompilePlanCtx lowering (seconds).
	PlanTime float64
	// Flops spent in each phase (approximate, following Table 2).
	CompressFlops, EvalFlops float64
	// AvgRank is the mean skeleton size over non-root nodes.
	AvgRank float64
	// MaxNear is the largest near-list length; DirectFrac is the fraction
	// of the N² matrix evaluated directly by L2L.
	MaxNear    int
	DirectFrac float64
	// DenseFallbacks counts nodes that missed Tol at MaxRank and degraded to
	// dense (identity-interpolation) storage.
	DenseFallbacks int
}

// Hierarchical is the compressed H-matrix representation K̃ = D + S + UV.
type Hierarchical struct {
	K    SPD
	Cfg  Config
	Tree *tree.Tree
	// Neighbors holds the κ-nearest-neighbor lists (nil for distances
	// without neighbors).
	Neighbors *ann.List
	nodes     []node
	// Stats aggregates compression- and evaluation-cost counters. The
	// compression fields are written once, before Compress returns; the
	// last-evaluation fields are rewritten by every replay, so concurrent
	// readers must go through LastEval.
	// guarded by statsMu for EvalTime, EvalFlops
	Stats Stats

	compressFlops atomic.Int64

	// statsMu serializes the "last evaluation" writes into Stats
	// (EvalTime/EvalFlops). One Hierarchical legitimately serves many
	// concurrent MatvecCtx/MatmatCtx replays; the cost fields are
	// last-writer-wins by contract, but the writes themselves must not race.
	statsMu sync.Mutex

	// evalPlan is the installed compiled evaluation schedule (nil while
	// evaluation runs through the tree interpreter); planMu serializes
	// compilation so concurrent CompilePlanCtx calls lower at most once.
	evalPlan atomic.Pointer[plan.Plan]
	planMu   sync.Mutex

	errMu sync.Mutex
	// tolErr is the first StrictTolerance miss (checked after skeletonize).
	// guarded by errMu
	tolErr error

	// backing is the operator-store file this representation was loaded from
	// (nil for compressed-in-memory operators). When the file is memory-mapped,
	// the node caches and plan constants are zero-copy views into it, so it
	// must stay open for the operator's lifetime; ReleaseStore closes it.
	backing *store.File
}

// recordToleranceMiss remembers the first strict-mode tolerance failure
// (skeletonization tasks run concurrently; CompressCtx surfaces it after the
// phase drains).
func (h *Hierarchical) recordToleranceMiss(err error) {
	h.errMu.Lock()
	if h.tolErr == nil {
		h.tolErr = err
	}
	h.errMu.Unlock()
}

// toleranceErr returns the recorded strict-mode failure, if any.
func (h *Hierarchical) toleranceErr() error {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.tolErr
}

// N returns the matrix dimension.
func (h *Hierarchical) N() int { return h.K.Dim() }

// Rank returns the skeleton size of tree node id.
func (h *Hierarchical) Rank(id int) int { return len(h.nodes[id].skel) }

// NearList and FarList expose the interaction lists (for tests/inspection).
func (h *Hierarchical) NearList(id int) []int { return h.nodes[id].near }
func (h *Hierarchical) FarList(id int) []int  { return h.nodes[id].far }

// DenseFallbacks returns the IDs of nodes that missed the tolerance at
// MaxRank and degraded to dense (identity-interpolation) storage.
func (h *Hierarchical) DenseFallbacks() []int {
	var ids []int
	for id := range h.nodes {
		if h.nodes[id].denseFallback {
			ids = append(ids, id)
		}
	}
	return ids
}

// workerCount returns the effective pool size.
func (c *Config) workerCount() int {
	if c.WorkerSpecs != nil {
		return len(c.WorkerSpecs)
	}
	return c.NumWorkers
}

// levelWorkers is the crew size of the level-by-level traversals and of
// the plan replay: under Sequential one worker, the calling goroutine.
func (c *Config) levelWorkers() int {
	if c.Exec == Sequential {
		return 1
	}
	return c.workerCount()
}

// tasked reports whether the executor runs task graphs on the sched engine
// (Dynamic and TaskDepend) rather than level by level.
func (c *Config) tasked() bool {
	return c.Exec == Dynamic || c.Exec == TaskDepend
}

// runTasked executes g on a task engine over the configured pool (HEFT for
// Dynamic, FIFO for TaskDepend) with the chaos hook armed. With a recorder attached it traces the run and exports the trace
// under sp with the metric prefix ("sched.compress" or "sched.matvec").
func (h *Hierarchical) runTasked(ctx context.Context, g *sched.Graph, sp *telemetry.Span, prefix string) error {
	if err := g.Err(); err != nil {
		return err
	}
	c := &h.Cfg
	policy := sched.HEFT
	if c.Exec == TaskDepend {
		policy = sched.FIFO
	}
	specs := c.WorkerSpecs
	if specs == nil {
		specs = sched.Homogeneous(c.NumWorkers)
	}
	eng := sched.NewEngine(policy, specs)
	// Scheduler health events (deadlock, retries) flow into the
	// same structured log as the telemetry layer's span/crash records.
	eng.SetLogger(c.Telemetry.Logger())
	rec := c.Telemetry
	if rec != nil {
		eng.EnableTrace()
	}
	if ch := c.Chaos; ch != nil && ch.Config().TaskFail > 0 {
		eng.SetFaultInjector(ch.TaskFail)
	}
	runStart := rec.Since()
	err := eng.RunCtx(ctx, g)
	if n := eng.Retries(); n > 0 && rec != nil {
		rec.Counter("sched.task_retries").Add(n)
	}
	exportEngineTrace(rec, sp, prefix, eng, runStart)
	return err
}

// Proj returns node id's interpolation matrix in float64 (P_α̃α for
// leaves, P_α̃[l̃r̃] for interior nodes; nil for the root), for
// conversions and inspection. It is the one place the full basis is
// formed: an identity column per skeleton index and T's columns, widened
// exactly from float32, at the redundant positions.
func (h *Hierarchical) Proj(id int) *linalg.Matrix {
	nd := &h.nodes[id]
	if nd.pos == nil {
		return nil
	}
	s := len(nd.skel)
	P := linalg.NewMatrix(s, len(nd.pos))
	for k, c := range nd.pos[:s] {
		P.Set(k, c, 1)
	}
	var T *linalg.Matrix
	switch {
	case nd.coef.m32 != nil:
		T = nd.coef.m32.ToMatrix()
	case nd.coef.m != nil:
		T = nd.coef.m
	}
	if T != nil {
		for j, c := range nd.pos[s:] {
			copy(P.Col(c), T.Col(j))
		}
	}
	return P
}

// Skeleton returns a copy of node id's skeleton indices α̃.
func (h *Hierarchical) Skeleton(id int) []int {
	return append([]int(nil), h.nodes[id].skel...)
}

// StoreMapped reports whether this operator serves evaluations zero-copy out
// of a memory-mapped operator-store file (LoadFrom with Mmap). False for
// compressed-in-memory operators and for copying (portable) loads.
func (h *Hierarchical) StoreMapped() bool {
	return h.backing != nil && h.backing.Mapped()
}

// ReleaseStore closes the backing operator-store file, unmapping it when it
// was memory-mapped. After ReleaseStore the operator must not be evaluated if
// it was mapped — its block caches and plan constants were views into the
// mapping. No-op (nil error) for operators without a backing store.
func (h *Hierarchical) ReleaseStore() error {
	if h.backing == nil {
		return nil
	}
	f := h.backing
	h.backing = nil
	return f.Close()
}

// IsHSS reports whether the compressed form has no sparse correction
// (every leaf is near only itself), i.e. S = 0 in K̃ = D + S + UV.
func (h *Hierarchical) IsHSS() bool {
	for _, beta := range h.Tree.Leaves() {
		near := h.nodes[beta].near
		if len(near) != 1 || near[0] != beta {
			return false
		}
	}
	return true
}
