package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"time"

	"gofmm/internal/ann"
	"gofmm/internal/metric"
	"gofmm/internal/resilience"
	"gofmm/internal/sched"
	"gofmm/internal/telemetry"
	"gofmm/internal/tree"
)

// ErrNeedPoints is returned when the geometric distance is requested without
// coordinates.
var ErrNeedPoints = errors.New("core: geometric distance requires Config.Points")

// ErrBadOracle is returned when spot checks of the entry oracle find
// non-finite values or gross asymmetry — failure modes that would otherwise
// surface as silent garbage deep inside the factorizations.
var ErrBadOracle = errors.New("core: entry oracle returned non-finite or asymmetric values")

// validateOracle spot-checks a handful of entries for NaN/Inf and symmetry.
func validateOracle(K SPD, seed int64) error {
	n := K.Dim()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 16; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		a, b := K.At(i, j), K.At(j, i)
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("%w: K[%d,%d] = %v", ErrBadOracle, i, j, a)
		}
		if diff := math.Abs(a - b); diff > 1e-8*(1+math.Abs(a)) {
			return fmt.Errorf("%w: K[%d,%d]=%g vs K[%d,%d]=%g", ErrBadOracle, i, j, a, j, i, b)
		}
		d := K.At(i, i)
		if math.IsNaN(d) || d < 0 {
			return fmt.Errorf("%w: diagonal K[%d,%d] = %v", ErrBadOracle, i, i, d)
		}
	}
	return nil
}

// poisonedSPD injects oracle faults: with probability OraclePoison a given
// entry reads as NaN. The decision is a pure hash of (seed, i, j), so a
// poisoned entry is poisoned on every read — the model is a corrupted value
// in the backing store, not a flaky wire. It deliberately does not implement
// Bulk so every gathered entry passes through the fault check.
type poisonedSPD struct {
	K     SPD
	chaos *resilience.Chaos
}

func (p *poisonedSPD) Dim() int { return p.K.Dim() }

func (p *poisonedSPD) At(i, j int) float64 {
	if v, ok := p.chaos.PoisonOracle(fmt.Sprintf("K[%d,%d]", i, j)); ok {
		return v
	}
	return p.K.At(i, j)
}

// Compress builds the hierarchical approximation K̃ of K following
// Algorithm 2.2. The returned Hierarchical supports fast matvecs via
// Matvec/Evaluate.
func Compress(K SPD, cfg Config) (*Hierarchical, error) {
	return CompressCtx(context.Background(), K, cfg)
}

// CompressCtx is Compress with cancellation: the context is checked between
// pipeline phases, the Dynamic/TaskDepend executors abort mid-phase, and all
// failures — including worker panics, injected task-failure exhaustion and
// strict-mode tolerance misses — surface as typed errors rather than panics.
func CompressCtx(ctx context.Context, K SPD, cfg Config) (h *Hierarchical, err error) {
	// Backstop: no panic escapes the public entry point.
	defer func() {
		if r := recover(); r != nil {
			h, err = nil, &resilience.PanicError{Label: "compress", Value: r, Stack: debug.Stack()}
		}
	}()
	if K == nil {
		return nil, fmt.Errorf("%w: core: nil matrix", resilience.ErrInvalidInput)
	}
	n := K.Dim()
	if n == 0 {
		return nil, fmt.Errorf("%w: core: empty matrix", resilience.ErrInvalidInput)
	}
	cfg = cfg.withDefaults(n)
	if cfg.Distance == Geometric {
		if cfg.Points == nil {
			return nil, ErrNeedPoints
		}
		if cfg.Points.Cols != n {
			return nil, fmt.Errorf("%w: core: %d points for a %d-dim matrix",
				resilience.ErrInvalidInput, cfg.Points.Cols, n)
		}
	}
	if cfg.Chaos != nil && cfg.Chaos.Config().OraclePoison > 0 {
		K = &poisonedSPD{K: K, chaos: cfg.Chaos}
	}
	if err := validateOracle(K, cfg.Seed); err != nil {
		return nil, err
	}
	if err := resilience.FromContext(ctx); err != nil {
		return nil, err
	}
	rec := cfg.Telemetry
	// With a recorder attached, every oracle access from here on (ANN
	// distances, tree splits, sampling, caching) is counted.
	K = newTracedSPD(K, rec)
	h = &Hierarchical{K: K, Cfg: cfg}
	start := time.Now()
	root := rec.StartSpan("compress")

	// Steps 1–3: iterative randomized-tree neighbor search.
	var space metric.Space
	switch cfg.Distance {
	case Angle:
		space = metric.NewAngleSpace(K)
	case Kernel:
		space = metric.NewKernelSpace(K)
	case Geometric:
		space = metric.GeometricSpace{X: cfg.Points}
	}
	if cfg.Distance.HasNeighbors() {
		p := startPhase(root, "ann")
		h.Neighbors, err = ann.Search(ctx, n, cfg.Kappa, space, ann.Options{
			LeafSize: cfg.LeafSize,
			Seed:     cfg.Seed,
			Workers:  cfg.workerCount(),
		})
		h.Stats.ANNTime = p.End()
		if err != nil {
			root.End()
			return nil, err
		}
	}

	if err := resilience.FromContext(ctx); err != nil {
		root.End()
		return nil, err
	}

	// Step 4: metric ball tree (SPLI tasks in a preorder traversal).
	p := startPhase(root, "tree")
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var split tree.Splitter
	switch cfg.Distance {
	case Lexicographic:
		split = tree.EvenSplit{}
	case RandomPerm:
		split = metric.RandomSplit{Rng: rng}
	default:
		split = &metric.BallSplit{Space: space, Rng: rng}
	}
	h.Tree = tree.Build(n, cfg.LeafSize, split)
	h.nodes = make([]node, len(h.Tree.Nodes))
	h.Stats.TreeTime = p.End()
	if bs, ok := split.(*metric.BallSplit); ok && bs.Err != nil {
		// A NaN entry reached the split's distances: the oracle is bad,
		// not the split.
		root.End()
		return nil, fmt.Errorf("%w: tree split: %w", ErrBadOracle, bs.Err)
	}

	// Steps 5–7: near and far interaction lists.
	p = startPhase(root, "lists")
	h.buildNearLists()
	h.buildFarLists()
	h.Stats.ListsTime = p.End()

	if err := resilience.FromContext(ctx); err != nil {
		root.End()
		return nil, err
	}

	// Steps 8–9 (and optionally 10–11): skeletonization, coefficients,
	// caching — per the configured executor.
	p = startPhase(root, "skel")
	skelErr := h.skeletonize(ctx, p.sp)
	h.Stats.SkelTime = p.End()
	if skelErr == nil {
		skelErr = h.toleranceErr()
	}
	if skelErr != nil {
		root.End()
		return nil, skelErr
	}
	if cfg.CacheBlocks {
		p = startPhase(root, "cache")
		cacheErr := h.runCaching(ctx)
		h.Stats.CacheTime = p.End()
		if cacheErr != nil {
			root.End()
			return nil, cacheErr
		}
	}

	if d := root.End(); d > 0 {
		h.Stats.CompressTime = d.Seconds()
	} else {
		h.Stats.CompressTime = time.Since(start).Seconds()
	}
	h.Stats.CompressFlops = float64(h.compressFlops.Load())
	h.finishStats()
	return h, nil
}

// addCompressFlops adds f to the compression's flop count.
func (h *Hierarchical) addCompressFlops(f float64) { h.compressFlops.Add(int64(f)) }

// nodeRng returns a deterministic per-node RNG so results do not depend on
// task execution order.
func (h *Hierarchical) nodeRng(id int) *rand.Rand {
	return rand.New(rand.NewSource(h.Cfg.Seed ^ (0x9e3779b9 * int64(id+7))))
}

// skeletonize dispatches SKEL/COEF over all non-root nodes with the
// configured executor. sp is the enclosing "skel" phase span (nil when
// telemetry is off); the executors hang per-level or per-task-kind child
// spans off it. Every executor propagates cancellation and recovers task
// panics into typed errors.
func (h *Hierarchical) skeletonize(ctx context.Context, sp *telemetry.Span) error {
	t := h.Tree
	if len(t.Nodes) == 1 {
		return nil // single leaf: K̃ = K, no off-diagonal blocks
	}
	works := make([]*skelWork, len(t.Nodes))
	if h.Cfg.tasked() {
		g := sched.NewGraph()
		skelTasks := make([]*sched.Task, len(t.Nodes))
		m := float64(h.Cfg.LeafSize)
		s := float64(h.Cfg.MaxRank)
		for id := len(t.Nodes) - 1; id >= 1; id-- {
			skelTasks[id] = g.Add(fmt.Sprintf("SKEL(%d)", id), 2*s*s*s+2*m*m*m, func() {
				works[id] = h.skelNode(id, h.nodeRng(id))
			})
			coef := g.Add(fmt.Sprintf("COEF(%d)", id), s*s*s, func() {
				h.coefNode(id, works[id])
			})
			g.AddDep(skelTasks[id], coef)
		}
		// SKEL(α) needs the children's skeletons.
		for id := 1; id < len(t.Nodes); id++ {
			if !t.IsLeaf(id) {
				g.AddDep(skelTasks[t.Left(id)], skelTasks[id])
				g.AddDep(skelTasks[t.Right(id)], skelTasks[id])
			}
		}
		return h.runTasked(ctx, g, sp, "sched.compress")
	}
	// Level by level (one worker under Sequential): SKEL bottom-up with
	// barriers; running one RunLevelsCtx call per level is equivalent
	// (RunLevelsCtx already barriers after each batch) and lets each level
	// carry its own span.
	p := h.Cfg.levelWorkers()
	levels := t.LevelNodes()
	for l := t.Depth; l >= 1; l-- {
		batch := make([]func(), 0, len(levels[l]))
		for _, id := range levels[l] {
			batch = append(batch, func() { works[id] = h.skelNode(id, h.nodeRng(id)) })
		}
		lp := sp.StartSpan(fmt.Sprintf("SKEL.level.%02d", l))
		err := sched.RunLevelsCtx(ctx, [][]func(){batch}, p)
		lp.End()
		if err != nil {
			return err
		}
	}
	// COEF is an "any order" task: one big dynamic batch.
	coefBatch := make([]func(), 0, len(t.Nodes)-1)
	for id := 1; id < len(t.Nodes); id++ {
		coefBatch = append(coefBatch, func() { h.coefNode(id, works[id]) })
	}
	cp := sp.StartSpan("COEF")
	err := sched.RunLevelsCtx(ctx, [][]func(){coefBatch}, p)
	cp.End()
	return err
}

// runCaching executes the Kba and SKba tasks (any order).
func (h *Hierarchical) runCaching(ctx context.Context) error {
	t := h.Tree
	var batch []func()
	for _, beta := range t.Leaves() {
		batch = append(batch, func() { h.cacheList(nearList, beta) })
	}
	for id := 1; id < len(t.Nodes); id++ {
		if len(h.nodes[id].far) > 0 {
			batch = append(batch, func() { h.cacheList(farList, id) })
		}
	}
	return sched.RunLevelsCtx(ctx, [][]func(){batch}, h.Cfg.workerCount())
}

// finishStats derives the summary statistics.
func (h *Hierarchical) finishStats() {
	t := h.Tree
	totalRank, cnt := 0, 0
	for id := 1; id < len(t.Nodes); id++ {
		totalRank += len(h.nodes[id].skel)
		cnt++
		if h.nodes[id].denseFallback {
			h.Stats.DenseFallbacks++
		}
	}
	if cnt > 0 {
		h.Stats.AvgRank = float64(totalRank) / float64(cnt)
	}
	var direct float64
	n := float64(h.K.Dim())
	for _, beta := range t.Leaves() {
		bs := float64(t.Nodes[beta].Size())
		h.Stats.MaxNear = max(h.Stats.MaxNear, len(h.nodes[beta].near))
		for _, alpha := range h.nodes[beta].near {
			direct += bs * float64(t.Nodes[alpha].Size())
		}
	}
	h.Stats.DirectFrac = direct / (n * n)
	if rec := h.Cfg.Telemetry; rec != nil {
		rec.Counter("compress.flops").Add(int64(h.Stats.CompressFlops))
		rec.Gauge("compress.avg_rank").Set(h.Stats.AvgRank)
		rec.Gauge("compress.direct_frac").Set(h.Stats.DirectFrac)
		rec.Gauge("compress.max_near").Set(float64(h.Stats.MaxNear))
		rec.Gauge("compress.dense_fallbacks").Set(float64(h.Stats.DenseFallbacks))
	}
}
