package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/hss"
	"gofmm/internal/linalg"
	"gofmm/internal/spdmat"
	"gofmm/internal/telemetry"
	"gofmm/internal/workspace"
	"gofmm/krylov"
)

// Fixed parts of every workload definition. The matrices are data sets:
// point clouds come from matrixSeed, not from --seed, so ε₂ and the operator
// size are properties of the workload and repeat exactly from run to run.
// (Across point-cloud seeds, ε₂ of K05 at n=16384 varies fourfold, which
// would drown any change a commit makes.) --seed generates everything a
// run feeds the operator: right-hand sides, probe blocks, served inputs and
// the arrival schedule.
const (
	matrixSeed = 1
	probeSeed  = 20170 // the fixed ε₂ probe vector and sampled rows
	sampleRows = 100   // rows sampled for ε₂ and for every output check (Eq. 11)

	krrLambda = 10.0 // K05 + 1·I is indefinite after compression; +10·I is not
	krrTol    = 1e-8
	probeCols = 16

	replayTol  = 1e-12 // a width-16 column against the width-1 replay
	hssResidOK = 1e-5  // HSS solve residual against the exact K02
	// residFactor bounds every output's true error by a multiple of the
	// operator's own ε₂.
	residFactor = 10
)

// workload is one benchmark input set and the loop that drives it.
type workload struct {
	name, why string
	n, toyN   int // matrix size, and the smoke test's
	run       func(ctx context.Context, r *runner) error
}

var workloads = []workload{
	{"krr-cg", "kernel ridge regression: serial chain of width-1 plan replays inside unpreconditioned CG on K05+10I, n=16384",
		16384, 512, runKRRCG},
	{"probe-block16", "16-column probe blocks on low-rank K08: GEMM-shaped wide replay, bypassing krylov",
		16384, 512, runProbeBlock},
	{"hessian-direct", "HSS factor and direct solves on the K02 PDE Hessian: budget-0 compression, bypassing plan",
		2025, 484, runHessian},
	{"serve-loopback", "gofmmd path over loopback HTTP: mmap store cold start, 2-connection capacity, 30 req/s Poisson with hot swaps",
		8192, 512, runServe},
}

// runner carries one pass of one workload: its settings, its recorder (nil
// when untraced), and what it measured.
type runner struct {
	seed  int64
	n     int
	phase time.Duration // length of the measured loop
	// setups is the number of set-up repetitions; 0 means at least three,
	// more while they take under three seconds, at most fifteen.
	setups int
	rec    *telemetry.Recorder
	root   *telemetry.Span
	wall   time.Duration // the traced pass's root span
	pool   *workspace.Pool
	dir    string
	t      tally
	m      map[string]float64
}

// result is everything one workload reports.
type result struct {
	t       tally
	metrics map[string]float64
	record  *telemetry.RunRecord
}

// runWorkload runs wl once untraced; traced, it runs it untraced and then
// traced for half the time each, takes the per-layer numbers from the
// traced pass and the tracing overhead from the pair.
func runWorkload(ctx context.Context, log io.Writer, wl workload, opts options) result {
	n := wl.n
	if opts.toy {
		n = wl.toyN
	}
	pass := func(rec *telemetry.Recorder, phase time.Duration, setups int) *runner {
		r := &runner{seed: opts.seed, n: n, phase: phase, setups: setups, rec: rec,
			pool: workspace.New(), dir: opts.dir, m: map[string]float64{}}
		r.pool.AttachTelemetry(rec)
		r.root = rec.StartSpan("bench:" + wl.name)
		if err := wl.run(ctx, r); err != nil {
			r.t.record(fmt.Errorf("%s: %w", wl.name, err))
		}
		r.wall = r.root.End()
		return r
	}
	rr := telemetry.NewRunRecord(wl.name)
	rr.Params["seed"] = opts.seed
	rr.Params["seconds"] = opts.phase.Seconds()
	rr.Params["n"] = n
	rr.Params["gomaxprocs"] = runtime.GOMAXPROCS(0)
	if !opts.trace {
		r := pass(nil, opts.phase, 0)
		rr.Metrics = finite(r.m)
		return result{t: r.t, metrics: rr.Metrics, record: rr}
	}
	plain := pass(nil, opts.phase/2, 1)
	rec := telemetry.New()
	traced := pass(rec, opts.phase/2, 1)
	traced.m["telemetry.overhead_frac"] = traced.m["op_p50_ms"]/plain.m["op_p50_ms"] - 1
	layers := map[string]*layerTime{}
	layerTimes(rec.Snapshot().Spans, layers)
	printLayerTimes(log, wl.name, layers, traced.wall.Seconds())
	for name, lt := range layers {
		traced.m[name+".self_s"] = lt.self
	}
	if err := writeTrace(rec, opts.traceOut, wl.name); err != nil {
		traced.t.record(err)
	}
	var t tally
	t.add(plain.t)
	t.add(traced.t)
	rr.Name = wl.name + "+trace"
	rr.Params["trace"] = 1
	rr.Metrics = finite(traced.m)
	return result{t: t, metrics: rr.Metrics, record: rr}
}

// finite drops NaN and infinite values, which JSON cannot carry; a metric
// the run could not measure is reported missing instead.
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// config is the compression every workload starts from: Table 2's knobs at
// leaf and rank 128, τ=1e-5, a 3% budget, κ=32, the angle distance,
// float32 cached blocks, two workers on the dynamic scheduler.
func (r *runner) config() core.Config {
	return core.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-5, Kappa: 32, Budget: 0.03,
		Distance: core.Angle, Exec: core.Dynamic, NumWorkers: 2, Seed: 1,
		CacheBlocks: true, CacheSingle: true,
		Workspace: r.pool, Telemetry: r.rec,
	}
}

// loadOptions is how every store-backed operator is opened.
func (r *runner) loadOptions(workers int) core.LoadOptions {
	return core.LoadOptions{Mmap: true, Exec: core.Dynamic, NumWorkers: workers,
		Workspace: r.pool, Telemetry: r.rec}
}

// setup runs build repeatedly (see runner.setups) and records the median
// as setup_s. The last repetition's result is the one measured after.
func (r *runner) setup(build func(sp *telemetry.Span) error) error {
	var secs []float64
	var total time.Duration
	for {
		runtime.GC() // collect the previous repetition's operator outside the timing
		sp := r.root.StartSpan("bench:setup")
		t0 := time.Now()
		err := build(sp)
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, d.Seconds())
		total += d
		k := len(secs)
		if r.setups > 0 && k >= r.setups ||
			r.setups == 0 && (k >= 15 || k >= 3 && total >= 3*time.Second) {
			break
		}
	}
	r.m["setup_s"] = median(secs)
	r.m["setup.reps"] = float64(len(secs))
	return nil
}

// compress is the spanned CompressCtx every set-up starts with; it records
// the compression's phase times and, traced, the oracle entries it read
// (counted by the program itself once a recorder is attached).
func (r *runner) compress(ctx context.Context, sp *telemetry.Span, K core.SPD, cfg core.Config) (*core.Hierarchical, error) {
	entries := r.rec.Counter("oracle.entries")
	before := entries.Value()
	c := sp.StartSpan("core:CompressCtx")
	h, err := core.CompressCtx(ctx, K, cfg)
	c.End()
	if err != nil {
		return nil, err
	}
	if r.rec != nil {
		r.m["core.oracle_entries"] = float64(entries.Value() - before)
	}
	s := h.Stats
	r.m["core.ann_s"], r.m["core.tree_s"], r.m["core.lists_s"] = s.ANNTime, s.TreeTime, s.ListsTime
	r.m["core.skel_s"], r.m["core.cache_s"], r.m["core.compress_s"] = s.SkelTime, s.CacheTime, s.CompressTime
	r.m["core.compress_gflops"] = s.CompressFlops / s.CompressTime / 1e9
	r.m["core.avg_rank"], r.m["core.direct_frac"] = s.AvgRank, s.DirectFrac
	return h, nil
}

// setupCompiled is the set-up of the replay workloads: compress, then
// compile the plan.
func (r *runner) setupCompiled(ctx context.Context, K core.SPD) (*core.Hierarchical, error) {
	var h *core.Hierarchical
	err := r.setup(func(sp *telemetry.Span) error {
		var err error
		if h, err = r.compress(ctx, sp, K, r.config()); err != nil {
			return err
		}
		return compile(ctx, sp, h)
	})
	return h, err
}

// compile is the spanned CompilePlanCtx.
func compile(ctx context.Context, sp *telemetry.Span, h *core.Hierarchical) error {
	c := sp.StartSpan("plan:CompilePlanCtx")
	_, err := h.CompilePlanCtx(ctx)
	c.End()
	return err
}

// timed runs op back to back until the phase is spent (at least once),
// counting every call, and returns the durations of those that succeeded.
// op times only its own call into the program; the checks it runs after
// are outside the duration it returns.
func (r *runner) timed(op func() (time.Duration, error)) []float64 {
	var secs []float64
	deadline := time.Now().Add(r.phase)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		d, err := op()
		r.t.record(err)
		if err == nil {
			secs = append(secs, d.Seconds())
		}
	}
	return secs
}

// firstMedian is the median of the first k values, one per op. Which ops
// those are depends on the seed alone, so for a fixed seed the result
// repeats exactly however many ops the machine's speed lets a run complete.
// k is as many ops as a run completes even on a slow machine.
func firstMedian(xs []float64, k int) float64 {
	return median(xs[:min(len(xs), k)])
}

// setOps records the latency of the workload's unit of work and the
// right-hand sides it completes per second of that work.
func (r *runner) setOps(secs []float64, cols int) {
	if len(secs) == 0 {
		return
	}
	l := summarize(secs)
	r.m["op_p50_ms"], r.m["op_tail_ms"] = l.p50, l.tail
	r.m["op.samples"], r.m["op.tail_q"] = float64(l.n), l.q
	var sum float64
	for _, s := range secs {
		sum += s
	}
	r.m["rhs_per_s"] = float64(cols*len(secs)) / sum
}

// accuracy records ε₂ (Eq. 11) on the fixed probe vector and sampled rows,
// and the operator's size; both depend on the operator alone.
func (r *runner) accuracy(ctx context.Context, h *core.Hierarchical) error {
	W := linalg.GaussianMatrix(rand.New(rand.NewSource(probeSeed)), h.N(), 1)
	U, err := h.MatvecCtx(ctx, W)
	if err != nil {
		return fmt.Errorf("ε₂ probe: %w", err)
	}
	r.m["eps2"] = h.SampleRelErr(W, U, sampleRows, probeSeed)
	r.m["operator_mb"] = float64(h.CompressedBytes()) / 1e6
	return nil
}

// exactRows holds K[rows, :] of the exact matrix on the rows ε₂ samples:
// the reference every output of a run is checked against.
type exactRows struct {
	rows []int
	K    *linalg.Matrix
}

func newExactRows(K core.SPD) exactRows {
	n := K.Dim()
	rows := rand.New(rand.NewSource(probeSeed)).Perm(n)[:min(sampleRows, n)]
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return exactRows{rows: rows, K: core.NewGathered(K, rows, all)}
}

// relErr is ‖U[rows,:] − (K·W)[rows,:]‖_F / ‖(K·W)[rows,:]‖_F.
func (e exactRows) relErr(W, U *linalg.Matrix) float64 {
	want := linalg.MatMul(false, false, e.K, W)
	got := U.RowsGather(e.rows)
	got.AddScaled(-1, want)
	return got.FrobeniusNorm() / want.FrobeniusNorm()
}

// residual is ‖((K + σI)·x − b)[rows]‖ / ‖b[rows]‖.
func (e exactRows) residual(x, b *linalg.Matrix, sigma float64) float64 {
	res := linalg.MatMul(false, false, e.K, x)
	res.AddScaled(sigma, x.RowsGather(e.rows))
	br := b.RowsGather(e.rows)
	res.AddScaled(-1, br)
	return res.FrobeniusNorm() / br.FrobeniusNorm()
}

// column views column j of X as an n×1 matrix.
func column(X *linalg.Matrix, j int) *linalg.Matrix {
	return linalg.FromColumnMajor(X.Rows, 1, X.Col(j))
}

// cgOperator adapts a compressed operator to krylov.Operator, timing every
// matvec CG makes and, traced, spanning it under the solve's span.
type cgOperator struct {
	ctx    context.Context
	h      *core.Hierarchical
	parent *telemetry.Span
	calls  int
	busy   time.Duration
	err    error // first failed matvec; CG sees a zero product and stops
}

func (o *cgOperator) N() int { return o.h.N() }

func (o *cgOperator) Matvec(W *linalg.Matrix) *linalg.Matrix {
	sp := o.parent.StartSpan("plan:MatvecCtx")
	t0 := time.Now()
	U, err := o.h.MatvecCtx(o.ctx, W)
	o.busy += time.Since(t0)
	sp.End()
	o.calls++
	if err != nil {
		if o.err == nil {
			o.err = err
		}
		return linalg.NewMatrix(W.Rows, W.Cols)
	}
	return U
}

// runKRRCG: compress K05 once per set-up, then solve (K̃ + λI)x = b with
// unpreconditioned CG to 1e-8 for seeded right-hand sides, one caller.
func runKRRCG(ctx context.Context, r *runner) error {
	prob, err := spdmat.Generate("K05", r.n, matrixSeed)
	if err != nil {
		return err
	}
	h, err := r.setupCompiled(ctx, prob.K)
	if err != nil {
		return err
	}
	if err := r.accuracy(ctx, h); err != nil {
		return err
	}
	ex := newExactRows(prob.K)
	n := h.N()
	op := &cgOperator{ctx: ctx, h: h}
	A := krylov.Shifted{A: op, Sigma: krrLambda}
	rng := rand.New(rand.NewSource(r.seed))
	warm := linalg.GaussianMatrix(rng, n, 1)
	for i := 0; i < 3; i++ {
		op.Matvec(warm)
	}
	if op.err != nil {
		return op.err
	}
	op.calls, op.busy = 0, 0
	var iters, resids []float64
	var solving time.Duration
	loop := r.root.StartSpan("bench:loop")
	secs := r.timed(func() (time.Duration, error) {
		b := linalg.GaussianMatrix(rng, n, 1)
		sp := loop.StartSpan("krylov:CG")
		op.parent = sp
		t0 := time.Now()
		x, res, err := krylov.CG(A, nil, b.Col(0), krrTol, 1000)
		d := time.Since(t0)
		sp.End()
		solving += d
		if op.err != nil {
			err, op.err = op.err, nil
		}
		if err != nil {
			return d, fmt.Errorf("CG: %w", err)
		}
		iters = append(iters, float64(res.Iterations))
		rel := ex.residual(linalg.FromColumnMajor(n, 1, x), b, krrLambda)
		resids = append(resids, rel)
		if limit := residFactor * r.m["eps2"]; rel > limit {
			return d, fmt.Errorf("CG solution misses the exact system by %.3g (limit %.3g)", rel, limit)
		}
		return d, nil
	})
	loop.End()
	r.setOps(secs, 1)
	r.m["resid"] = firstMedian(resids, 10)
	r.m["krylov.cg_iters"] = firstMedian(iters, 10)
	r.m["krylov.matvecs"] = float64(op.calls)
	r.m["krylov.self_frac"] = 1 - op.busy.Seconds()/solving.Seconds()
	if r.rec != nil {
		return r.probeLayers(ctx, h)
	}
	return nil
}

// runProbeBlock: compress K08, then apply it to seeded 16-column blocks,
// one caller, checking two columns of each against width-1 replays.
func runProbeBlock(ctx context.Context, r *runner) error {
	prob, err := spdmat.Generate("K08", r.n, matrixSeed)
	if err != nil {
		return err
	}
	h, err := r.setupCompiled(ctx, prob.K)
	if err != nil {
		return err
	}
	if err := r.accuracy(ctx, h); err != nil {
		return err
	}
	ex := newExactRows(prob.K)
	n := h.N()
	rng := rand.New(rand.NewSource(r.seed))
	warm := linalg.GaussianMatrix(rng, n, probeCols)
	if _, err := h.MatmatCtx(ctx, warm); err != nil {
		return err
	}
	if _, err := h.MatvecCtx(ctx, column(warm, 0)); err != nil {
		return err
	}
	var resids []float64
	loop := r.root.StartSpan("bench:loop")
	secs := r.timed(func() (time.Duration, error) {
		X := linalg.GaussianMatrix(rng, n, probeCols)
		sp := loop.StartSpan("plan:MatmatCtx")
		t0 := time.Now()
		U, err := h.MatmatCtx(ctx, X)
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return d, err
		}
		j1 := rng.Intn(probeCols)
		j2 := (j1 + 1 + rng.Intn(probeCols-1)) % probeCols
		for _, j := range []int{j1, j2} {
			v, err := h.MatvecCtx(ctx, column(X, j))
			if err != nil {
				return d, err
			}
			if diff := relDiff(U.Col(j), v.Col(0)); diff > replayTol {
				return d, fmt.Errorf("column %d of the block differs from its width-1 replay by %.3g", j, diff)
			}
		}
		rel := ex.relErr(X, U)
		resids = append(resids, rel)
		if limit := residFactor * r.m["eps2"]; rel > limit {
			return d, fmt.Errorf("block misses the exact product by %.3g (limit %.3g)", rel, limit)
		}
		return d, nil
	})
	loop.End()
	r.setOps(secs, probeCols)
	r.m["resid"] = firstMedian(resids, 10)
	if r.rec != nil {
		return r.probeLayers(ctx, h)
	}
	return nil
}

// runHessian: compress K02 in HSS mode, convert and factor it, then solve
// seeded right-hand sides directly, one caller.
func runHessian(ctx context.Context, r *runner) error {
	prob, err := spdmat.Generate("K02", r.n, matrixSeed)
	if err != nil {
		return err
	}
	cfg := r.config()
	cfg.Tol, cfg.Budget = 1e-10, 0
	cfg.CacheBlocks, cfg.CacheSingle = false, false
	var h *core.Hierarchical
	var f *hss.Factorization
	var convert, factor []float64
	err = r.setup(func(sp *telemetry.Span) error {
		var err error
		if h, err = r.compress(ctx, sp, prob.K, cfg); err != nil {
			return err
		}
		c := sp.StartSpan("hss:FromGOFMM")
		t0 := time.Now()
		hs, err := hss.FromGOFMM(h)
		convert = append(convert, time.Since(t0).Seconds())
		c.End()
		if err != nil {
			return err
		}
		c = sp.StartSpan("hss:FactorCtx")
		t0 = time.Now()
		f, err = hs.FactorCtx(ctx)
		factor = append(factor, time.Since(t0).Seconds())
		c.End()
		return err
	})
	if err != nil {
		return err
	}
	r.m["hss.convert_s"], r.m["hss.factor_s"] = median(convert), median(factor)
	r.m["hss.regularized_nodes"] = float64(f.RegularizedNodes)
	if err := r.accuracy(ctx, h); err != nil {
		return err
	}
	ex := newExactRows(prob.K)
	n := h.N()
	rng := rand.New(rand.NewSource(r.seed))
	warm := linalg.GaussianMatrix(rng, n, 1)
	for i := 0; i < 3; i++ {
		if _, err := f.SolveCtx(ctx, warm); err != nil {
			return err
		}
	}
	var resids []float64
	loop := r.root.StartSpan("bench:loop")
	secs := r.timed(func() (time.Duration, error) {
		b := linalg.GaussianMatrix(rng, n, 1)
		sp := loop.StartSpan("hss:SolveCtx")
		t0 := time.Now()
		x, err := f.SolveCtx(ctx, b)
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return d, err
		}
		rel := ex.residual(x, b, 0)
		resids = append(resids, rel)
		if rel > hssResidOK {
			return d, fmt.Errorf("HSS solution misses the exact system by %.3g (limit %.g)", rel, hssResidOK)
		}
		return d, nil
	})
	loop.End()
	r.setOps(secs, 1)
	// A solve's residual swings with its right-hand side (K02 is badly
	// conditioned), so it takes many solves to make the median steady.
	r.m["resid"] = firstMedian(resids, 1000)
	if r.rec != nil {
		return r.probeLayers(ctx, h)
	}
	return nil
}

// writeTrace writes the recorder's spans as a Chrome trace into dir
// (default .bench_build).
func writeTrace(rec *telemetry.Recorder, dir, name string) error {
	if dir == "" {
		dir = ".bench_build"
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
