package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/plan"
	"gofmm/internal/resilience"
	"gofmm/internal/workspace"
)

// planConfig is a small compressible fixture config exercising near+far
// lists, adaptive ranks and the dynamic executor.
func planConfig() Config {
	return Config{
		LeafSize: 32, MaxRank: 48, Tol: 1e-5, Kappa: 8, Budget: 0.05,
		Distance: Angle, Exec: Sequential, Seed: 7, CacheBlocks: true,
	}
}

// TestCompiledPlanMatchesInterpreter is the lowering smoke test: the
// compiled replay must reproduce the tree interpreter to near machine
// precision on the same operator, across caching regimes (cached float64,
// cached float32, uncached), list modes (symmetrized, where pairs share a
// block, and NoSymmetrize, where one-sided pairs keep their own) and RHS
// widths. The cached cases also run every kernel-choice edge of the
// constant-operand entries (the GEMV-to-micro-kernel crossovers, ragged
// 6-column panels and 3-column dot tiles, transposed S2N and mirror
// records), and the fixed-rank cases have records with k > 256, so the
// micro-kernel splits k into blocks.
func TestCompiledPlanMatchesInterpreter(t *testing.T) {
	narrow := []int{1, 3, 8}
	wide := []int{1, 2, 3, 5, 6, 7, 8, 16, 17}
	fixedRank := func(c *Config) { c.Tol, c.MaxRank, c.LeafSize = 1e-12, 160, 320 }
	cases := []struct {
		name   string
		n      int
		widths []int
		mut    func(*Config)
	}{
		{"cached", 384, wide, func(c *Config) {}},
		{"cached32", 384, wide, func(c *Config) { c.CacheSingle = true }},
		{"uncached", 384, narrow, func(c *Config) { c.CacheBlocks = false }},
		{"hss", 384, narrow, func(c *Config) { c.Budget = 0 }},
		// The benchmark's configuration: Config.Workspace counts the arenas.
		{"pooled", 384, narrow, func(c *Config) { c.Workspace = workspace.New() }},
		{"fixedrank", 1280, wide, fixedRank},
		{"fixedrank32", 1280, wide, func(c *Config) { fixedRank(c); c.CacheSingle = true }},
		{"nosym", 384, []int{1, 5, 16}, func(c *Config) { c.NoSymmetrize = true }},
		{"nosym32", 384, []int{1, 5, 16}, func(c *Config) { c.NoSymmetrize, c.CacheSingle = true, true }},
		{"nosym-uncached", 384, []int{1, 5, 16}, func(c *Config) { c.NoSymmetrize, c.CacheBlocks = true, false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := planConfig()
			tc.mut(&cfg)
			h, _ := compressGauss(t, tc.n, cfg)
			p, err := h.CompilePlan()
			if err != nil {
				t.Fatal(err)
			}
			if h.Plan() != p {
				t.Fatal("Plan() does not return the installed plan")
			}
			if cfg.LeafSize > 256 && maxGemmK(p) <= 256 {
				t.Fatalf("largest GEMM inner dimension %d, want a record with k > 256", maxGemmK(p))
			}
			rng := rand.New(rand.NewSource(11))
			for _, r := range tc.widths {
				W := linalg.GaussianMatrix(rng, tc.n, r)
				ref, err := h.InterpMatmatCtx(context.Background(), W)
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.MatmatCtx(context.Background(), W)
				if err != nil {
					t.Fatal(err)
				}
				if d := linalg.RelFrobDiff(got, ref); d > 1e-13 {
					t.Fatalf("r=%d: compiled replay differs from interpreter by %g", r, d)
				}
			}
		})
	}
}

// maxGemmK returns the largest inner dimension of the plan's GEMM records.
func maxGemmK(p *plan.Plan) int {
	k := 0
	for _, op := range p.Ops() {
		if op.Kind == plan.OpGemm {
			k = max(k, op.B.Rows)
		}
	}
	return k
}

// TestCompiledPlanParallelReplayBitIdentical pins the replay determinism
// contract at the core layer: sequential replay and worker-pool replay of
// the same plan produce the exact same bits.
func TestCompiledPlanParallelReplayBitIdentical(t *testing.T) {
	cfg := planConfig()
	h, _ := compressGauss(t, 384, cfg)
	if _, err := h.CompilePlan(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	W := linalg.GaussianMatrix(rng, 384, 4)
	seq, err := h.MatmatCtx(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	h.Cfg.Exec = Dynamic
	h.Cfg.NumWorkers = 8
	par, err := h.MatmatCtx(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < seq.Cols; j++ {
		a, b := seq.Col(j), par.Col(j)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("replay differs at (%d,%d): %v vs %v", i, j, a[i], b[i])
			}
		}
	}
}

// TestCompileViaConfigAndDropPlan covers compiling after Compress and the
// DropPlan escape hatch.
func TestCompileViaConfigAndDropPlan(t *testing.T) {
	h, _ := compressGauss(t, 256, planConfig())
	if _, err := h.CompilePlan(); err != nil {
		t.Fatal(err)
	}
	if h.Plan() == nil {
		t.Fatal("CompilePlan did not install a plan")
	}
	if h.Stats.PlanTime < 0 {
		t.Fatal("negative PlanTime")
	}
	h.DropPlan()
	if h.Plan() != nil {
		t.Fatal("DropPlan left the plan installed")
	}
}

// matvecInto runs MatvecInto into a fresh n×k output and fails the test on
// error.
func matvecInto(t *testing.T, h *Hierarchical, W *linalg.Matrix) *linalg.Matrix {
	t.Helper()
	U := linalg.NewMatrix(W.Rows, W.Cols)
	if err := h.MatvecInto(context.Background(), W, U); err != nil {
		t.Fatal(err)
	}
	return U
}

// TestEvaluatorMatchesMatvec checks that the reusable evaluation path,
// MatvecInto, agrees with Matvec bit for bit on both engines and with or
// without a near-field budget.
func TestEvaluatorMatchesMatvec(t *testing.T) {
	for _, budget := range []float64{0, 0.15} {
		h, _ := compressGauss(t, 400, Config{
			LeafSize: 32, MaxRank: 24, Tol: 1e-6, Kappa: 8, Budget: budget,
			Distance: Kernel, Exec: Sequential, Seed: 150, CacheBlocks: true,
		})
		rng := rand.New(rand.NewSource(151))
		for _, compiled := range []bool{false, true} {
			if compiled {
				if _, err := h.CompilePlan(); err != nil {
					t.Fatal(err)
				}
			}
			for trial := 0; trial < 3; trial++ {
				W := linalg.GaussianMatrix(rng, 400, 3)
				want := h.Matvec(W)
				got := matvecInto(t, h, W)
				if !linalg.EqualApprox(got, want, 0) {
					t.Fatalf("budget %g compiled=%v trial %d: MatvecInto differs (max |Δ| = %g)",
						budget, compiled, trial, maxAbsDiff(got, want))
				}
			}
		}
	}
}

// TestEvaluatorRepeatedCallsIndependent checks that a different input in
// between must not contaminate a repeat MatvecInto call, on either engine.
func TestEvaluatorRepeatedCallsIndependent(t *testing.T) {
	cfg := Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-6, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 152, CacheBlocks: true,
	}
	h, _ := compressGauss(t, 300, cfg)
	rng := rand.New(rand.NewSource(153))
	W := linalg.GaussianMatrix(rng, 300, 2)
	for _, compiled := range []bool{false, true} {
		if compiled {
			if _, err := h.CompilePlan(); err != nil {
				t.Fatal(err)
			}
		}
		first := matvecInto(t, h, W)
		matvecInto(t, h, linalg.GaussianMatrix(rng, 300, 2))
		second := matvecInto(t, h, W)
		if !linalg.EqualApprox(first, second, 0) {
			t.Fatalf("compiled=%v: state leaked between MatvecInto calls", compiled)
		}
	}
}

// TestEvaluatorReplaysPlan checks that MatvecInto follows the installed
// engine: compiled it agrees with the interpreter to 1e-13 (the replay uses
// beta-0 writes where the interpreter zeroes then accumulates), and replays
// into the same U are bit-identical to each other and to Matvec.
func TestEvaluatorReplaysPlan(t *testing.T) {
	h, _ := compressGauss(t, 256, planConfig())
	rng := rand.New(rand.NewSource(13))
	W := linalg.GaussianMatrix(rng, 256, 2)
	want := matvecInto(t, h, W)
	if _, err := h.CompilePlan(); err != nil {
		t.Fatal(err)
	}
	got := matvecInto(t, h, W)
	if d := linalg.RelFrobDiff(got, want); d > 1e-13 {
		t.Fatalf("compiled MatvecInto differs from the interpreter by %g", d)
	}
	again := linalg.NewMatrix(256, 2)
	if err := h.MatvecInto(context.Background(), W, again); err != nil {
		t.Fatal(err)
	}
	if err := h.MatvecInto(context.Background(), W, got); err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(got, again, 0) || !linalg.EqualApprox(got, h.Matvec(W), 0) {
		t.Fatal("compiled MatvecInto replays are not bit-identical")
	}
}

// TestMatvecIntoRejectsWrongShape pins the typed-error contract on both
// engines: a nil or mis-shaped W or U returns ErrInvalidInput, never a
// panic and never a partial write.
func TestMatvecIntoRejectsWrongShape(t *testing.T) {
	h, _ := compressGauss(t, 200, Config{
		LeafSize: 32, Kappa: 8, Budget: 0, Distance: Kernel,
		Exec: Sequential, Seed: 154, Tol: 1e-4, CacheBlocks: true,
	})
	ctx := context.Background()
	W := linalg.NewMatrix(200, 2)
	cases := []struct {
		name string
		W, U *linalg.Matrix
	}{
		{"nil W", nil, linalg.NewMatrix(200, 2)},
		{"nil U", W, nil},
		{"short W", linalg.NewMatrix(199, 2), linalg.NewMatrix(200, 2)},
		{"short U", W, linalg.NewMatrix(199, 2)},
		{"narrow U", W, linalg.NewMatrix(200, 1)},
		{"wide U", W, linalg.NewMatrix(200, 3)},
	}
	for _, compiled := range []bool{false, true} {
		if compiled {
			if _, err := h.CompilePlan(); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range cases {
			if err := h.MatvecInto(ctx, tc.W, tc.U); !errors.Is(err, resilience.ErrInvalidInput) {
				t.Errorf("compiled=%v %s: got %v, want ErrInvalidInput", compiled, tc.name, err)
			}
		}
	}
}

// TestMatvecIntoAllocs is the zero-allocation contract of the replay
// engine: on a compiled, Sequential operator with telemetry off, a
// steady-state MatvecInto allocates nothing at any width, with float64 and
// with float32 cached blocks.
func TestMatvecIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries")
	}
	for _, single := range []bool{false, true} {
		cfg := planConfig()
		cfg.CacheSingle = single
		const n = 1024
		h, _ := compressGauss(t, n, cfg)
		if _, err := h.CompilePlan(); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		rng := rand.New(rand.NewSource(14))
		for _, r := range []int{1, 2, 4, 16} {
			W := linalg.GaussianMatrix(rng, n, r)
			U := linalg.NewMatrix(n, r)
			allocs := testing.AllocsPerRun(20, func() {
				if err := h.MatvecInto(ctx, W, U); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("CacheSingle=%v r=%d: MatvecInto made %v allocs/op, want 0", single, r, allocs)
			}
		}
	}
}
