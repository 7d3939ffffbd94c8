package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/experiments"
	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
	"gofmm/internal/workspace"
)

// pr8Bench measures the PR 8 compiled evaluation plans: steady-state
// Matvec/Matmat through the flat replayable schedule versus the tree
// interpreter on the same compressed operator and configuration. The
// headline gate metrics are plan_x_speedup_r1 (compiled single-vector
// Matvec must deliver ≥2× the interpreter's throughput) and
// plan_allocs_per_op ≤ interp_allocs_per_op (replay must not allocate more
// than the tree walk it replaces). The record also reports how close the
// replay gets to raw GEMM throughput (gemm_fraction_r16). Best-of-R
// wall-clock, same rationale as pr4Bench.
func pr8Bench(w io.Writer, n int, seed int64, rec *telemetry.Recorder) *telemetry.RunRecord {
	rr := telemetry.NewRunRecord("pr8")
	rr.Params["n"] = n
	rr.Params["seed"] = seed

	p := experiments.GetProblem("K02", n, seed)
	// Leaf 64 with single-precision cached blocks is the serving-shaped
	// regime: the operator's working set at n=8192 (~35 MB of blocks in
	// f64) no longer fits cache, so the replay's advantage is decided by
	// bytes moved and per-block dispatch — exactly what the compiled plan
	// (f32 blocks + fused 8-column GEMV kernels + no tree walk) optimizes.
	cfg := core.Config{
		LeafSize: 64, MaxRank: 64, Tol: 1e-5, Kappa: 32, Budget: 0.03,
		Distance: core.Angle, Exec: core.Dynamic, NumWorkers: 4, Seed: seed,
		CacheBlocks: true, CacheSingle: true, Workspace: workspace.New(), Telemetry: rec,
	}
	h, err := core.Compress(p.K, cfg)
	if err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	dim := p.K.Dim()
	rng := rand.New(rand.NewSource(seed))

	pl, err := h.CompilePlan()
	if err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	rr.Metrics["compile_ms"] = h.Stats.PlanTime * 1e3
	rr.Metrics["plan_ops"] = float64(pl.NumOps())
	rr.Metrics["plan_stages"] = float64(pl.NumStages())
	rr.Metrics["plan_tasks"] = float64(pl.NumTasks())
	rr.Metrics["plan_batched_gemms"] = float64(pl.BatchedGemms())
	rr.Metrics["plan_gemm_batches"] = float64(pl.GemmBatches())
	fmt.Fprintf(w, "compiled %s in %.1f ms\n", pl, h.Stats.PlanTime*1e3)

	best := func(reps int, f func()) time.Duration {
		f() // warm up caches, workspace pool and replay state
		b := time.Duration(1 << 62)
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0); d < b {
				b = d
			}
		}
		return b
	}
	allocsPer := func(loops int, f func()) float64 {
		f() // warm pools outside the window
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < loops; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(loops)
	}
	mustEval := func(f func() (*linalg.Matrix, error)) {
		if _, err := f(); err != nil {
			panic(err)
		}
	}

	fmt.Fprintf(w, "%-4s %12s %12s %9s\n", "r", "interp ms", "plan ms", "speedup")
	for _, r := range []int{1, 16} {
		W := linalg.GaussianMatrix(rng, dim, r)
		interp := best(5, func() {
			mustEval(func() (*linalg.Matrix, error) { return h.InterpMatmatCtx(context.Background(), W) })
		})
		plan := best(5, func() {
			mustEval(func() (*linalg.Matrix, error) { return h.MatmatCtx(context.Background(), W) })
		})
		speedup := interp.Seconds() / plan.Seconds()
		rr.Metrics[fmt.Sprintf("interp_ms_r%d", r)] = interp.Seconds() * 1e3
		rr.Metrics[fmt.Sprintf("plan_ms_r%d", r)] = plan.Seconds() * 1e3
		rr.Metrics[fmt.Sprintf("plan_x_speedup_r%d", r)] = speedup
		fmt.Fprintf(w, "%-4d %12.2f %12.2f %8.2fx\n", r, interp.Seconds()*1e3, plan.Seconds()*1e3, speedup)
		if r == 16 {
			gflops := pl.FlopsPerCol() * 16 / plan.Seconds() / 1e9
			rr.Metrics["plan_gflops_r16"] = gflops
			fmt.Fprintf(w, "replay throughput at r=16: %.1f GFLOPS\n", gflops)
		}
	}

	// Allocation discipline: a steady-state replay may allocate the output
	// matrix and little else; the gate requires it never exceeds the
	// interpreter it replaces.
	W1 := linalg.GaussianMatrix(rng, dim, 1)
	interpAllocs := allocsPer(32, func() {
		mustEval(func() (*linalg.Matrix, error) { return h.InterpMatvecCtx(context.Background(), W1) })
	})
	planAllocs := allocsPer(32, func() {
		mustEval(func() (*linalg.Matrix, error) { return h.MatvecCtx(context.Background(), W1) })
	})
	rr.Metrics["interp_allocs_per_op"] = interpAllocs
	rr.Metrics["plan_allocs_per_op"] = planAllocs
	fmt.Fprintf(w, "allocs/op at r=1: interpreter %.1f, plan %.1f\n", interpAllocs, planAllocs)

	// Raw GEMM yardstick: one plan-op-shaped dense multiply (64×64
	// constant against a 64×16 operand, the modal near/far block shape at
	// leaf 64) at the same per-call granularity the replay dispatches.
	A := linalg.GaussianMatrix(rng, 64, 64)
	B := linalg.GaussianMatrix(rng, 64, 16)
	C := linalg.NewMatrix(64, 16)
	const gemmLoop = 2048
	gemmBest := best(5, func() {
		for i := 0; i < gemmLoop; i++ {
			linalg.Gemm(false, false, 1, A, B, 0, C)
		}
	})
	gemmGflops := gemmLoop * 2.0 * 64 * 64 * 16 / gemmBest.Seconds() / 1e9
	rr.Metrics["gemm_gflops"] = gemmGflops
	if g, ok := rr.Metrics["plan_gflops_r16"]; ok && gemmGflops > 0 {
		rr.Metrics["gemm_fraction_r16"] = g / gemmGflops
		fmt.Fprintf(w, "raw GEMM %.1f GFLOPS; replay reaches %.0f%% of it\n",
			gemmGflops, 100*g/gemmGflops)
	}
	return rr
}
