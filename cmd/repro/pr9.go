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
	"gofmm/internal/experiments"
	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
	"gofmm/internal/workspace"
)

// pr9Bench measures the PR 9 on-disk operator store: the time from a cold
// start to the first served matvec, compressing from the oracle versus
// mmap-loading a previously saved store file. The headline gate metric is
// store_x_speedup (the mmap load must reach its first matvec ≥10× faster
// than Compress+CompilePlan), with store_mapped confirming the arena was
// actually mapped (no copy at load) and store_allocs_per_op confirming the
// loaded operator's steady state allocates no more than the in-memory plan
// replay it is byte-for-byte equivalent to.
func pr9Bench(w io.Writer, n int, seed int64, rec *telemetry.Recorder) *telemetry.RunRecord {
	rr := telemetry.NewRunRecord("pr9")
	rr.Params["n"] = n
	rr.Params["seed"] = seed

	p := experiments.GetProblem("K02", n, seed)
	// The serving-shaped regime from pr8Bench: leaf 64, f32 cached blocks,
	// compiled plan — the configuration a store file exists to persist.
	cfg := core.Config{
		LeafSize: 64, MaxRank: 64, Tol: 1e-5, Kappa: 32, Budget: 0.03,
		Distance: core.Angle, Exec: core.Dynamic, NumWorkers: 4, Seed: seed,
		CacheBlocks: true, CacheSingle: true, Workspace: workspace.New(), Telemetry: rec,
	}
	dim := p.K.Dim()
	rng := rand.New(rand.NewSource(seed))
	W := linalg.GaussianMatrix(rng, dim, 1)
	ctx := context.Background()

	// Cold start A: oracle → compressed operator → compiled plan → first
	// matvec. This is what a restarting daemon pays without a store file.
	t0 := time.Now()
	h, err := core.CompressCtx(ctx, p.K, cfg)
	if err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	if _, err := h.CompilePlanCtx(ctx); err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	want, err := h.MatvecCtx(ctx, W)
	if err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	compressPath := time.Since(t0)
	rr.Metrics["compress_to_first_matvec_ms"] = compressPath.Seconds() * 1e3

	dir, err := os.MkdirTemp("", "gofmm-pr9-")
	if err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "pr9.store")
	t0 = time.Now()
	nb, err := h.SaveTo(path)
	if err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	rr.Metrics["save_ms"] = time.Since(t0).Seconds() * 1e3
	rr.Metrics["store_bytes"] = float64(nb)

	// Cold start B: store file → mapped operator → first matvec. The load
	// verifies section checksums, rebuilds the tree and lowers the plan
	// again, but moves no arena bytes: the blocks serve
	// straight from the page cache (warm here — the file was just written —
	// matching a daemon restart, the scenario the store exists for).
	t0 = time.Now()
	h2, info, err := core.LoadFrom(path, core.LoadOptions{Mmap: true, NumWorkers: 4, Telemetry: rec})
	if err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	got, err := h2.MatvecCtx(ctx, W)
	if err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	storePath := time.Since(t0)
	rr.Metrics["store_to_first_matvec_ms"] = storePath.Seconds() * 1e3
	rr.Metrics["store_mapped"] = 0
	if info.Mapped {
		rr.Metrics["store_mapped"] = 1
	}
	speedup := compressPath.Seconds() / storePath.Seconds()
	rr.Metrics["store_x_speedup"] = speedup
	identical := 0.0
	if linalg.EqualApprox(want, got, 0) {
		identical = 1
	}
	rr.Metrics["bit_identical"] = identical

	fmt.Fprintf(w, "cold start to first matvec at n=%d:\n", dim)
	fmt.Fprintf(w, "  compress+compile  %10.1f ms\n", compressPath.Seconds()*1e3)
	fmt.Fprintf(w, "  mmap load         %10.1f ms   (%d-byte store, mapped=%v)\n",
		storePath.Seconds()*1e3, nb, info.Mapped)
	fmt.Fprintf(w, "  speedup           %10.1fx   (bit-identical result: %v)\n",
		speedup, identical == 1)

	// Cold start C (reference only): the portable read path — same
	// validation, arena copied instead of mapped.
	t0 = time.Now()
	h3, info3, err := core.LoadFrom(path, core.LoadOptions{Mmap: false, NumWorkers: 4})
	if err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	if _, err := h3.MatvecCtx(ctx, W); err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	portablePath := time.Since(t0)
	rr.Metrics["portable_to_first_matvec_ms"] = portablePath.Seconds() * 1e3
	fmt.Fprintf(w, "  portable load     %10.1f ms   (mapped=%v)\n",
		portablePath.Seconds()*1e3, info3.Mapped)
	if err := h3.ReleaseStore(); err != nil {
		fmt.Fprintln(w, err)
	}

	// Steady state: the mapped operator must allocate no more per matvec
	// than the in-memory plan replay — zero arena copies means the only
	// allocations left are the output matrix and replay scratch, which the
	// two share exactly. One window's average also counts whatever the
	// runtime allocated meanwhile, so allocsPer takes turns between the
	// operators over six 32-call windows and keeps each one's fewest: noise
	// only ever adds, while a real extra allocation per call shows in every
	// window.
	allocsPer := func(ops ...*core.Hierarchical) []float64 {
		best := make([]float64, len(ops))
		for i := range best {
			best[i] = math.Inf(1)
		}
		for window := 0; window < 6; window++ {
			for i, h := range ops {
				if _, err := h.MatvecCtx(ctx, W); err != nil { // warm pools outside the window
					panic(err)
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for k := 0; k < 32; k++ {
					if _, err := h.MatvecCtx(ctx, W); err != nil {
						panic(err)
					}
				}
				runtime.ReadMemStats(&m1)
				best[i] = math.Min(best[i], float64(m1.Mallocs-m0.Mallocs)/32)
			}
		}
		return best
	}
	allocs := allocsPer(h, h2)
	planAllocs, storeAllocs := allocs[0], allocs[1]
	rr.Metrics["plan_allocs_per_op"] = planAllocs
	rr.Metrics["store_allocs_per_op"] = storeAllocs
	fmt.Fprintf(w, "allocs/op at r=1: in-memory replay %.1f, mapped store %.1f\n",
		planAllocs, storeAllocs)

	if err := h2.ReleaseStore(); err != nil {
		fmt.Fprintln(w, err)
	}
	return rr
}
