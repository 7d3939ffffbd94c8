package gofmm

// Benchmarks of compression and evaluation scaling, ablations of the
// design choices called out in DESIGN.md (budget, distance metric,
// scheduler, caching, importance sampling) and micro-benchmarks of the
// linalg substrate. The paper's tables and figures run through
// `go run ./cmd/repro <id>`, whose -benchjson records them.

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"gofmm/internal/core"
	"gofmm/internal/experiments"
	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
)

// emitBenchRecord writes a machine-readable BENCH_<name>.json run record
// next to the usual testing.B output, so benchmark results can be archived
// and diffed without scraping text. The directory comes from GOFMM_BENCH_DIR
// (default: current directory).
func emitBenchRecord(b *testing.B, name string, rows []experiments.Result, metrics map[string]float64) {
	b.Helper()
	dir := os.Getenv("GOFMM_BENCH_DIR")
	if dir == "" {
		dir = "."
	}
	rr := telemetry.NewRunRecord(name)
	rr.Params["iterations"] = b.N
	rr.Metrics["ns_per_op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	for k, v := range metrics {
		rr.Metrics[k] = v
	}
	for _, res := range rows {
		rr.Rows = append(rr.Rows, res.Row())
	}
	if _, err := rr.WriteBenchFile(dir); err != nil {
		b.Fatalf("writing bench record: %v", err)
	}
}

// --- Compression / evaluation scaling ----------------------------------

func benchCompress(b *testing.B, n int, cfg core.Config) {
	p := experiments.GetProblem("K05", n, 1)
	b.ResetTimer()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		last = experiments.Run(p, cfg, 16, 1)
	}
	b.StopTimer()
	emitBenchRecord(b, b.Name(), []experiments.Result{last}, map[string]float64{
		"eps2": last.Eps, "compress_seconds": last.CompressS, "eval_seconds": last.EvalS,
	})
}

func BenchmarkCompressN1024(b *testing.B) {
	benchCompress(b, 1024, core.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-5, Budget: 0.03,
		Distance: core.Angle, Exec: core.Dynamic, NumWorkers: 2,
		CacheBlocks: true, Seed: 1,
	})
}

func BenchmarkCompressN4096(b *testing.B) {
	benchCompress(b, 4096, core.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-5, Budget: 0.03,
		Distance: core.Angle, Exec: core.Dynamic, NumWorkers: 2,
		CacheBlocks: true, Seed: 1,
	})
}

func BenchmarkMatvecOnly(b *testing.B) {
	p := experiments.GetProblem("K05", 2048, 1)
	h, err := core.Compress(p.K, core.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-5, Budget: 0.03,
		Distance: core.Angle, Exec: core.Dynamic, NumWorkers: 2,
		CacheBlocks: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	W := linalg.GaussianMatrix(rng, p.K.Dim(), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Matvec(W)
	}
	b.StopTimer()
	emitBenchRecord(b, b.Name(), nil, map[string]float64{
		"eval_seconds": h.Stats.EvalTime, "eval_gflops": h.Stats.EvalFlops / h.Stats.EvalTime / 1e9,
	})
}

// BenchmarkMatmatWidths sweeps the batched-evaluation block width on one
// compressed operator: matvecs/sec should climb with r as the GEMM-shaped
// passes amortize the traversal (repro pr4 gates the r=16 ratio in CI).
func BenchmarkMatmatWidths(b *testing.B) {
	p := experiments.GetProblem("K05", 2048, 1)
	h, err := core.Compress(p.K, core.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-5, Budget: 0.03,
		Distance: core.Angle, Exec: core.Sequential,
		CacheBlocks: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, r := range []int{1, 4, 16, 64} {
		W := linalg.GaussianMatrix(rng, p.K.Dim(), r)
		b.Run(fmt.Sprintf("r%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.Matmat(W)
			}
			b.StopTimer()
			rate := float64(r) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "matvecs/s")
			emitBenchRecord(b, b.Name(), nil, map[string]float64{"matvecs_per_sec": rate})
		})
	}
}

// --- Ablations ----------------------------------------------------------

func ablate(b *testing.B, cfg core.Config) {
	p := experiments.GetProblem("COVTYPE", 1024, 1)
	b.ResetTimer()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		last = experiments.Run(p, cfg, 16, 1)
		b.ReportMetric(last.Eps, "eps2")
	}
	b.StopTimer()
	emitBenchRecord(b, b.Name(), []experiments.Result{last}, map[string]float64{"eps2": last.Eps})
}

func baseCfg() core.Config {
	return core.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-5, Kappa: 32, Budget: 0.03,
		Distance: core.Angle, Exec: core.Dynamic, NumWorkers: 2,
		CacheBlocks: true, Seed: 1,
	}
}

func BenchmarkAblateBudget0(b *testing.B)  { c := baseCfg(); c.Budget = 0; ablate(b, c) }
func BenchmarkAblateBudget3(b *testing.B)  { ablate(b, baseCfg()) }
func BenchmarkAblateBudget12(b *testing.B) { c := baseCfg(); c.Budget = 0.12; ablate(b, c) }

func BenchmarkAblateAngle(b *testing.B)  { ablate(b, baseCfg()) }
func BenchmarkAblateKernel(b *testing.B) { c := baseCfg(); c.Distance = core.Kernel; ablate(b, c) }
func BenchmarkAblateLexico(b *testing.B) {
	c := baseCfg()
	c.Distance = core.Lexicographic
	c.Budget = 0
	ablate(b, c)
}

func BenchmarkAblateDynamic(b *testing.B) { ablate(b, baseCfg()) }
func BenchmarkAblateLevel(b *testing.B)   { c := baseCfg(); c.Exec = core.LevelByLevel; ablate(b, c) }
func BenchmarkAblateTaskDep(b *testing.B) { c := baseCfg(); c.Exec = core.TaskDepend; ablate(b, c) }

func BenchmarkAblateCacheOn(b *testing.B)  { ablate(b, baseCfg()) }
func BenchmarkAblateCacheOff(b *testing.B) { c := baseCfg(); c.CacheBlocks = false; ablate(b, c) }

func BenchmarkAblateSample2x(b *testing.B) {
	c := baseCfg()
	c.SampleRows = 2 * c.MaxRank
	ablate(b, c)
}

// --- linalg micro-benchmarks --------------------------------------------

func BenchmarkGemm512(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	A := linalg.GaussianMatrix(rng, 512, 512)
	B := linalg.GaussianMatrix(rng, 512, 512)
	C := linalg.NewMatrix(512, 512)
	b.SetBytes(3 * 512 * 512 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.Gemm(false, false, 1, A, B, 0, C)
	}
	b.ReportMetric(2*512*512*512/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
}

func BenchmarkQRCP256(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	A := linalg.GaussianMatrix(rng, 512, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.QRColumnPivot(A, 0, 0)
	}
}

func BenchmarkInterpDecomp(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	U := linalg.GaussianMatrix(rng, 512, 32)
	V := linalg.GaussianMatrix(rng, 32, 256)
	A := linalg.MatMul(false, false, U, V)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.InterpDecomp(A, 1e-10, 64)
	}
}

func BenchmarkBandedCholesky(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nx := 32
		n := nx * nx
		bd := linalg.NewBandedSPD(n, nx)
		for j := 0; j < n; j++ {
			bd.Set(j, j, 4.1)
			if (j+1)%nx != 0 {
				bd.Set(j+1, j, -1)
			}
			if j+nx < n {
				bd.Set(j+nx, j, -1)
			}
		}
		b.StartTimer()
		if err := bd.CholeskyInPlace(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateCacheSingle(b *testing.B) {
	c := baseCfg()
	c.CacheSingle = true
	ablate(b, c)
}

// BenchmarkMatvecFreshBuffers times the sequential tree interpreter on
// K05 at n = 1024 with four right-hand sides; every call allocates its own
// scratch.
func BenchmarkMatvecFreshBuffers(b *testing.B) {
	p := experiments.GetProblem("K05", 1024, 1)
	h, err := core.Compress(p.K, baseCfg())
	if err != nil {
		b.Fatal(err)
	}
	W := linalg.GaussianMatrix(rand.New(rand.NewSource(7)), p.K.Dim(), 4)
	h.Cfg.Exec = core.Sequential
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Matvec(W)
	}
}
