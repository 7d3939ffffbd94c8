package experiments

import (
	"io"
	"strings"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/sched"
	"gofmm/internal/telemetry"
)

// Table5 reproduces Table 5 (#27–#46): GOFMM across "architectures". The
// paper's four platforms map to worker-pool configurations (see DESIGN.md):
//
//	ARM   → 1 plain worker (a small, slow node)
//	CPU   → 4 homogeneous workers
//	CPU+GPU → 4 workers + 1 accelerator worker (8× speed estimate,
//	          batches of 8, no stealing, L2L pinned — §2.3's device)
//	KNL   → 8 thin workers (many-core, weaker per-core)
//
// Rows report ε₂, compression and evaluation time, and achieved GFLOPS, so
// the paper's observation — GEMM-heavy tasks (L2L) belong on the fat
// worker, small-rank tasks (N2S/S2N) on plain cores — can be read off the
// scheduling outcome.
func Table5(w io.Writer, n int, seed int64) []Result {
	archs := []struct {
		name  string
		specs []sched.WorkerSpec
	}{
		{"ARM-like", sched.Homogeneous(1)},
		{"CPU", sched.Homogeneous(4)},
		{"CPU+ACC", append(sched.Homogeneous(4),
			sched.WorkerSpec{Speed: 8, Batch: 8, NoSteal: true, Accelerator: true})},
		{"KNL-like", sched.Homogeneous(8)},
	}
	cases := []struct {
		prob    string
		m, s, r int
		budget  float64
	}{
		{"MNIST", 128, 64, 64, 0.05},
		{"COVTYPE", 128, 128, 128, 0.12},
		{"HIGGS", 128, 64, 128, 0.003},
		{"K02", 128, 128, 128, 0.03},
		{"K15", 128, 128, 128, 0.10},
		{"G03", 64, 128, 128, 0.03},
		{"G04", 128, 128, 128, 0.03},
	}
	header(w, "case", "arch", "eps2", "compress(s)", "GFs", "eval(s)", "GFs", "L2L@acc")
	var out []Result
	for _, c := range cases {
		p := GetProblem(c.prob, n, seed)
		for _, a := range archs {
			cfg := core.Config{
				LeafSize: c.m, MaxRank: c.s, Tol: 1e-5, Kappa: 32,
				Budget: c.budget, Distance: core.Angle, Exec: core.Dynamic,
				WorkerSpecs: a.specs, CacheBlocks: true, Seed: seed,
			}
			res, placed := runTraced(p, cfg, c.r, seed)
			res.Experiment = "table5"
			res.Scheme = a.name
			out = append(out, res)
			cell(w, "%s", c.prob)
			cell(w, "%s", a.name)
			cell(w, "%.1e", res.Eps)
			cell(w, "%.3f", res.CompressS)
			cell(w, "%.2f", res.CompressGF)
			cell(w, "%.4f", res.EvalS)
			cell(w, "%.2f", res.EvalGF)
			if a.name == "CPU+ACC" {
				cell(w, "%.0f%%", 100*placed)
			} else {
				cell(w, "%s", "-")
			}
			endRow(w)
		}
	}
	return out
}

// runTraced runs the workload and, when the pool has accelerator workers,
// reports the fraction of L2L tasks placed on them — the paper's #45
// observation ("we enforce our scheduler to schedule L2L tasks to the GPU").
func runTraced(p Problem, cfg core.Config, r int, seed int64) (Result, float64) {
	accel := map[int]bool{}
	for wIdx, spec := range cfg.WorkerSpecs {
		if spec.Accelerator {
			accel[wIdx] = true
		}
	}
	if len(accel) == 0 {
		return Run(p, cfg, r, seed), 0
	}
	if cfg.Points == nil {
		cfg.Points = p.Points
	}
	traced := cfg
	rec := telemetry.New()
	traced.Telemetry = rec
	h, err := core.Compress(p.K, traced)
	if err != nil {
		panic(err)
	}
	compressEvents := len(rec.TaskEvents())
	res := Run(p, cfg, r, seed) // timing row from a clean run
	// Placement from a traced evaluation of the same compression: the
	// recorder's task events after the compression's.
	W := linalg.GaussianMatrix(randNew(seed), p.K.Dim(), r)
	h.Matvec(W)
	l2l, on := 0, 0
	for _, ev := range rec.TaskEvents()[compressEvents:] {
		if strings.HasPrefix(ev.Name, "L2L") {
			l2l++
			if accel[ev.Worker] {
				on++
			}
		}
	}
	if l2l == 0 {
		return res, 0
	}
	return res, float64(on) / float64(l2l)
}
