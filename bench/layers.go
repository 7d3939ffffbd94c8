package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/plan"
	"gofmm/internal/telemetry"
)

// probeLayers measures, in the traced pass, the per-layer numbers of the
// workload's operator: the compiled plan's shape and its replay rates at
// width 1 and 16, the store round trip and the replay speed-up from a
// second worker, the workspace pool's hit rate, and the kernel yardsticks
// the replay rates are read against.
func (r *runner) probeLayers(ctx context.Context, h *core.Hierarchical) error {
	sp := r.root.StartSpan("bench:probe")
	defer sp.End()
	if err := compile(ctx, sp, h); err != nil {
		return err
	}
	p := h.Plan()
	r.m["plan.compile_ms"] = h.Stats.PlanTime * 1e3
	r.m["plan.ops"], r.m["plan.stages"] = float64(p.NumOps()), float64(p.NumStages())
	r.m["plan.tasks"], r.m["plan.batched_gemms"] = float64(p.NumTasks()), float64(p.BatchedGemms())
	r.m["plan.flops_per_col"] = p.FlopsPerCol()
	r.m["plan.bytes_per_col"] = planBytes(p)

	rng := rand.New(rand.NewSource(r.seed + 1))
	w1 := linalg.GaussianMatrix(rng, h.N(), 1)
	w16 := linalg.GaussianMatrix(rng, h.N(), probeCols)
	// Matvecs and matmats alternate so that their ratio does not carry the
	// shared machine's drift.
	s, err := sampleRounds(sp, r.phase*2/5, 3,
		timedCall{"plan:MatvecCtx", 4, func() error { _, err := h.MatvecCtx(ctx, w1); return err }},
		timedCall{"plan:MatmatCtx", 1, func() error { _, err := h.MatmatCtx(ctx, w16); return err }})
	if err != nil {
		return err
	}
	lv, lm := summarize(s[0]), summarize(s[1])
	r.m["plan.matvec_ms_p50"], r.m["plan.matvec_ms_tail"] = lv.p50, lv.tail
	r.m["plan.matvec.tail_q"] = lv.q
	r.m["plan.matmat16_ms_p50"] = lm.p50
	r.m["plan.gflops_r1"] = p.FlopsPerCol() / lv.p50 / 1e6
	r.m["plan.gflops_r16"] = probeCols * p.FlopsPerCol() / lm.p50 / 1e6
	r.m["plan.wide_vs_looped"] = probeCols * lv.p50 / lm.p50
	r.m["linalg.gemm_gflops"], r.m["linalg.gemm512_gflops"], r.m["linalg.gemv_gflops"] = kernelRates(r.phase / 100)
	r.m["plan.gemm_fraction_r16"] = r.m["plan.gflops_r16"] / r.m["linalg.gemm_gflops"]

	if err := r.probeStore(ctx, sp, h, w1); err != nil {
		return err
	}
	st := r.pool.Stats()
	r.m["workspace.hit_frac"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	return nil
}

// probeStore saves the operator, maps it back with two workers and with
// one, and times the load and first replay of the two-worker copy, steady
// width-1 replays of both copies (alternating), and the allocations of an
// untraced replay.
func (r *runner) probeStore(ctx context.Context, sp *telemetry.Span, h *core.Hierarchical, w1 *linalg.Matrix) error {
	path := filepath.Join(r.dir, "probe.store")
	defer os.Remove(path)
	c := sp.StartSpan("store:SaveTo")
	t0 := time.Now()
	nb, err := h.SaveTo(path)
	r.m["store.save_ms"] = time.Since(t0).Seconds() * 1e3
	c.End()
	if err != nil {
		return err
	}
	r.m["store.bytes"] = float64(nb)
	var matvecs []timedCall
	for _, workers := range []int{2, 1} {
		opts := r.loadOptions(workers)
		opts.Telemetry = nil // replays of the untraced program
		c := sp.StartSpan("store:LoadFrom")
		t0 := time.Now()
		g, info, err := core.LoadFrom(path, opts)
		load := time.Since(t0)
		c.End()
		if err != nil {
			return err
		}
		defer func() {
			if err := g.ReleaseStore(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			}
		}()
		matvec := func() error { _, err := g.MatvecCtx(ctx, w1); return err }
		if workers == 2 {
			t0 = time.Now()
			if err := matvec(); err != nil {
				return err
			}
			r.m["store.load_ms"], r.m["store.first_matvec_ms"] = load.Seconds()*1e3, time.Since(t0).Seconds()*1e3
			r.m["store.mapped"] = 0
			if info.Mapped {
				r.m["store.mapped"] = 1
			}
			if r.m["plan.allocs_per_op"], err = allocsPerCall(matvec, 10); err != nil {
				return err
			}
		}
		matvecs = append(matvecs, timedCall{"plan:MatvecCtx", 1, matvec})
	}
	s, err := sampleRounds(sp, r.phase/5, 10, matvecs...)
	if err != nil {
		return err
	}
	r.m["sched.replay_speedup_2w"] = median(s[1]) / median(s[0])
	return nil
}

// timedCall is one call sampleRounds times, reps times a round.
type timedCall struct {
	span string
	reps int
	call func() error
}

// sampleRounds warms every call up once, then times them round-robin, each
// call under its own span, for at least minRounds rounds and until budget
// is spent. Calls compared with each other thus see the same drift of a
// shared machine. It returns the durations of each call in seconds.
func sampleRounds(parent *telemetry.Span, budget time.Duration, minRounds int, calls ...timedCall) ([][]float64, error) {
	for _, c := range calls {
		if err := c.call(); err != nil {
			return nil, err
		}
	}
	out := make([][]float64, len(calls))
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		for i, c := range calls {
			for k := 0; k < c.reps; k++ {
				sp := parent.StartSpan(c.span)
				t0 := time.Now()
				err := c.call()
				d := time.Since(t0)
				sp.End()
				if err != nil {
					return nil, err
				}
				out[i] = append(out[i], d.Seconds())
			}
		}
	}
	return out, nil
}

// allocsPerCall is the mean number of heap allocations of k calls.
func allocsPerCall(call func() error, k int) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < k; i++ {
		if err := call(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(k), nil
}

// planBytes is the computed traffic of one width-1 replay: every constant
// operand once, plus the arena, input and output rows each op reads or
// writes, at eight bytes a row. It ignores caches, so it is an upper bound
// on what a replay moves from memory.
func planBytes(p *plan.Plan) float64 {
	var b float64
	for _, op := range p.Ops() {
		switch op.Kind {
		case plan.OpGemm:
			if op.A32 != nil {
				b += 4 * float64(op.A32.Rows*op.A32.Cols)
			} else {
				b += 8 * float64(op.A.Rows*op.A.Cols)
			}
			b += 8 * float64(op.B.Rows+op.C.Rows)
		case plan.OpCopy, plan.OpAdd:
			b += 8 * float64(op.B.Rows+op.C.Rows)
		case plan.OpGather, plan.OpScatter:
			b += 16 * float64(len(op.Idx))
		case plan.OpZero:
			b += 8 * float64(op.C.Rows)
		}
	}
	return b
}

// kernelRates measures the kernels the plan replays are built from, single
// threaded: a plan-shaped 128×128×16 GEMM, a 512³ GEMM as a proxy for the
// machine's peak, and a 128×128 GEMV, each over five windows of the given
// length (three times that for the large GEMM).
func kernelRates(window time.Duration) (gemm, gemm512, gemv float64) {
	rng := rand.New(rand.NewSource(1))
	A := linalg.GaussianMatrix(rng, 128, 128)
	B := linalg.GaussianMatrix(rng, 128, probeCols)
	C := linalg.NewMatrix(128, probeCols)
	gemm = rate(2*128*128*probeCols, window, func() {
		linalg.Gemm(false, false, 1, A, B, 0, C)
	})
	A5 := linalg.GaussianMatrix(rng, 512, 512)
	B5 := linalg.GaussianMatrix(rng, 512, 512)
	C5 := linalg.NewMatrix(512, 512)
	gemm512 = rate(2*512*512*512, 3*window, func() {
		linalg.Gemm(false, false, 1, A5, B5, 0, C5)
	})
	x, y := B.Col(0), C.Col(0)
	gemv = rate(2*128*128, window, func() {
		linalg.Gemv(false, 1, A, x, 0, y)
	})
	return gemm, gemm512, gemv
}

// rate is the median GFLOP/s of five windows of back-to-back calls.
func rate(flops float64, window time.Duration, f func()) float64 {
	f()
	var rates []float64
	for len(rates) < 5 {
		k, t0 := 0, time.Now()
		for {
			f()
			k++
			if el := time.Since(t0); el >= window {
				rates = append(rates, flops*float64(k)/el.Seconds()/1e9)
				break
			}
		}
	}
	return median(rates)
}

// layerTime aggregates the bench spans of one layer.
type layerTime struct {
	spans       int
	total, self float64 // seconds
}

// layerTimes walks the span forest and charges every bench span (named
// "<layer>:<call>") to its layer. A span's self time is its duration minus
// that of its bench child spans, floored at zero where concurrent children
// (the serving connections) overlap.
func layerTimes(spans []telemetry.SpanStat, out map[string]*layerTime) {
	for _, s := range spans {
		if layer, _, ok := strings.Cut(s.Name, ":"); ok {
			self := s.Seconds
			for _, c := range s.Children {
				if strings.Contains(c.Name, ":") {
					self -= c.Seconds
				}
			}
			lt := out[layer]
			if lt == nil {
				lt = &layerTime{}
				out[layer] = lt
			}
			lt.spans++
			lt.total += s.Seconds
			lt.self += max(self, 0)
		}
		layerTimes(s.Children, out)
	}
}

// printLayerTimes prints the layer table, shares taken of whole seconds.
func printLayerTimes(w io.Writer, workload string, layers map[string]*layerTime, whole float64) {
	fmt.Fprintf(w, "-- %s traced self time by layer (bench spans)\n", workload)
	fmt.Fprintf(w, "   %-10s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, name := range sortedKeys(layers) {
		lt := layers[name]
		fmt.Fprintf(w, "   %-10s %8d %12.1f %12.1f %7.1f\n",
			name, lt.spans, lt.total*1e3, lt.self*1e3, 100*lt.self/whole)
	}
}
