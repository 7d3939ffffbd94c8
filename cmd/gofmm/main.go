// Command gofmm mirrors the paper's artifact driver (run_gofmm_*): it
// generates (or loads) an SPD test matrix, runs the iterative neighbor
// search, the metric-tree compression and the fast matvec, then reports
// runtime, total flops and the accuracy ε₂ of the first 10 entries plus the
// average over 100 sampled entries — the same output contract as §5.6 of
// the paper.
//
// Usage:
//
//	gofmm -matrix K02 -n 1024 -m 128 -s 128 -tol 1e-5 -k 32 \
//	      -budget 0.03 -dist angle -exec dynamic -workers 4 -r 16
//
// -matrix accepts any of the problems in internal/spdmat (K02–K18, G01–G05,
// COVTYPE, HIGGS, MNIST).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/spdmat"
	"gofmm/internal/telemetry"
	"gofmm/internal/telemetry/live"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gofmm: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the driver with the given arguments, writing the report to
// out (separated from main for testability).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gofmm", flag.ContinueOnError)
	var (
		matrix    = fs.String("matrix", "K02", "problem name ("+strings.Join(spdmat.Names(), ", ")+")")
		n         = fs.Int("n", 1024, "matrix dimension (grid problems round down)")
		m         = fs.Int("m", 128, "leaf size")
		s         = fs.Int("s", 128, "maximum rank")
		tol       = fs.Float64("tol", 1e-5, "adaptive tolerance τ")
		kappa     = fs.Int("k", 32, "number of nearest neighbors κ")
		budget    = fs.Float64("budget", 0.03, "direct-evaluation budget (0 = HSS)")
		distName  = fs.String("dist", "angle", "distance: angle|kernel|geometric|lexicographic|random")
		exec      = fs.String("exec", "dynamic", "executor: dynamic|level|taskdep|seq")
		workers   = fs.Int("workers", 4, "worker pool size")
		r         = fs.Int("r", 16, "number of right-hand sides")
		seed      = fs.Int64("seed", 1, "RNG seed")
		nocache   = fs.Bool("nocache", false, "disable near/far block caching")
		structure = fs.Bool("structure", false, "print the leaf-level block structure (Figure 2 style)")
		dotFile   = fs.String("dot", "", "write the evaluation dependency DAG (Figure 3) to this file in DOT format")
		storeFile = fs.String("store", "", "write a gofmm.store/v1 operator store (flat arena + compiled-plan digest, servable by gofmmd -store-dir) to this file after compression")
		loadFile  = fs.String("load", "", "load an operator store written by -store (reattaching the matrix oracle) instead of compressing")
		traceFile = fs.String("trace", "", "write a Chrome trace-event JSON (load in Perfetto / chrome://tracing) to this file")
		metrics   = fs.String("metrics", "", "write the telemetry metrics snapshot (counters, histograms, spans) as JSON to this file")
		report    = fs.Bool("report", false, "print the telemetry phase/metric report after the run")

		debugAddr   = fs.String("debug-addr", "", "serve the live introspection endpoints (/metrics Prometheus exposition, /healthz, /readyz, /debug/vars, /debug/pprof, /debug/spans NDJSON, POST /debug/flightrecord) on this address for the run's duration; shut down gracefully on completion or SIGINT")
		debugLinger = fs.Duration("debug-linger", 0, "keep the -debug-addr server up this long after the run completes (so CI or a human can scrape post-run metrics); SIGINT ends the linger early")
		flightDir   = fs.String("flight-dir", "", "enable the flight recorder and write automatic crash dumps (panic/stall/deadlock post-mortems, schema gofmm.flight/v1) into this directory")
		logDest     = fs.String("log", "", "write structured JSON logs (span completions, chaos injections, scheduler health, crashes) to this file, or '-' for stderr")

		batch       = fs.Int("batch", 0, "serve the r right-hand sides as this many concurrent clients through a coalescing BatchEvaluator (0 = direct block evaluation)")
		batchWindow = fs.Duration("batch-window", 250*time.Microsecond, "BatchEvaluator coalescing window (max delay before a flush)")
		batchMax    = fs.Int("batch-max", 32, "BatchEvaluator maximum columns per flush")

		timeout = fs.Duration("timeout", 0, "overall deadline for compression and evaluation (0 = none)")
		degrade = fs.String("degrade", "truncate", "tolerance-miss policy: truncate|dense|strict")

		chaosSeed   = fs.Int64("chaos-seed", 1, "deterministic fault-injection seed")
		chaosTask   = fs.Float64("chaos-task-fail", 0, "probability a scheduled task fails and is retried")
		chaosPoison = fs.Float64("chaos-oracle-poison", 0, "probability an oracle entry reads as NaN")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	chaosEnabled := *chaosTask > 0 || *chaosPoison > 0
	var rec *telemetry.Recorder
	if *traceFile != "" || *metrics != "" || *report || chaosEnabled ||
		*debugAddr != "" || *flightDir != "" || *logDest != "" {
		rec = telemetry.New()
	}
	if *logDest != "" {
		lw := io.Writer(os.Stderr)
		if *logDest != "-" {
			f, ferr := os.Create(*logDest)
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			lw = f
		}
		rec.SetLogger(slog.New(slog.NewJSONHandler(lw,
			&slog.HandlerOptions{Level: slog.LevelDebug})))
	}
	var flight *telemetry.FlightRecorder
	if *debugAddr != "" || *flightDir != "" {
		flight = telemetry.NewFlightRecorder(rec, 512)
		if *flightDir != "" {
			flight.SetDumpDir(*flightDir)
			fmt.Fprintf(out, "flight recorder armed: crash dumps land in %s\n", *flightDir)
		}
	}
	var chaos *resilience.Chaos
	if chaosEnabled {
		chaos = resilience.NewChaos(resilience.ChaosConfig{
			Seed: *chaosSeed, TaskFail: *chaosTask, OraclePoison: *chaosPoison,
		}, rec)
		fmt.Fprintf(out, "chaos: seed %d, task-fail %g, oracle-poison %g\n",
			*chaosSeed, *chaosTask, *chaosPoison)
	}
	// SIGINT cancels the run's context: evaluation aborts with a typed
	// cancellation error and the debug server (if any) shuts down cleanly.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var srv *live.Server
	if *debugAddr != "" {
		srv = live.New(rec, live.WithFlightRecorder(flight))
		if err := srv.Start(*debugAddr); err != nil {
			return err
		}
		srv.SetReady(false) // not ready until compression completes
		fmt.Fprintf(out, "live introspection on http://%s/ (metrics, healthz, readyz, debug/spans, debug/pprof, debug/flightrecord)\n", srv.Addr())
		defer func() {
			if *debugLinger > 0 {
				fmt.Fprintf(out, "debug server lingering %s on http://%s/ (SIGINT to stop)\n",
					*debugLinger, srv.Addr())
				select {
				case <-time.After(*debugLinger):
				case <-ctx.Done():
				}
			}
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if serr := srv.Shutdown(sctx); serr != nil {
				log.Printf("debug server shutdown: %v", serr)
			}
		}()
		defer srv.SetReady(true) // the run is over: linger-time probes succeed
	}

	p, err := spdmat.Generate(*matrix, *n, *seed)
	if err != nil {
		return err
	}
	dim := p.K.Dim()
	fmt.Fprintf(out, "matrix %s: %s (N = %d)\n", p.Name, p.Desc, dim)

	cfg := core.Config{
		LeafSize: *m, MaxRank: *s, Tol: *tol, Kappa: *kappa, Budget: *budget,
		NumWorkers: *workers, Seed: *seed, CacheBlocks: !*nocache,
		Points: p.Points, Telemetry: rec, Chaos: chaos,
	}
	switch *degrade {
	case "truncate":
		cfg.Degrade = core.DegradeTruncate
	case "dense":
		cfg.Degrade = core.DegradeDense
	case "strict":
		cfg.Degrade = core.DegradeStrict
	default:
		return fmt.Errorf("unknown degrade policy %q", *degrade)
	}
	switch *distName {
	case "angle":
		cfg.Distance = core.Angle
	case "kernel":
		cfg.Distance = core.Kernel
	case "geometric":
		cfg.Distance = core.Geometric
	case "lexicographic":
		cfg.Distance = core.Lexicographic
	case "random":
		cfg.Distance = core.RandomPerm
	default:
		return fmt.Errorf("unknown distance %q", *distName)
	}
	switch *exec {
	case "dynamic":
		cfg.Exec = core.Dynamic
	case "level":
		cfg.Exec = core.LevelByLevel
	case "taskdep":
		cfg.Exec = core.TaskDepend
	case "seq":
		cfg.Exec = core.Sequential
	default:
		return fmt.Errorf("unknown executor %q", *exec)
	}

	var h *core.Hierarchical
	if *loadFile != "" {
		h, _, err = core.LoadFrom(*loadFile, core.LoadOptions{
			Exec: cfg.Exec, NumWorkers: cfg.NumWorkers,
			Telemetry: cfg.Telemetry,
		})
		if err != nil {
			return err
		}
		if err := h.AttachOracle(p.K); err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded compressed form from %s\n", *loadFile)
	} else {
		h, err = core.CompressCtx(ctx, p.K, cfg)
		if err != nil {
			return err
		}
	}
	if *storeFile != "" {
		// Compile first so the store is saved compiled: it carries every
		// block the plan reads and the plan's digest, and a load lowers the
		// same plan again without the oracle.
		if _, err := h.CompilePlanCtx(ctx); err != nil {
			return err
		}
		nb, err := h.SaveTo(*storeFile)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d-byte operator store to %s\n", nb, *storeFile)
	}
	if *structure {
		fmt.Fprintln(out, "block structure ('#' dense/near, letters = far level):")
		fmt.Fprint(out, h.StructureString())
	}
	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			return err
		}
		if err := h.EvalGraphDOT(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote evaluation DAG to %s\n", *dotFile)
	}
	if srv != nil {
		srv.SetReady(true) // compressed form is in memory: the operator can serve
	}
	st := h.Stats
	fmt.Fprintf(out, "compression: %.3fs (ann %.3fs, tree %.3fs, lists %.3fs, skel %.3fs, cache %.3fs)\n",
		st.CompressTime, st.ANNTime, st.TreeTime, st.ListsTime, st.SkelTime, st.CacheTime)
	fmt.Fprintf(out, "  total %.2f GFLOP, %.2f GFLOPS | avg rank %.1f | max near %d | direct %.2f%%\n",
		st.CompressFlops/1e9, st.CompressFlops/st.CompressTime/1e9, st.AvgRank, st.MaxNear, 100*st.DirectFrac)

	if fb := h.Stats.DenseFallbacks; fb > 0 {
		fmt.Fprintf(out, "graceful degradation: %d nodes stored dense (missed tol %g at rank %d)\n",
			fb, *tol, *s)
	}

	rng := rand.New(rand.NewSource(*seed + 7))
	W := linalg.GaussianMatrix(rng, dim, *r)
	var U *linalg.Matrix
	if *batch > 0 {
		// Batch-serving demo: the r right-hand sides arrive as concurrent
		// single-vector requests from *batch clients; the evaluator coalesces
		// them into Matmat flushes. Results are scattered back into U so the
		// accuracy report below covers the batched path.
		ev := h.NewBatchEvaluator(core.BatchOptions{MaxBatch: *batchMax, MaxDelay: *batchWindow})
		U = linalg.NewMatrix(dim, *r)
		cols := make(chan int)
		errCh := make(chan error, *batch)
		t0 := time.Now()
		for c := 0; c < *batch; c++ {
			go func() {
				for j := range cols {
					w := linalg.NewMatrix(dim, 1)
					copy(w.Col(0), W.Col(j))
					u, rerr := ev.Matvec(ctx, w)
					if rerr != nil {
						errCh <- rerr
						return
					}
					copy(U.Col(j), u.Col(0))
				}
				errCh <- nil
			}()
		}
		for j := 0; j < *r; j++ {
			cols <- j
		}
		close(cols)
		for c := 0; c < *batch; c++ {
			if cerr := <-errCh; cerr != nil {
				ev.Close()
				return cerr
			}
		}
		ev.Close()
		bs := ev.Stats()
		fmt.Fprintf(out, "batched evaluation (%d clients, %d rhs): %.4fs, %d requests in %d flushes (%.1f req/flush)\n",
			*batch, *r, time.Since(t0).Seconds(), bs.Requests, bs.Flushes,
			float64(bs.Requests)/float64(max(bs.Flushes, 1)))
	} else {
		U, err = h.MatvecCtx(ctx, W)
		if err != nil {
			return err
		}
		evalS, evalFlops := h.LastEval()
		fmt.Fprintf(out, "evaluation (%d rhs): %.4fs, %.2f GFLOP, %.2f GFLOPS\n",
			*r, evalS, evalFlops/1e9, evalFlops/evalS/1e9)
	}

	entry := h.EntryErrors(W, U, 10)
	fmt.Fprintf(out, "per-entry relative error (first 10): ")
	for _, e := range entry {
		fmt.Fprintf(out, "%.1e ", e)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "sampled relative error ε₂ (100 rows): %.3e\n", h.SampleRelErr(W, U, 100, *seed+9))

	if chaos != nil {
		inj := chaos.Injected()
		fmt.Fprintf(out, "chaos summary: %d task failures, %d poisoned reads\n",
			inj["task_fail"], inj["oracle_poison"])
		fmt.Fprintf(out, "  recovered: %d task retries\n",
			rec.Counter("sched.task_retries").Value())
	}

	if *traceFile != "" {
		if err := writeFileWith(*traceFile, rec.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote Chrome trace to %s\n", *traceFile)
	}
	if *metrics != "" {
		if err := writeFileWith(*metrics, rec.WriteMetricsJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics snapshot to %s\n", *metrics)
	}
	if *report {
		fmt.Fprint(out, rec.Report())
	}
	return nil
}

// writeFileWith creates path and streams write(f) into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
