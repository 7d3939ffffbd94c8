// Command gofmmd is the long-running GOFMM serving daemon: it compresses
// (or loads) one or more SPD operators at startup, registers them in an
// operator registry, and serves Matvec/Matmat/Solve over HTTP with the full
// overload-protection stack — bounded admission with load shedding (503 +
// Retry-After), per-tenant token-bucket quotas (429), per-operator circuit
// breakers, client deadline propagation, and graceful drain on
// SIGTERM/SIGINT (stop admitting, answer in-flight requests, flush the
// batch evaluators, flip /readyz, exit).
//
// Usage:
//
//	gofmmd -addr :8080 -op main=K02:2048 -op aux=K05:1024 \
//	       -quota-rps 64 -max-concurrent 4 -max-queue 32
//
// Then:
//
//	curl -s localhost:8080/v1/operators
//	curl -s -X POST -H 'X-Tenant: alice' -H 'X-Deadline-Ms: 2000' \
//	     -d '{"vector": [...]}' localhost:8080/v1/operators/main/matvec
//
// The live introspection endpoints (/metrics Prometheus exposition,
// /healthz, /readyz, /debug/*) are mounted on the same listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/serve"
	"gofmm/internal/spdmat"
	"gofmm/internal/telemetry"
	"gofmm/internal/telemetry/live"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gofmmd: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// opSpec is one -op flag: name=MATRIX:N.
type opSpec struct {
	name   string
	matrix string
	n      int
}

func parseOpSpec(raw string) (opSpec, error) {
	name, rest, ok := strings.Cut(raw, "=")
	if !ok {
		return opSpec{}, fmt.Errorf("bad -op %q: want name=MATRIX:N", raw)
	}
	matrix, dims, ok := strings.Cut(rest, ":")
	if !ok {
		return opSpec{}, fmt.Errorf("bad -op %q: want name=MATRIX:N", raw)
	}
	n, err := strconv.Atoi(dims)
	if err != nil || n <= 0 {
		return opSpec{}, fmt.Errorf("bad -op %q: dimension %q is not a positive integer", raw, dims)
	}
	return opSpec{name: name, matrix: matrix, n: n}, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gofmmd", flag.ContinueOnError)
	var ops []opSpec
	fs.Func("op", "operator to serve, as name=MATRIX:N (repeatable; default main=K02:1024)",
		func(raw string) error {
			spec, err := parseOpSpec(raw)
			if err != nil {
				return err
			}
			ops = append(ops, spec)
			return nil
		})
	var (
		addr    = fs.String("addr", "127.0.0.1:8080", "listen address")
		m       = fs.Int("m", 128, "leaf size")
		s       = fs.Int("s", 128, "maximum rank")
		tol     = fs.Float64("tol", 1e-5, "adaptive tolerance τ")
		kappa   = fs.Int("k", 32, "number of nearest neighbors κ")
		budget  = fs.Float64("budget", 0, "direct-evaluation budget (0 = HSS, enables /solve)")
		workers = fs.Int("workers", 4, "worker pool size")
		seed    = fs.Int64("seed", 1, "RNG seed")

		maxConc    = fs.Int("max-concurrent", 4, "concurrent evaluations per operator")
		maxQueue   = fs.Int("max-queue", 32, "admission queue depth per operator; beyond it requests are shed with 503")
		retryAfter = fs.Duration("retry-after", time.Second, "Retry-After hint attached to shed requests")

		quotaRPS   = fs.Float64("quota-rps", 0, "per-tenant sustained quota in columns/second (0 = unlimited)")
		quotaBurst = fs.Float64("quota-burst", 0, "per-tenant burst in columns (default max(quota-rps, 1))")

		brkThreshold = fs.Int("breaker-threshold", 5, "consecutive panics/stalls that open an operator's circuit breaker")
		brkCooldown  = fs.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before a half-open probe")

		deadline     = fs.Duration("deadline", 30*time.Second, "default evaluation deadline when the request has no X-Deadline-Ms")
		maxDeadline  = fs.Duration("deadline-max", 5*time.Minute, "cap on client-requested deadlines")
		maxBody      = fs.Int64("max-body", 64<<20, "request body size limit in bytes")
		readTimeout  = fs.Duration("read-timeout", 30*time.Second, "per-request body read timeout (slowloris bound)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM/SIGINT")

		batchMax    = fs.Int("batch-max", 32, "BatchEvaluator maximum columns per flush")
		batchWindow = fs.Duration("batch-window", 250*time.Microsecond, "BatchEvaluator coalescing window")

		flightDir = fs.String("flight-dir", "", "arm the flight recorder and write crash dumps into this directory")
		logDest   = fs.String("log", "", "write structured JSON logs to this file, or '-' for stderr")

		storeDir  = fs.String("store-dir", "", "serve operators from this directory of .store files (gofmm.store/v1, written by gofmm -store or SaveTo): every NAME.store is loaded at startup, and POST/DELETE /admin/operators/{name} hot-swap or remove operators from the same directory at runtime")
		storeMmap = fs.Bool("store-mmap", true, "load store files with mmap for zero-copy serving (falls back to a portable read when mapping fails)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(ops) == 0 && *storeDir == "" {
		ops = []opSpec{{name: "main", matrix: "K02", n: 1024}}
	}

	rec := telemetry.New()
	if *logDest != "" {
		lw := io.Writer(os.Stderr)
		if *logDest != "-" {
			f, err := os.Create(*logDest)
			if err != nil {
				return err
			}
			defer f.Close()
			lw = f
		}
		rec.SetLogger(slog.New(slog.NewJSONHandler(lw,
			&slog.HandlerOptions{Level: slog.LevelInfo})))
	}
	flight := telemetry.NewFlightRecorder(rec, 512)
	if *flightDir != "" {
		flight.SetDumpDir(*flightDir)
	}

	// The root context ends on SIGTERM/SIGINT; everything the daemon runs
	// (compression, batch flushers, drain) descends from it — but drain
	// itself runs on a detached timeout so a second signal cannot cut the
	// in-flight answers short.
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// Evaluators live on a separate context NOT descended from the signal:
	// SIGTERM must stop admission, not abort the flushes that answer
	// in-flight requests. Drain closes the evaluators; this cancel is the
	// backstop for error exits before drain.
	evalCtx, evalCancel := context.WithCancel(context.Background())
	defer evalCancel()

	lv := live.New(rec, live.WithFlightRecorder(flight))
	lv.SetReady(false) // warming up: compressing operators

	reg := serve.NewRegistry(rec)
	lim := serve.Limits{
		Admission: serve.AdmissionConfig{
			MaxConcurrent: *maxConc, MaxQueue: *maxQueue, RetryAfter: *retryAfter,
		},
		Breaker: serve.BreakerConfig{Threshold: *brkThreshold, Cooldown: *brkCooldown},
	}
	batch := core.BatchOptions{MaxBatch: *batchMax, MaxDelay: *batchWindow}
	if *storeDir != "" {
		entries, err := os.ReadDir(*storeDir)
		if err != nil {
			return fmt.Errorf("reading -store-dir: %w", err)
		}
		loaded := 0
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".store") {
				continue
			}
			name := strings.TrimSuffix(e.Name(), ".store")
			t0 := time.Now()
			h, info, err := core.LoadFrom(filepath.Join(*storeDir, e.Name()), core.LoadOptions{
				Mmap: *storeMmap, NumWorkers: *workers, Telemetry: rec,
			})
			if err != nil {
				return fmt.Errorf("loading %s: %w", e.Name(), err)
			}
			op, err := reg.SwapHierarchical(evalCtx, name, h, batch, lim)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "operator %q: loaded %d-byte store in %.0fms (N=%d, mapped=%v, plan=%v, solve=%v)\n",
				name, info.Bytes, time.Since(t0).Seconds()*1e3, h.N(), info.Mapped, info.HasPlan, op.CanSolve())
			loaded++
		}
		if loaded == 0 && len(ops) == 0 {
			return fmt.Errorf("-store-dir %s holds no .store files and no -op was given", *storeDir)
		}
	}
	for _, spec := range ops {
		p, err := spdmat.Generate(spec.matrix, spec.n, *seed)
		if err != nil {
			return err
		}
		cfg := core.Config{
			LeafSize: *m, MaxRank: *s, Tol: *tol, Kappa: *kappa, Budget: *budget,
			NumWorkers: *workers, Seed: *seed, CacheBlocks: true,
			Points: p.Points, Telemetry: rec,
		}
		t0 := time.Now()
		h, err := core.CompressCtx(ctx, p.K, cfg)
		if err != nil {
			return err
		}
		op, err := reg.RegisterHierarchical(evalCtx, spec.name, h, batch, lim)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "operator %q: %s N=%d compressed in %.2fs (solve=%v)\n",
			spec.name, p.Name, h.N(), time.Since(t0).Seconds(), op.CanSolve())
	}

	scfg := serve.Config{
		Registry:        reg,
		Telemetry:       rec,
		Live:            lv,
		Quota:           serve.QuotaConfig{RatePerSec: *quotaRPS, Burst: *quotaBurst},
		MaxBodyBytes:    *maxBody,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		ReadTimeout:     *readTimeout,
	}
	if *storeDir != "" {
		scfg.Admin = &serve.AdminConfig{
			StoreDir:   *storeDir,
			Mmap:       *storeMmap,
			EvalCtx:    evalCtx,
			Batch:      batch,
			Limits:     lim,
			NumWorkers: *workers,
		}
	}
	srv, err := serve.NewServer(scfg)
	if err != nil {
		return err
	}
	if err := srv.Start(*addr); err != nil {
		return err
	}
	lv.SetReady(true)
	fmt.Fprintf(out, "serving %d operator(s) on http://%s/ (POST /v1/operators/{name}/{matvec|matmat|solve}; metrics, healthz, readyz, debug/* mounted)\n",
		len(ops), srv.Addr())

	<-ctx.Done()
	fmt.Fprintf(out, "signal received: draining (budget %s)\n", *drainTimeout)
	// Drain on a fresh timeout, not the cancelled root: in-flight requests
	// get their full budget even though the signal context is done.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	start := time.Now()
	if derr := srv.Drain(dctx); derr != nil {
		fmt.Fprintf(out, "drain incomplete: %v\n", derr)
	}
	if serr := srv.Shutdown(dctx); serr != nil {
		fmt.Fprintf(out, "shutdown: %v\n", serr)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if lerr := lv.Shutdown(sctx); lerr != nil {
		fmt.Fprintf(out, "live shutdown: %v\n", lerr)
	}
	fmt.Fprintf(out, "drain complete in %.0fms, all in-flight requests answered\n",
		time.Since(start).Seconds()*1e3)
	return nil
}
