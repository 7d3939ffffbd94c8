// Command repro regenerates the tables and figures of the GOFMM paper
// (Yu, Levitt, Reiz & Biros, SC'17) at laptop scale.
//
// Usage:
//
//	repro fig1|fig4|fig5|fig6|fig7|table3|table4|table5|all [flags]
//
// Flags:
//
//	-n int              base problem size (default per experiment)
//	-quick              reduced sizes for a fast smoke run
//	-seed int           RNG seed (default 1)
//	-debug-addr addr    serve live introspection (/metrics, /debug/pprof, ...)
//	-debug-linger dur   keep the debug server up after the run finishes
//
// Each subcommand prints rows mirroring the corresponding paper artifact;
// absolute numbers differ from the paper's hardware, the comparative shapes
// are the reproduction target (see EXPERIMENTS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/experiments"
	"gofmm/internal/telemetry"
	"gofmm/internal/telemetry/live"
)

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		usage()
		os.Exit(2)
	}
}

// cli dispatches a subcommand (separated from main for testability).
func cli(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("missing subcommand")
	}
	sub := args[0]
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	n := fs.Int("n", 0, "base problem size (0 = per-experiment default)")
	quick := fs.Bool("quick", false, "reduced sizes for a fast smoke run")
	seed := fs.Int64("seed", 1, "RNG seed")
	benchDir := fs.String("benchjson", "", "also write each experiment's rows as a BENCH_<name>.json run record into this directory")
	debugAddr := fs.String("debug-addr", "", "serve the live introspection endpoints (/metrics, /healthz, /readyz, /debug/vars, /debug/spans, /debug/pprof/*, /debug/flightrecord) on this address for the duration of the run")
	debugLinger := fs.Duration("debug-linger", 0, "keep the -debug-addr server up this long after the run finishes (Ctrl-C ends the linger early)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	// The pr4/pr8/pr9 benchmark paths thread this recorder into their core.Config
	// so the debug server has live counters and histograms to expose; the
	// other subcommands still get /healthz, /debug/pprof and the flight
	// recorder's manual-dump endpoint.
	var rec *telemetry.Recorder
	if *debugAddr != "" {
		rec = telemetry.New()
		flight := telemetry.NewFlightRecorder(rec, 512)
		srv := live.New(rec, flight)
		if err := srv.Start(*debugAddr); err != nil {
			return err
		}
		fmt.Fprintf(w, "live introspection on http://%s/\n", srv.Addr())
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopSignals()
		defer func() {
			if *debugLinger > 0 {
				fmt.Fprintf(w, "debug server lingering %s (Ctrl-C to stop)\n", *debugLinger)
				select {
				case <-time.After(*debugLinger):
				case <-ctx.Done():
				}
			}
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(shutCtx); err != nil {
				fmt.Fprintf(os.Stderr, "debug server shutdown: %v\n", err)
			}
		}()
		srv.SetReady(true)
	}

	size := func(def, quickDef int) int {
		if *n > 0 {
			return *n
		}
		if *quick {
			return quickDef
		}
		return def
	}

	known := map[string]bool{"fig1": true, "fig2": true, "fig3": true, "fig4": true,
		"fig5": true, "fig6": true, "fig7": true,
		"table3": true, "table4": true, "table5": true, "scaling": true,
		"pr4": true, "pr8": true, "pr9": true}
	run := func(name string) error {
		fmt.Fprintf(w, "\n== %s ==\n", name)
		var rows []experiments.Result
		switch name {
		case "fig1":
			sizes := []int{1024, 2048, 4096}
			ranks := []int{128, 256, 512}
			if *quick {
				sizes = []int{512, 1024}
				ranks = []int{64, 128}
			}
			if *n > 0 {
				sizes = []int{*n / 4, *n / 2, *n}
			}
			rows = experiments.Fig1(w, sizes, ranks, *seed)
		case "fig2":
			// Figure 2: the partitioning tree's block structure, regenerated
			// from an actual compression (near blocks '#', far blocks by
			// level) rather than drawn by hand.
			p := experiments.GetProblem("G03", size(512, 256), *seed)
			h, err := core.Compress(p.K, core.Config{
				LeafSize: size(512, 256) / 8, MaxRank: 64, Tol: 1e-5, Kappa: 16,
				Budget: 0.25, Distance: core.Angle, Exec: core.Sequential, Seed: *seed,
			})
			if err != nil {
				fmt.Fprintln(w, err)
				return nil
			}
			fmt.Fprintln(w, "leaf-level block structure ('#' near/dense, letters far by level):")
			fmt.Fprint(w, h.StructureString())
		case "fig3":
			// Figure 3: the evaluation-phase dependency DAG in DOT format,
			// produced by the same symbolic traversal the runtime uses.
			p := experiments.GetProblem("K02", size(256, 128), *seed)
			h, err := core.Compress(p.K, core.Config{
				LeafSize: 64, MaxRank: 32, Tol: 1e-4, Kappa: 8,
				Budget: 0, Distance: core.Angle, Exec: core.Sequential, Seed: *seed,
			})
			if err != nil {
				fmt.Fprintln(w, err)
				return nil
			}
			if err := h.EvalGraphDOT(w); err != nil {
				fmt.Fprintln(w, err)
			}
		case "fig4":
			workers := []int{1, 2, 4, 8}
			if *quick {
				workers = []int{1, 4}
			}
			rows = experiments.Fig4(w, workers, size(4096, 1024), *seed)
		case "fig5":
			rows = experiments.Fig5(w, size(1024, 400), *seed)
		case "fig6":
			rows = experiments.Fig6(w, size(2048, 800), *seed)
		case "fig7":
			rows = experiments.Fig7(w, size(1024, 400), *seed)
		case "table3":
			rows = experiments.Table3(w, size(1024, 400), *seed)
		case "table4":
			sizes := []int{1024, 2048}
			if *quick {
				sizes = []int{512}
			}
			if *n > 0 {
				sizes = []int{*n / 2, *n}
			}
			rows = experiments.Table4(w, sizes, *seed)
		case "table5":
			rows = experiments.Table5(w, size(2048, 512), *seed)
		case "pr4":
			// Batched multi-RHS evaluation: Matmat vs looped Matvec throughput
			// across block widths, and BatchEvaluator coalescing — feeds the
			// CI gate requiring ≥3× matvecs/sec at r=16.
			rr := pr4Bench(w, size(4096, 1024), *seed, rec)
			if *benchDir != "" {
				path, err := rr.WriteBenchFile(*benchDir)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "wrote run record to %s\n", path)
			}
			return nil
		case "pr8":
			// Compiled evaluation plans: flat replayable schedules vs the tree
			// interpreter — feeds the CI gate requiring ≥2× steady-state
			// Matvec and no allocation regression.
			rr := pr8Bench(w, size(8192, 1024), *seed, rec)
			if *benchDir != "" {
				path, err := rr.WriteBenchFile(*benchDir)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "wrote run record to %s\n", path)
			}
			return nil
		case "pr9":
			// On-disk operator store: cold-start-to-first-matvec via mmap
			// load vs compress-from-oracle — feeds the CI gate requiring a
			// ≥10× faster first served matvec with zero arena copies.
			rr := pr9Bench(w, size(8192, 1024), *seed, rec)
			if *benchDir != "" {
				path, err := rr.WriteBenchFile(*benchDir)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "wrote run record to %s\n", path)
			}
			return nil
		case "scaling":
			sizes := []int{512, 1024, 2048, 4096}
			if *quick {
				sizes = []int{256, 512, 1024}
			}
			if *n > 0 {
				sizes = []int{*n / 8, *n / 4, *n / 2, *n}
			}
			rows = experiments.Scaling(w, sizes, *seed)
		}
		if *benchDir == "" || len(rows) == 0 {
			return nil
		}
		rr := telemetry.NewRunRecord("repro_" + name)
		rr.Params["n"] = *n
		rr.Params["quick"] = *quick
		rr.Params["seed"] = *seed
		for _, res := range rows {
			rr.Rows = append(rr.Rows, res.Row())
		}
		path, err := rr.WriteBenchFile(*benchDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote run record to %s\n", path)
		return nil
	}

	if sub == "all" {
		for _, name := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table3", "table4", "table5"} {
			if err := run(name); err != nil {
				return err
			}
		}
		return nil
	}
	if !known[sub] {
		return fmt.Errorf("unknown subcommand %q", sub)
	}
	return run(sub)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: repro <fig1|fig2|fig3|fig4|fig5|fig6|fig7|table3|table4|table5|scaling|pr4|pr8|pr9|all> [-n N] [-quick] [-seed S] [-debug-addr HOST:PORT] [-debug-linger D]`)
}
