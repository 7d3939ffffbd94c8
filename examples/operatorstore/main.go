// Operator store: compress once, persist the operator to a gofmm.store/v1
// file, and reload it mmap-backed — no oracle, no recompression, first
// matvec in milliseconds, bit-identical to the operator that was saved.
//
//	go run ./examples/operatorstore [-n 4096]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gofmm"
	"gofmm/testmat"
)

func main() {
	n := flag.Int("n", 4096, "problem size")
	flag.Parse()
	log.SetFlags(0)

	p, err := testmat.Generate("K02", *n, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("problem: %s (N = %d)\n", p.Name, p.K.Dim())

	// Compress from the entry oracle and compile the evaluation plan — the
	// slow path a store file exists to amortize. CacheBlocks is what makes
	// the operator self-contained: the near/far blocks land in the file, so
	// loading needs no oracle at all.
	t0 := time.Now()
	H, err := gofmm.Compress(p.K, gofmm.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-5, Budget: 0.03,
		Distance: gofmm.Angle, NumWorkers: 4, CacheBlocks: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := H.CompilePlanCtx(context.Background()); err != nil {
		log.Fatal(err)
	}
	compressT := time.Since(t0)

	dir, err := os.MkdirTemp("", "gofmm-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "operator.store")
	nb, err := H.SaveTo(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed in %.2fs, saved %.1f MB store\n",
		compressT.Seconds(), float64(nb)/(1<<20))

	// Reload. The arena is mapped read-only: skeleton bases, projections
	// and cached blocks serve straight from the page cache, zero-copy. The
	// loaded operator has no oracle — matvec/matmat run entirely from the
	// persisted state. The store holds the operator, not its schedule: the
	// load lowers the plan again from the blocks it maps.
	t0 = time.Now()
	H2, info, err := gofmm.LoadOperator(path, gofmm.LoadOptions{Mmap: true, NumWorkers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer H2.ReleaseStore()
	fmt.Printf("loaded in %.1fms (mapped=%v, plan=%v)  →  %.0f× faster than compressing\n",
		time.Since(t0).Seconds()*1e3, info.Mapped, H2.Plan() != nil,
		compressT.Seconds()/time.Since(t0).Seconds())

	// The loaded operator is the saved operator, bit for bit.
	rng := rand.New(rand.NewSource(2))
	W := gofmm.NewMatrix(p.K.Dim(), 1)
	for i := 0; i < p.K.Dim(); i++ {
		W.Set(i, 0, rng.NormFloat64())
	}
	u1 := H.Matvec(W).Col(0)
	u2 := H2.Matvec(W).Col(0)
	maxDiff := 0.0
	for i := range u1 {
		maxDiff = math.Max(maxDiff, math.Abs(u1[i]-u2[i]))
	}
	fmt.Printf("matvec max |in-memory − loaded| = %g (want exactly 0)\n", maxDiff)
	if maxDiff != 0 {
		log.Fatal("loaded operator is not bit-identical")
	}
	fmt.Println("ok: serve this file with `gofmmd -store-dir` for zero-copy hot-swappable serving")
}
