// Hessian trace estimation: K02 is the Hessian operator of a PDE-
// constrained optimization problem (a regularized inverse Laplacian
// squared). Hutchinson's randomized trace estimator needs many matvecs with
// random probe vectors — exactly the multi-right-hand-side Monte-Carlo
// workload the paper lists as a target (§1: "Monte-Carlo sampling,
// optimization, and block Krylov methods"). GOFMM makes each probe batch
// O(N) instead of O(N²).
//
//	go run ./examples/hessian [-n 1024]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"gofmm"
	"gofmm/krylov"
	"gofmm/testmat"
)

func main() {
	n := flag.Int("n", 1024, "Hessian dimension (rounds to a grid)")
	probes := flag.Int("probes", 64, "Hutchinson probe vectors")
	flag.Parse()
	log.SetFlags(0)

	p, err := testmat.Generate("K02", *n, 1)
	if err != nil {
		log.Fatal(err)
	}
	dim := p.K.Dim()
	fmt.Printf("problem: %s (N = %d)\n", p.Desc, dim)

	t0 := time.Now()
	H, err := gofmm.Compress(p.K, gofmm.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-7, Budget: 0.03,
		Distance: gofmm.Angle, Exec: gofmm.Dynamic, NumWorkers: 4,
		CacheBlocks: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed in %.3fs (avg rank %.1f)\n", time.Since(t0).Seconds(), H.Stats.AvgRank)

	// Hutchinson: tr(K) ≈ (1/m) Σ zᵢᵀ K zᵢ with Rademacher probes, all m
	// probes evaluated in ONE multi-RHS matvec.
	t0 = time.Now()
	est := krylov.Trace(H, *probes, 4)
	mv := time.Since(t0).Seconds()

	// Exact trace from the diagonal (available since we can sample entries).
	var exact float64
	for i := 0; i < dim; i++ {
		exact += p.K.At(i, i)
	}
	fmt.Printf("Hutchinson trace (%d probes, one multi-RHS matvec, %.4fs): %.6f\n", *probes, mv, est)
	fmt.Printf("exact trace: %.6f — relative error %.2e\n", exact, math.Abs(est-exact)/exact)

	// Curvature probe: largest eigenvalue estimate via a few power steps,
	// the quantity step-size selection needs in Newton-type methods.
	top, _ := krylov.BlockPower(H, 1, 20, 4)
	fmt.Printf("dominant Hessian eigenvalue (power iteration on K̃): %.6f\n", top[0])
}
