// Kernel ridge regression with a GOFMM-accelerated conjugate-gradient
// solver: fit α in (K + λI)α = y where K is a Gaussian kernel matrix over a
// synthetic dataset, using the compressed matvec inside CG — the kernel-
// methods workload that motivates the paper (§1: "kernel methods for
// statistical learning", block Krylov solvers).
//
//	go run ./examples/kernelridge [-n 2048]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"gofmm"
	"gofmm/krylov"
	"gofmm/testmat"
)

func main() {
	n := flag.Int("n", 2048, "training points")
	lambda := flag.Float64("lambda", 1e-1, "ridge parameter")
	flag.Parse()
	log.SetFlags(0)

	// 6-D Gaussian kernel with moderate bandwidth: substantial off-diagonal
	// coupling, so the CG solve is non-trivial.
	p, err := testmat.Generate("K05", *n, 5)
	if err != nil {
		log.Fatal(err)
	}
	dim := p.K.Dim()
	fmt.Printf("kernel ridge regression: %s, N = %d, λ = %g\n", p.Desc, dim, *lambda)

	// Synthetic targets: a smooth function of the first data coordinate
	// plus noise.
	rng := rand.New(rand.NewSource(11))
	y := make([]float64, dim)
	for i := range y {
		y[i] = math.Sin(3*p.Points.At(0, i)) + 0.1*rng.NormFloat64()
	}

	t0 := time.Now()
	H, err := gofmm.Compress(p.K, gofmm.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-6, Budget: 0.05,
		Distance: gofmm.Angle, Exec: gofmm.Dynamic, NumWorkers: 4,
		CacheBlocks: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed in %.3fs (ε₂ of the operator ≈ %.1e per sampled check)\n",
		time.Since(t0).Seconds(), operatorErr(H, dim))

	t0 = time.Now()
	alpha, cg, err := krylov.CG(krylov.Shifted{A: H, Sigma: *lambda}, nil, y, 1e-8, 200)
	if err != nil {
		log.Fatalf("CG after %d iterations (residual %.2e): %v", cg.Iterations, cg.Residual, err)
	}
	solveTime := time.Since(t0).Seconds()

	// Residual check against the *exact* kernel: ‖(K+λI)α − y‖/‖y‖.
	A := gofmm.NewMatrix(dim, 1)
	copy(A.Col(0), alpha)
	exact := gofmm.ExactMatvec(p.K, A).Col(0)
	var res, ynorm float64
	for i := range y {
		d := exact[i] + *lambda*alpha[i] - y[i]
		res += d * d
		ynorm += y[i] * y[i]
	}
	fmt.Printf("CG converged in %d iterations (%.3fs); true residual ‖(K+λI)α−y‖/‖y‖ = %.2e\n",
		cg.Iterations, solveTime, math.Sqrt(res/ynorm))

	// Training error of the fitted model f = Kα.
	var mse float64
	for i := range y {
		d := exact[i] - y[i]
		mse += d * d
	}
	fmt.Printf("training MSE of f = Kα: %.4f (noise variance 0.01)\n", mse/float64(dim))
}

func operatorErr(H *gofmm.Hierarchical, n int) float64 {
	rng := rand.New(rand.NewSource(99))
	W := gofmm.NewMatrix(n, 2)
	for j := 0; j < 2; j++ {
		col := W.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	U := H.Matvec(W)
	return H.SampleRelErr(W, U, 50, 7)
}
