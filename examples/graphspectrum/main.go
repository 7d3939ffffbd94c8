// Graph spectrum estimation through geometry-oblivious compression: G03 is
// the inverse of a (shifted) graph Laplacian — a dense SPD matrix with *no
// point coordinates*, the case that motivates GOFMM. Subspace (block power)
// iteration over the compressed matvec recovers the dominant eigenvalues of
// (L+σI)⁻¹, i.e. the smallest eigenvalues of the Laplacian, which govern
// diffusion and clustering on the graph.
//
//	go run ./examples/graphspectrum [-n 1024]
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

// exact is the dense O(N²) operator the compressed one is compared against.
type exact struct{ K gofmm.SPD }

func (e exact) N() int                               { return e.K.Dim() }
func (e exact) Matvec(W *gofmm.Matrix) *gofmm.Matrix { return gofmm.ExactMatvec(e.K, W) }

func main() {
	n := flag.Int("n", 1024, "graph size")
	k := flag.Int("k", 6, "eigenvalues to estimate")
	flag.Parse()
	log.SetFlags(0)

	p, err := testmat.Generate("G03", *n, 3)
	if err != nil {
		log.Fatal(err)
	}
	dim := p.K.Dim()
	fmt.Printf("problem: %s (N = %d) — no coordinates available\n", p.Desc, dim)

	t0 := time.Now()
	H, err := gofmm.Compress(p.K, gofmm.Config{
		LeafSize: 64, MaxRank: 128, Tol: 1e-7, Budget: 0.03,
		Distance: gofmm.Angle, Exec: gofmm.Dynamic, NumWorkers: 4,
		CacheBlocks: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed in %.3fs, avg rank %.1f\n", time.Since(t0).Seconds(), H.Stats.AvgRank)

	t0 = time.Now()
	fast, _ := krylov.BlockPower(H, *k, 30, 7)
	fastTime := time.Since(t0).Seconds()

	t0 = time.Now()
	dense, _ := krylov.BlockPower(exact{p.K}, *k, 30, 7)
	denseTime := time.Since(t0).Seconds()

	fmt.Printf("top-%d eigenvalues of (L+σI)⁻¹ (compressed, %.3fs vs dense %.3fs):\n", *k, fastTime, denseTime)
	fmt.Printf("  %-12s %-12s %-10s\n", "compressed", "dense", "rel.diff")
	for i := range fast {
		fmt.Printf("  %-12.6f %-12.6f %-10.1e\n", fast[i], dense[i], math.Abs(fast[i]-dense[i])/dense[i])
	}
	fmt.Printf("smallest Laplacian eigenvalues (1/λ − σ): first three: %.4f %.4f %.4f\n",
		1/fast[0]-0.1, 1/fast[1]-0.1, 1/fast[2]-0.1)
}
