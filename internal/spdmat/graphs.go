package spdmat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gofmm/internal/linalg"
)

// Graph-Laplacian inverse problems G01–G05. The paper uses five UF
// collection graphs (powersim, poli_large, rgg_n_2_16, denormal,
// conf6_0-8x8) that are not available offline; each generator below builds a
// synthetic graph of the same structural family, forms the Laplacian
// L = D − A, and returns K = (L + σI)⁻¹. These are the "no coordinates
// exist" problems that motivate geometry-oblivious compression.

// graph is a simple undirected weighted edge list builder.
type graph struct {
	n   int
	adj []map[int]float64
}

func newGraph(n int) *graph {
	g := &graph{n: n, adj: make([]map[int]float64, n)}
	for i := range g.adj {
		g.adj[i] = map[int]float64{}
	}
	return g
}

func (g *graph) addEdge(u, v int, w float64) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return
	}
	g.adj[u][v] = w
	g.adj[v][u] = w
}

// laplacianInverse returns (L + σI)⁻¹ as a dense SPD matrix. Each degree
// sums its edge weights in ascending neighbor order, so non-unit weights
// give the same bits on every call.
func (g *graph) laplacianInverse(sigma float64) (*linalg.Matrix, error) {
	L := linalg.NewMatrix(g.n, g.n)
	var nbrs []int
	for u := 0; u < g.n; u++ {
		nbrs = nbrs[:0]
		for v := range g.adj[u] {
			nbrs = append(nbrs, v)
		}
		slices.Sort(nbrs)
		var deg float64
		for _, v := range nbrs {
			w := g.adj[u][v]
			L.Set(u, v, -w)
			deg += w
		}
		L.Set(u, u, deg+sigma)
	}
	return linalg.InvertSPD(L)
}

// G01 resembles powersim: a power-grid-like network — a ring backbone with
// sparse long-range ties and local buses.
func G01(n int, seed int64) (*Problem, error) {
	rng := rand.New(rand.NewSource(seed))
	g := newGraph(n)
	for i := 0; i < n; i++ {
		g.addEdge(i, (i+1)%n, 1)
		if rng.Float64() < 0.3 {
			g.addEdge(i, (i+2)%n, 1)
		}
		if rng.Float64() < 0.05 {
			g.addEdge(i, rng.Intn(n), 1)
		}
	}
	inv, err := g.laplacianInverse(0.1)
	if err != nil {
		return nil, fmt.Errorf("G01: %w", err)
	}
	return &Problem{Name: "G01", Desc: "power-grid-like graph Laplacian inverse", K: &Dense{inv}}, nil
}

// G02 resembles poli_large: a power-law (preferential attachment) graph.
func G02(n int, seed int64) (*Problem, error) {
	rng := rand.New(rand.NewSource(seed))
	g := newGraph(n)
	deg := make([]int, n)
	total := 0
	attach := func(v int) int {
		if total == 0 {
			return rng.Intn(v)
		}
		// Preferential attachment: pick an endpoint weighted by degree.
		t := rng.Intn(total)
		for u := 0; u < v; u++ {
			t -= deg[u]
			if t < 0 {
				return u
			}
		}
		return rng.Intn(v)
	}
	for v := 1; v < n; v++ {
		m := 1 + rng.Intn(2)
		for e := 0; e < m; e++ {
			u := attach(v)
			g.addEdge(u, v, 1)
			deg[u]++
			deg[v]++
			total += 2
		}
	}
	inv, err := g.laplacianInverse(0.1)
	if err != nil {
		return nil, fmt.Errorf("G02: %w", err)
	}
	return &Problem{Name: "G02", Desc: "power-law (preferential attachment) graph Laplacian inverse", K: &Dense{inv}}, nil
}

// G03 resembles rgg_n_2_16: a 2-D random geometric graph. The coordinates
// used to *build* the graph are deliberately discarded — the paper's point
// is that GOFMM compresses it without them.
func G03(n int, seed int64) (*Problem, error) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	// Connect points within the percolation-scale radius via a cell grid.
	r := 1.5 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
	cells := int(1 / r)
	if cells < 1 {
		cells = 1
	}
	grid := map[[2]int][]int{}
	for i := range xs {
		c := [2]int{int(xs[i] * float64(cells)), int(ys[i] * float64(cells))}
		grid[c] = append(grid[c], i)
	}
	g := newGraph(n)
	for i := range xs {
		ci, cj := int(xs[i]*float64(cells)), int(ys[i]*float64(cells))
		for di := -1; di <= 1; di++ {
			for dj := -1; dj <= 1; dj++ {
				for _, j := range grid[[2]int{ci + di, cj + dj}] {
					if j <= i {
						continue
					}
					dx, dy := xs[i]-xs[j], ys[i]-ys[j]
					if dx*dx+dy*dy < r*r {
						g.addEdge(i, j, 1)
					}
				}
			}
		}
	}
	inv, err := g.laplacianInverse(0.1)
	if err != nil {
		return nil, fmt.Errorf("G03: %w", err)
	}
	return &Problem{Name: "G03", Desc: "2-D random geometric graph Laplacian inverse (coordinates discarded)", K: &Dense{inv}}, nil
}

// G04 resembles denormal: a mesh-like banded structure with random weights.
func G04(n int, seed int64) (*Problem, error) {
	rng := rand.New(rand.NewSource(seed))
	nx := gridSide(n, 2)
	n = nx * nx
	g := newGraph(n)
	idx := func(i, j int) int { return j*nx + i }
	for j := 0; j < nx; j++ {
		for i := 0; i < nx; i++ {
			w := 0.5 + rng.Float64()
			if i+1 < nx {
				g.addEdge(idx(i, j), idx(i+1, j), w)
			}
			if j+1 < nx {
				g.addEdge(idx(i, j), idx(i, j+1), 0.5+rng.Float64())
			}
			if i+1 < nx && j+1 < nx && rng.Float64() < 0.3 {
				g.addEdge(idx(i, j), idx(i+1, j+1), 0.25)
			}
		}
	}
	inv, err := g.laplacianInverse(0.1)
	if err != nil {
		return nil, fmt.Errorf("G04: %w", err)
	}
	return &Problem{Name: "G04", Desc: "mesh-like weighted graph Laplacian inverse", K: &Dense{inv}}, nil
}

// G05 resembles conf6_0-8x8 (QCD): a 4-D periodic lattice with random
// positive weights.
func G05(n int, seed int64) (*Problem, error) {
	rng := rand.New(rand.NewSource(seed))
	side := gridSide(n, 4)
	n = pow(side, 4)
	g := newGraph(n)
	idx := func(c [4]int) int {
		v := 0
		for _, x := range c {
			v = v*side + x
		}
		return v
	}
	var c [4]int
	var rec func(d int)
	rec = func(d int) {
		if d == 4 {
			for dim := 0; dim < 4; dim++ {
				nb := c
				nb[dim] = (nb[dim] + 1) % side
				g.addEdge(idx(c), idx(nb), 0.5+rng.Float64())
			}
			return
		}
		for x := 0; x < side; x++ {
			c[d] = x
			rec(d + 1)
		}
	}
	rec(0)
	inv, err := g.laplacianInverse(0.2)
	if err != nil {
		return nil, fmt.Errorf("G05: %w", err)
	}
	return &Problem{Name: "G05", Desc: "4-D periodic lattice (QCD-like) graph Laplacian inverse", K: &Dense{inv}}, nil
}
