package core

import (
	"math"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/tree"
)

// denseSPD wraps a dense symmetric matrix as an SPD oracle with the Bulk
// fast path.
type denseSPD struct{ M *linalg.Matrix }

func (d denseSPD) Dim() int            { return d.M.Rows }
func (d denseSPD) At(i, j int) float64 { return d.M.At(i, j) }
func (d denseSPD) Submatrix(I, J []int, dst *linalg.Matrix) {
	for c, j := range J {
		col := dst.Col(c)
		src := d.M.Col(j)
		for r, i := range I {
			col[r] = src[i]
		}
	}
}

// gaussKernelMatrix builds a dense Gaussian kernel matrix from 2-D points —
// the canonical compressible SPD test case.
func gaussKernelMatrix(rng *rand.Rand, n int, h float64) (*linalg.Matrix, *linalg.Matrix) {
	X := linalg.GaussianMatrix(rng, 2, n)
	K := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		xj := X.Col(j)
		col := K.Col(j)
		for i := 0; i < n; i++ {
			xi := X.Col(i)
			d2 := 0.0
			for q := range xi {
				t := xi[q] - xj[q]
				d2 += t * t
			}
			col[i] = math.Exp(-d2 / (2 * h * h))
		}
	}
	// A small ridge keeps the matrix numerically SPD.
	for i := 0; i < n; i++ {
		K.Add(i, i, 1e-8)
	}
	return K, X
}

func compressGauss(t testing.TB, n int, cfg Config) (*Hierarchical, *linalg.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	K, X := gaussKernelMatrix(rng, n, 0.8)
	cfg.Points = X
	h, err := Compress(denseSPD{K}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, K
}

// checkCoverage asserts the fundamental tiling invariant: for every leaf β
// and every original column index j, the pair is covered exactly once by
// either a near leaf or a far ancestor block.
func checkCoverage(t *testing.T, h *Hierarchical) {
	t.Helper()
	tr := h.Tree
	n := h.K.Dim()
	for _, beta := range tr.Leaves() {
		cover := make([]int, n)
		for _, alpha := range h.nodes[beta].near {
			for _, j := range tr.Indices(alpha) {
				cover[j]++
			}
		}
		for b := beta; b != -1; b = tr.Parent(b) {
			for _, alpha := range h.nodes[b].far {
				for _, j := range tr.Indices(alpha) {
					cover[j]++
				}
			}
		}
		for j := 0; j < n; j++ {
			if cover[j] != 1 {
				t.Fatalf("leaf %d, column %d covered %d times", beta, j, cover[j])
			}
		}
	}
}

func TestCoverageSymmetricMode(t *testing.T) {
	for _, budget := range []float64{0, 0.05, 0.25, 1.0} {
		h, _ := compressGauss(t, 300, Config{
			LeafSize: 32, MaxRank: 32, Tol: 1e-6, Kappa: 8,
			Budget: budget, Distance: Kernel, Exec: Sequential, Seed: 3,
		})
		checkCoverage(t, h)
	}
}

func TestCoverageLeafwiseMode(t *testing.T) {
	for _, budget := range []float64{0, 0.1, 0.5} {
		h, _ := compressGauss(t, 300, Config{
			LeafSize: 32, MaxRank: 32, Tol: 1e-6, Kappa: 8,
			Budget: budget, Distance: Kernel, Exec: Sequential, Seed: 3,
			NoSymmetrize: true,
		})
		checkCoverage(t, h)
	}
}

func TestFarListsSymmetric(t *testing.T) {
	h, _ := compressGauss(t, 400, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-6, Kappa: 8,
		Budget: 0.15, Distance: Angle, Exec: Sequential, Seed: 5,
	})
	inFar := map[[2]int]bool{}
	for id := range h.nodes {
		for _, a := range h.nodes[id].far {
			inFar[[2]int{id, a}] = true
		}
	}
	for p := range inFar {
		if !inFar[[2]int{p[1], p[0]}] {
			t.Fatalf("far pair (%d,%d) lacks its transpose", p[0], p[1])
		}
		// Equal level (the H² structure).
		if h.Tree.Nodes[p[0]].Level != h.Tree.Nodes[p[1]].Level {
			t.Fatalf("far pair (%d,%d) spans levels %d and %d",
				p[0], p[1], h.Tree.Nodes[p[0]].Level, h.Tree.Nodes[p[1]].Level)
		}
	}
}

func TestNearListsSymmetricAndSelfContaining(t *testing.T) {
	h, _ := compressGauss(t, 300, Config{
		LeafSize: 32, Kappa: 8, Budget: 0.2, Distance: Kernel,
		Exec: Sequential, Seed: 7, Tol: 1e-5,
	})
	for _, beta := range h.Tree.Leaves() {
		foundSelf := false
		for _, a := range h.nodes[beta].near {
			if a == beta {
				foundSelf = true
			}
			sym := false
			for _, b := range h.nodes[a].near {
				if b == beta {
					sym = true
					break
				}
			}
			if !sym {
				t.Fatalf("near relation not symmetric: %d ∈ Near(%d)", a, beta)
			}
		}
		if !foundSelf {
			t.Fatalf("leaf %d not near itself", beta)
		}
	}
}

func TestHSSModeNearIsSelfOnly(t *testing.T) {
	h, _ := compressGauss(t, 300, Config{
		LeafSize: 32, Kappa: 8, Budget: 0, Distance: Kernel,
		Exec: Sequential, Seed: 7, Tol: 1e-5,
	})
	for _, beta := range h.Tree.Leaves() {
		near := h.nodes[beta].near
		if len(near) != 1 || near[0] != beta {
			t.Fatalf("budget 0 leaf %d has near list %v", beta, near)
		}
	}
	// HSS far lists are exactly the sibling at every level.
	for id := 1; id < len(h.nodes); id++ {
		far := h.nodes[id].far
		if len(far) != 1 || far[0] != h.Tree.Sibling(id) {
			t.Fatalf("HSS far list of %d = %v, want sibling %d", id, far, h.Tree.Sibling(id))
		}
	}
}

// TestFigure2Example reproduces the worked example of Figure 2: a depth-3
// tree whose only non-trivial neighbor interaction is between leaves β and μ.
func TestFigure2Example(t *testing.T) {
	// 8 leaves of size 1. Build the structure by hand: tree over 8 indices.
	h := &Hierarchical{
		K:   denseSPD{linalg.Eye(8)},
		Cfg: Config{LeafSize: 1, NoSymmetrize: true}.withDefaults(8),
	}
	h.Cfg.LeafSize = 1
	h.Tree = tree.Build(8, 1, nil)
	h.nodes = make([]node, len(h.Tree.Nodes))
	// Leaves are node IDs 7..14; Figure 2 names: l=7, r=8, β=9, μ=13.
	const l, r, beta, mu = 7, 8, 9, 13
	for _, leaf := range h.Tree.Leaves() {
		h.nodes[leaf].near = []int{leaf}
	}
	h.nodes[beta].near = []int{beta, mu}
	h.nodes[mu].near = []int{mu, beta}
	h.buildFarLists() // NoSymmetrize → leafwise FindFar + MergeFar, sorted
	// Check the figure's stated results precisely (lists are sorted by ID).
	assertList := func(id int, want []int) {
		got := append([]int(nil), h.nodes[id].far...)
		if len(got) != len(want) {
			t.Fatalf("Far(%d) = %v, want %v", id, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("Far(%d) = %v, want %v", id, got, want)
			}
		}
	}
	// MergeFar lifts {4,2} (sorted: {2,4}) to node 3 = α, leaving the
	// siblings in the children lists.
	assertList(3, []int{2, 4})
	assertList(l, []int{r})
	assertList(r, []int{l})
	checkCoverage(t, h)
}

func TestBudgetCapsNearListSize(t *testing.T) {
	// Paper Eq. (6): |Near(β)| ≤ budget·(N/m) before symmetrization. With a
	// clustered matrix and a tight budget, the near lists must stay small.
	budget := 0.1
	h, _ := compressGauss(t, 512, Config{
		LeafSize: 32, Kappa: 16, Budget: budget, Distance: Kernel,
		Exec: Sequential, Seed: 11, Tol: 1e-4, NoSymmetrize: true,
	})
	cap := int(budget*float64(h.Tree.NumLeaves())) + 1 // +1 for self
	for _, beta := range h.Tree.Leaves() {
		if len(h.nodes[beta].near) > cap {
			t.Fatalf("leaf %d near list %d exceeds cap %d", beta, len(h.nodes[beta].near), cap)
		}
	}
}

func TestMergeSorted(t *testing.T) {
	got := mergeSorted([]int32{1, 3, 5}, []int32{1, 2, 5, 9})
	want := []int32{1, 2, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("mergeSorted = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeSorted = %v", got)
		}
	}
	if out := mergeSorted(nil, nil); len(out) != 0 {
		t.Fatalf("mergeSorted(nil,nil) = %v", out)
	}
}

func TestLeafRange(t *testing.T) {
	tr := tree.Build(64, 8, nil)
	lo, hi := leafRange(tr, 0)
	if lo != 0 || hi != tr.NumLeaves() {
		t.Fatalf("root leaf range [%d,%d)", lo, hi)
	}
	for k, leaf := range tr.Leaves() {
		lo, hi = leafRange(tr, leaf)
		if lo != k || hi != k+1 {
			t.Fatalf("leaf %d range [%d,%d), want [%d,%d)", leaf, lo, hi, k, k+1)
		}
	}
}
