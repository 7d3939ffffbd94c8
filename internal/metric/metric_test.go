package metric

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gofmm/internal/linalg"
	"gofmm/internal/tree"
)

// gramFromPoints builds the Gram matrix K = XᵀX of columns of X so kernel
// distances are verifiable against true point distances.
func gramFromPoints(X *linalg.Matrix) *linalg.Matrix {
	return linalg.MatMul(true, false, X, X)
}

type denseGram struct{ M *linalg.Matrix }

func (d denseGram) Dim() int            { return d.M.Rows }
func (d denseGram) At(i, j int) float64 { return d.M.At(i, j) }

func randPoints(rng *rand.Rand, d, n int) *linalg.Matrix {
	return linalg.GaussianMatrix(rng, d, n)
}

func TestKernelDistMatchesEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	X := randPoints(rng, 5, 30)
	K := gramFromPoints(X)
	ks := NewKernelSpace(denseGram{K})
	gs := GeometricSpace{X: X}
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if math.Abs(ks.Dist(i, j)-gs.Dist(i, j)) > 1e-9 {
				t.Fatalf("kernel distance ≠ ‖xi−xj‖² at (%d,%d): %g vs %g",
					i, j, ks.Dist(i, j), gs.Dist(i, j))
			}
		}
	}
}

func TestAngleDistMatchesCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	X := randPoints(rng, 4, 20)
	K := gramFromPoints(X)
	as := NewAngleSpace(denseGram{K})
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			xi, xj := X.Col(i), X.Col(j)
			cos := linalg.Dot(xi, xj) / (linalg.Nrm2(xi) * linalg.Nrm2(xj))
			want := 1 - cos*cos
			if math.Abs(as.Dist(i, j)-want) > 1e-9 {
				t.Fatalf("angle distance mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestDistancePropertiesOnRandomSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		K := linalg.RandomSPD(rng, n, 100)
		for _, sp := range []Space{NewKernelSpace(denseGram{K}), NewAngleSpace(denseGram{K})} {
			for trial := 0; trial < 20; trial++ {
				i, j := rng.Intn(n), rng.Intn(n)
				dij, dji := sp.Dist(i, j), sp.Dist(j, i)
				if math.Abs(dij-dji) > 1e-9 {
					return false // symmetry
				}
				if dij < -1e-9 {
					return false // nonnegativity
				}
				if i == j && math.Abs(dij) > 1e-9 {
					return false // identity
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDistsToMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	K := linalg.RandomSPD(rng, 25, 10)
	idx := []int{3, 17, 0, 24, 9}
	for _, sp := range []Space{NewKernelSpace(denseGram{K}), NewAngleSpace(denseGram{K})} {
		out := make([]float64, len(idx))
		sp.DistsTo(idx, 7, out)
		for k, i := range idx {
			if math.Abs(out[k]-sp.Dist(i, 7)) > 1e-12 {
				t.Fatalf("%s DistsTo mismatch at %d", sp.Name(), i)
			}
		}
	}
}

func TestKernelCentroidDistsOrderLikeTrueCentroid(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	X := randPoints(rng, 3, 40)
	K := gramFromPoints(X)
	ks := NewKernelSpace(denseGram{K})
	idx := make([]int, 40)
	for i := range idx {
		idx[i] = i
	}
	sample := idx // full sample -> exact centroid
	got := make([]float64, len(idx))
	ks.DistsToCentroid(idx, sample, got)
	// True squared distances to the mean point.
	c := make([]float64, 3)
	for i := 0; i < 40; i++ {
		linalg.Axpy(1.0/40, X.Col(i), c)
	}
	want := make([]float64, len(idx))
	for k, i := range idx {
		xi := X.Col(i)
		for q := range xi {
			d := xi[q] - c[q]
			want[k] += d * d
		}
	}
	// The kernel version drops an additive constant, so compare orderings via
	// the argmax (all we use it for).
	if linalg.IdxMax(got) != linalg.IdxMax(want) {
		t.Fatalf("centroid argmax disagrees: kernel %d vs geometric %d",
			linalg.IdxMax(got), linalg.IdxMax(want))
	}
	// And differences must agree up to the constant.
	off := got[0] - want[0]
	for k := range got {
		if math.Abs(got[k]-want[k]-off) > 1e-9 {
			t.Fatalf("kernel centroid distance not a shifted copy at %d", k)
		}
	}
}

func TestBallSplitSeparatesClusters(t *testing.T) {
	// Two well-separated clusters must be split apart by the ball split for
	// every distance definition.
	rng := rand.New(rand.NewSource(44))
	n := 64
	X := linalg.NewMatrix(2, n)
	for i := 0; i < n; i++ {
		off := 0.0
		if i%2 == 1 {
			off = 100
		}
		X.Set(0, i, off+rng.NormFloat64())
		X.Set(1, i, rng.NormFloat64())
	}
	K := gramFromPoints(X)
	// Shift to keep K SPD-ish and entries positive for the angle metric.
	for i := 0; i < n; i++ {
		K.Add(i, i, 1)
	}
	spaces := []Space{
		GeometricSpace{X: X},
		NewKernelSpace(denseGram{K}),
	}
	for _, sp := range spaces {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		bs := &BallSplit{Space: sp, Rng: rand.New(rand.NewSource(7))}
		nl := bs.Split(idx, 0)
		if nl != n/2 {
			t.Fatalf("%s: nl = %d", sp.Name(), nl)
		}
		// All even (cluster A) indices on one side.
		left := map[bool]int{}
		for _, i := range idx[:nl] {
			left[i%2 == 0]++
		}
		if left[true] != 0 && left[false] != 0 {
			t.Fatalf("%s: ball split mixed clusters: %v", sp.Name(), left)
		}
	}
}

func TestBallSplitBalanced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		K := linalg.RandomSPD(rng, n, 50)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		bs := &BallSplit{Space: NewAngleSpace(denseGram{K}), Rng: rng}
		nl := bs.Split(idx, 0)
		if nl != (n+1)/2 {
			return false
		}
		// idx must remain a permutation.
		seen := make([]bool, n)
		for _, v := range idx {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBallSplitUsableInTree(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	K := linalg.RandomSPD(rng, 100, 10)
	bs := &BallSplit{Space: NewKernelSpace(denseGram{K}), Rng: rng, Random: true}
	tr := tree.Build(100, 16, bs)
	if tr.NumLeaves() != 8 {
		t.Fatalf("leaves = %d", tr.NumLeaves())
	}
}

func TestRandomSplitPermutes(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tr := tree.Build(64, 8, RandomSplit{Rng: rng})
	identity := true
	for pos, v := range tr.Perm {
		if pos != v {
			identity = false
			break
		}
	}
	if identity {
		t.Fatal("random split produced the identity permutation")
	}
}

func TestAngleSpaceDegenerateDiagonal(t *testing.T) {
	// Zero diagonal entries must not produce NaN distances.
	K := linalg.NewMatrix(2, 2)
	as := NewAngleSpace(denseGram{K})
	if d := as.Dist(0, 1); d != 1 || math.IsNaN(d) {
		t.Fatalf("degenerate angle distance = %v", d)
	}
}

func TestBallSplitAllIdenticalPoints(t *testing.T) {
	// Degenerate input: every point identical → all distances zero. The
	// split must stay balanced and terminate.
	n := 64
	X := linalg.NewMatrix(2, n)
	X.Fill(3)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	bs := &BallSplit{Space: GeometricSpace{X: X}, Rng: rand.New(rand.NewSource(1))}
	if nl := bs.Split(idx, 0); nl != n/2 {
		t.Fatalf("degenerate split nl = %d", nl)
	}
}

func TestBallSplitTwoElements(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	K := linalg.RandomSPD(rng, 2, 10)
	idx := []int{0, 1}
	bs := &BallSplit{Space: NewKernelSpace(denseGram{K}), Rng: rng}
	if nl := bs.Split(idx, 0); nl != 1 {
		t.Fatalf("2-element split nl = %d", nl)
	}
}

func TestAngleCentroidDegenerate(t *testing.T) {
	// Zero Gram matrix: centroid distances must be defined (no NaN).
	K := linalg.NewMatrix(4, 4)
	as := NewAngleSpace(denseGram{K})
	out := make([]float64, 4)
	as.DistsToCentroid([]int{0, 1, 2, 3}, []int{0, 1}, out)
	for _, v := range out {
		if math.IsNaN(v) {
			t.Fatal("NaN centroid distance")
		}
	}
}

// countingGram counts oracle reads.
type countingGram struct {
	denseGram
	reads int
}

func (c *countingGram) At(i, j int) float64 {
	c.reads++
	return c.denseGram.At(i, j)
}

// The Gram spaces read K's diagonal once, when they are built; a distance
// then costs one oracle read and equals, bit for bit, its formula with the
// diagonal read per pair.
func TestGramDistancesReadDiagonalOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n = 30
	K := linalg.RandomSPD(rng, n, 10)
	formula := map[string]func(i, j int) float64{
		"kernel": func(i, j int) float64 { return K.At(i, i) + K.At(j, j) - 2*K.At(i, j) },
		"angle": func(i, j int) float64 {
			kij := K.At(i, j)
			return 1 - kij*kij/(K.At(i, i)*K.At(j, j))
		},
	}
	build := []func(Gram) Space{
		func(g Gram) Space { return NewKernelSpace(g) },
		func(g Gram) Space { return NewAngleSpace(g) },
	}
	idx := rng.Perm(n)
	out := make([]float64, n)
	for _, b := range build {
		g := &countingGram{denseGram: denseGram{K}}
		sp := b(g)
		if g.reads != n {
			t.Fatalf("%s: building read %d entries, want the %d diagonal ones", sp.Name(), g.reads, n)
		}
		g.reads = 0
		sp.DistsTo(idx, 7, out)
		if g.reads != n {
			t.Fatalf("%s: %d distances read %d entries", sp.Name(), n, g.reads)
		}
		for k, i := range idx {
			if want := formula[sp.Name()](i, 7); math.Float64bits(out[k]) != math.Float64bits(want) {
				t.Fatalf("%s: d(%d, 7) = %v, formula gives %v", sp.Name(), i, out[k], want)
			}
		}
	}
}

// medianSplit orders by (projection, position): for every projection but
// NaN, exact ties and signed zeros included, that is the permutation a
// stable sort by projection gives.
func TestMedianSplitMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		idx := rng.Perm(n)
		proj := make([]float64, n)
		for k := range proj {
			switch rng.Intn(4) {
			case 0:
				proj[k] = rng.NormFloat64()
			case 1:
				proj[k] = specials[rng.Intn(len(specials))]
			default:
				proj[k] = float64(rng.Intn(5)) - 2
			}
		}
		ord := make([]int, n)
		for k := range ord {
			ord[k] = k
		}
		sort.SliceStable(ord, func(a, b int) bool { return proj[ord[a]] < proj[ord[b]] })
		want := make([]int, n)
		for k, o := range ord {
			want[k] = idx[o]
		}
		medianSplit(idx, proj, (n+1)/2)
		for k := range want {
			if idx[k] != want[k] {
				t.Fatalf("trial %d: position %d holds %d, stable sort gives %d", trial, k, idx[k], want[k])
			}
		}
	}
}
