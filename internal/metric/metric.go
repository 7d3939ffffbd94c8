// Package metric implements the three index-to-index distances of GOFMM §2.1
// (geometric ℓ₂ when points are available, Gram/kernel ℓ₂, and Gram angle)
// and the splitters built on them: the metric ball-tree split of
// Algorithm 2.1, the random-projection split used by the randomized
// neighbor-search trees, and the lexicographic/random pseudo-splits used for
// the permutation study (Figure 7).
//
// The crucial observation reproduced here is that an SPD matrix K is the
// Gram matrix of unknown vectors φᵢ, so
//
//	d²(i,j) = Kᵢᵢ + Kⱼⱼ − 2Kᵢⱼ      (kernel distance)
//	d(i,j)  = 1 − K²ᵢⱼ/(KᵢᵢKⱼⱼ)     (angle distance)
//
// are proper distances computable from three matrix entries each — no
// coordinates needed.
package metric

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"gofmm/internal/linalg"
)

// Gram provides sampled access to an SPD matrix. It is the minimal contract
// GOFMM demands from its input (the "routine that returns K_IJ").
type Gram interface {
	Dim() int
	At(i, j int) float64
}

// Columns is the optional column read of a Gram oracle: Column fills
// dst[r] = At(I[r], j), with At's bits, in one call.
type Columns interface {
	Column(I []int, j int, dst []float64)
}

// columnReader returns K's column read, or a loop over At when K has none,
// so each Gram space has one code path.
func columnReader(K Gram) func(I []int, j int, dst []float64) {
	if c, ok := K.(Columns); ok {
		return c.Column
	}
	return func(I []int, j int, dst []float64) {
		for r, i := range I {
			dst[r] = K.At(i, j)
		}
	}
}

// sampleRowSums sets sum[k] = Σ_s K(idx[k], s) over the sample, reading one
// column per sample index and adding the columns in sample order: for each
// k these are the additions, in the order, of a loop over the sample.
func sampleRowSums(column func([]int, int, []float64), idx, sample []int, sum []float64) {
	sum = sum[:len(idx)]
	clear(sum)
	col := make([]float64, len(idx))
	for _, sj := range sample {
		column(idx, sj, col)
		for k, v := range col {
			sum[k] += v
		}
	}
}

// Space defines a distance between matrix indices together with the two bulk
// queries the ball-tree split needs. Implementations must only *order*
// consistently; any monotone transform of a true metric is acceptable
// (the paper: "we only compare values for the purpose of ordering").
type Space interface {
	// Name identifies the space ("geometric", "kernel", "angle").
	Name() string
	// Dist returns the distance (or a monotone equivalent) between i and j.
	Dist(i, j int) float64
	// DistsTo fills out[k] = Dist(idx[k], j).
	DistsTo(idx []int, j int, out []float64)
	// DistsToCentroid fills out[k] with a monotone equivalent of the
	// distance from idx[k] to the centroid of the Gram vectors (or points)
	// listed in sample.
	DistsToCentroid(idx []int, sample []int, out []float64)
}

// gramDiag reads K(i,i) for every index once: both Gram distances need the
// diagonal entries of each pair they compare.
func gramDiag(K Gram) []float64 {
	d := make([]float64, K.Dim())
	for i := range d {
		d[i] = K.At(i, i)
	}
	return d
}

// KernelSpace is the Gram-ℓ₂ ("kernel") distance, Eq. (3) of the paper.
type KernelSpace struct {
	k      Gram
	column func(I []int, j int, dst []float64)
	diag   []float64 // K(i,i)
}

// NewKernelSpace returns the kernel distance over K, reading K's diagonal
// once so each distance costs one off-diagonal oracle entry.
func NewKernelSpace(K Gram) KernelSpace {
	return KernelSpace{k: K, column: columnReader(K), diag: gramDiag(K)}
}

// Name implements Space.
func (KernelSpace) Name() string { return "kernel" }

// Dist returns d²(i,j) = Kii + Kjj − 2Kij (squared distances order
// identically to distances).
func (s KernelSpace) Dist(i, j int) float64 {
	return s.diag[i] + s.diag[j] - 2*s.k.At(i, j)
}

// DistsTo implements Space with one column read.
func (s KernelSpace) DistsTo(idx []int, j int, out []float64) {
	s.column(idx, j, out)
	kjj := s.diag[j]
	for k, i := range idx {
		out[k] = s.diag[i] + kjj - 2*out[k]
	}
}

// DistsToCentroid uses ‖φᵢ − c‖² = Kᵢᵢ − (2/nc)Σ_s Kᵢs + const, dropping the
// i-independent constant.
func (s KernelSpace) DistsToCentroid(idx []int, sample []int, out []float64) {
	inv := 2 / float64(len(sample))
	sampleRowSums(s.column, idx, sample, out)
	for k, i := range idx {
		out[k] = s.diag[i] - inv*out[k]
	}
}

// AngleSpace is the Gram angle distance, Eq. (4) of the paper:
// d(i,j) = 1 − K²ᵢⱼ/(KᵢᵢKⱼⱼ) = sin²∠(φᵢ, φⱼ).
type AngleSpace struct {
	k      Gram
	column func(I []int, j int, dst []float64)
	diag   []float64 // K(i,i)
}

// NewAngleSpace returns the angle distance over K, reading K's diagonal
// once so each distance costs one off-diagonal oracle entry.
func NewAngleSpace(K Gram) AngleSpace {
	return AngleSpace{k: K, column: columnReader(K), diag: gramDiag(K)}
}

// Name implements Space.
func (AngleSpace) Name() string { return "angle" }

// Dist implements Space.
func (s AngleSpace) Dist(i, j int) float64 {
	kij := s.k.At(i, j)
	den := s.diag[i] * s.diag[j]
	if den <= 0 {
		return 1
	}
	return 1 - kij*kij/den
}

// DistsTo implements Space with one column read.
func (s AngleSpace) DistsTo(idx []int, j int, out []float64) {
	s.column(idx, j, out)
	kjj := s.diag[j]
	for k, i := range idx {
		kij := out[k]
		den := s.diag[i] * kjj
		if den <= 0 {
			out[k] = 1
			continue
		}
		out[k] = 1 - kij*kij/den
	}
}

// DistsToCentroid uses (φᵢ, c) = (1/nc)Σ_s Kᵢs and
// ‖c‖² = (1/nc²)Σ_{s,t} K_st.
func (s AngleSpace) DistsToCentroid(idx []int, sample []int, out []float64) {
	m := len(sample)
	nc := float64(m)
	blk := make([]float64, m*m) // blk[b·m + a] = K(sample[a], sample[b])
	for b, sb := range sample {
		s.column(sample, sb, blk[b*m:(b+1)*m])
	}
	var cnorm2 float64
	for a := range sample {
		for b := range sample {
			cnorm2 += blk[b*m+a]
		}
	}
	cnorm2 /= nc * nc
	sampleRowSums(s.column, idx, sample, out)
	for k, i := range idx {
		dot := out[k] / nc
		den := s.diag[i] * cnorm2
		if den <= 0 {
			out[k] = 1
			continue
		}
		out[k] = 1 - dot*dot/den
	}
}

// GeometricSpace is the point-based Euclidean distance, the geometry-aware
// reference used when coordinates are available. Points are stored as the
// columns of a d×N matrix.
type GeometricSpace struct{ X *linalg.Matrix }

// Name implements Space.
func (GeometricSpace) Name() string { return "geometric" }

// Dist returns ‖xᵢ − xⱼ‖² (squared; monotone equivalent).
func (s GeometricSpace) Dist(i, j int) float64 {
	xi, xj := s.X.Col(i), s.X.Col(j)
	var d float64
	for k := range xi {
		t := xi[k] - xj[k]
		d += t * t
	}
	return d
}

// DistsTo implements Space.
func (s GeometricSpace) DistsTo(idx []int, j int, out []float64) {
	for k, i := range idx {
		out[k] = s.Dist(i, j)
	}
}

// DistsToCentroid computes squared distances to the arithmetic mean of the
// sampled points.
func (s GeometricSpace) DistsToCentroid(idx []int, sample []int, out []float64) {
	d := s.X.Rows
	c := make([]float64, d)
	for _, sj := range sample {
		linalg.Axpy(1, s.X.Col(sj), c)
	}
	linalg.Scal(1/float64(len(sample)), c)
	for k, i := range idx {
		xi := s.X.Col(i)
		var dd float64
		for q := range xi {
			t := xi[q] - c[q]
			dd += t * t
		}
		out[k] = dd
	}
}

// BallSplit is the metric ball-tree splitter of Algorithm 2.1: pick the point
// p farthest from a sampled centroid, then q farthest from p, and cut at the
// median of d(i,p) − d(i,q). With Random set, p and q are chosen uniformly at
// random instead — that is exactly how the randomized projection trees for
// neighbor search are built ("constructed in exactly the same way ... except
// that p and q are chosen randomly").
type BallSplit struct {
	Space          Space
	Rng            *rand.Rand
	CentroidSample int  // nc; 0 means 32
	Random         bool // random p, q (ANN projection trees)
	// Err records the first split whose distances had no finite maximum
	// (it wraps ErrNoFiniteSplit). Later splits return at once, and the
	// caller must discard the tree.
	Err error
}

// ErrNoFiniteSplit reports a ball split that could not pick its pivots:
// every distance it compared was NaN, as one NaN entry in the centroid
// sample makes every centroid distance.
var ErrNoFiniteSplit = errors.New("metric: ball split found no finite distance")

// Split implements tree.Splitter.
func (b *BallSplit) Split(idx []int, level int) int {
	n := len(idx)
	nl := (n + 1) / 2
	if n < 2 || b.Err != nil {
		return nl
	}
	var p, q int
	if b.Random {
		p = idx[b.Rng.Intn(n)]
		q = idx[b.Rng.Intn(n)]
		for q == p && n > 1 {
			q = idx[b.Rng.Intn(n)]
		}
	} else {
		nc := b.CentroidSample
		if nc <= 0 {
			nc = 32
		}
		if nc > n {
			nc = n
		}
		sample := make([]int, nc)
		for k := range sample {
			sample[k] = idx[b.Rng.Intn(n)]
		}
		dist := make([]float64, n)
		b.Space.DistsToCentroid(idx, sample, dist)
		ip := linalg.IdxMax(dist)
		if ip < 0 {
			b.Err = fmt.Errorf("%w: centroid distances of the %d-index node at level %d (first index %d)",
				ErrNoFiniteSplit, n, level, idx[0])
			return nl
		}
		p = idx[ip]
		b.Space.DistsTo(idx, p, dist)
		iq := linalg.IdxMax(dist)
		if iq < 0 {
			b.Err = fmt.Errorf("%w: distances to pivot %d of the %d-index node at level %d",
				ErrNoFiniteSplit, p, n, level)
			return nl
		}
		q = idx[iq]
	}
	// proj[i] = d(i,p) − d(i,q): negative means closer to p (left side).
	dp := make([]float64, n)
	dq := make([]float64, n)
	b.Space.DistsTo(idx, p, dp)
	b.Space.DistsTo(idx, q, dq)
	proj := dp
	for k := range proj {
		proj[k] -= dq[k]
	}
	medianSplit(idx, proj, nl)
	return nl
}

// medianSplit reorders idx so the nl smallest projections come first.
// Sorting by (projection, position) keeps ties deterministic; the
// O(n log n) cost matches the paper's per-level bound.
func medianSplit(idx []int, proj []float64, nl int) {
	type key struct {
		proj float64
		pos  int
	}
	keys := make([]key, len(idx))
	for i, p := range proj {
		keys[i] = key{p, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.proj, b.proj); c != 0 {
			return c
		}
		return a.pos - b.pos
	})
	tmp := make([]int, len(idx))
	for k, o := range keys {
		tmp[k] = idx[o.pos]
	}
	copy(idx, tmp)
	_ = nl
}

// RandomSplit shuffles each node's indices before an even cut — the "Random"
// permutation baseline of Figure 7.
type RandomSplit struct{ Rng *rand.Rand }

// Split implements tree.Splitter.
func (r RandomSplit) Split(idx []int, _ int) int {
	r.Rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	return (len(idx) + 1) / 2
}
