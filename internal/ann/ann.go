// Package ann implements the iterative randomized-tree all-nearest-neighbor
// search used as GOFMM's preprocessing step (Algorithm 2.2, steps 1–3):
// in each iteration a random projection tree is built with the same metric
// ball split as the partition tree — except that the pivot points p and q
// are chosen at random — and neighbors are searched exhaustively inside each
// leaf. Iterations stop when the neighbor lists stop improving (the paper
// stops at 80% accuracy or 10 iterations; without ground truth we use the
// update rate of the lists, a standard surrogate).
package ann

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"gofmm/internal/metric"
	"gofmm/internal/sched"
	"gofmm/internal/tree"
)

// List stores the κ approximate nearest neighbors of every index, sorted by
// ascending distance. Entry (i, k) lives at position i*K+k of ID and D.
// Every index is its own first neighbor (distance 0), matching the pruning
// semantics of the paper where a leaf is always near itself.
//
// Equal distances are ordered deterministically: a neighbor already in the
// list stays ahead of an equally distant newcomer, and newcomers at equal
// distance enter in index order. A candidate enters only when it is
// strictly closer than the list's current κ-th entry, so a NaN distance
// never does.
type List struct {
	N, K int
	ID   []int32
	D    []float64
}

// NewList allocates a list seeded with self-neighbors only (all other slots
// hold sentinel +inf distances and ID -1).
func NewList(n, k int) *List {
	l := &List{N: n, K: k, ID: make([]int32, n*k), D: make([]float64, n*k)}
	for i := 0; i < n; i++ {
		base := i * k
		l.ID[base] = int32(i)
		for s := 1; s < k; s++ {
			l.ID[base+s] = -1
			l.D[base+s] = inf
		}
	}
	return l
}

const inf = 1e300

// Of returns the neighbor IDs of index i (valid entries only).
func (l *List) Of(i int) []int32 {
	base := i * l.K
	ids := l.ID[base : base+l.K]
	for k, id := range ids {
		if id < 0 {
			return ids[:k]
		}
	}
	return ids
}

// DistOf returns the distance of neighbor slot k of index i.
func (l *List) DistOf(i, k int) float64 { return l.D[i*l.K+k] }

// candidate is one (distance, id) pair offered to a list.
type candidate struct {
	d  float64
	id int32
}

// byDistThenID orders candidates by distance, then index. Candidates that
// reach it are never NaN, so the order is total.
func byDistThenID(a, b candidate) int {
	if a.d < b.d {
		return -1
	}
	if a.d > b.d {
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// mergeBuf is the scratch one merge works in. Reusing it across merges
// makes a merge allocation-free.
type mergeBuf struct {
	surv []candidate
	id   []int32
	d    []float64
}

// merge folds a batch of candidate (id, dist) pairs into index i's sorted
// list, returning how many of the K slots changed. Candidates no closer than
// the current κ-th entry are dropped up front; the survivors are ordered by
// (distance, index) and sweep-merged with the list, the listed entry first
// on a tie. An id seen twice keeps its first (closest) occurrence.
func (l *List) merge(i int, candID []int32, candD []float64, buf *mergeBuf) int {
	base := i * l.K
	curID := l.ID[base : base+l.K]
	curD := l.D[base : base+l.K]
	worst := curD[l.K-1]
	surv := buf.surv[:0]
	for c, d := range candD {
		if d < worst {
			surv = append(surv, candidate{d, candID[c]})
		}
	}
	buf.surv = surv
	if len(surv) == 0 {
		return 0
	}
	slices.SortFunc(surv, byDistThenID)
	// The listed entries up to the closest survivor keep their slots; they
	// are valid (sentinel slots come last, beyond every survivor) and
	// distinct, so only the tail after them is rebuilt, deduplicated
	// against the kept prefix.
	keep := 0
	for keep < l.K && curD[keep] <= surv[0].d {
		keep++
	}
	newID, newD := buf.id[:0], buf.d[:0]
	ci, si := keep, 0
	for keep+len(newID) < l.K && (ci < l.K || si < len(surv)) {
		var id int32
		var d float64
		if si == len(surv) || (ci < l.K && curD[ci] <= surv[si].d) {
			id, d = curID[ci], curD[ci]
			ci++
		} else {
			id, d = surv[si].id, surv[si].d
			si++
		}
		if id < 0 || slices.Contains(curID[:keep], id) || slices.Contains(newID, id) {
			continue
		}
		newID = append(newID, id)
		newD = append(newD, d)
	}
	buf.id, buf.d = newID, newD
	changed := 0
	for k, id := range newID {
		if curID[keep+k] != id {
			changed++
		}
		curID[keep+k], curD[keep+k] = id, newD[k]
	}
	for k := keep + len(newID); k < l.K; k++ {
		curID[k], curD[k] = -1, inf
	}
	return changed
}

// minGain stops the search once an iteration updates fewer than this
// fraction of the n·κ list slots.
const minGain = 0.2

// Options configures the iterative search.
type Options struct {
	LeafSize int // random tree leaf size (paper: same m as the ball tree)
	MaxIters int // default 10
	Seed     int64
	// Workers parallelizes the per-leaf exhaustive searches (leaves touch
	// disjoint index sets, so updates are race-free). Default 1.
	Workers int
}

// Search runs the iterative randomized-tree ANN search over n indices with
// the given distance space, returning κ neighbors per index. The context is
// checked before every leaf search: once it is done, the search stops and
// returns its error (a panic in a leaf search returns as a
// *resilience.PanicError).
func Search(ctx context.Context, n, kappa int, space metric.Space, opt Options) (*List, error) {
	if opt.LeafSize <= 0 {
		opt.LeafSize = 128
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 10
	}
	if kappa > n {
		kappa = n
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	l := NewList(n, kappa)
	rng := rand.New(rand.NewSource(opt.Seed))
	for iter := 0; iter < opt.MaxIters; iter++ {
		split := &metric.BallSplit{Space: space, Rng: rng, Random: true}
		rt := tree.Build(n, opt.LeafSize, split)
		var changed int64
		batch := make([]func(), 0, rt.NumLeaves())
		for _, leaf := range rt.Leaves() {
			idx := rt.Indices(leaf)
			batch = append(batch, func() {
				atomic.AddInt64(&changed, int64(exhaustiveLeaf(l, space, idx)))
			})
		}
		if err := sched.RunLevelsCtx(ctx, [][]func(){batch}, opt.Workers); err != nil {
			return nil, err
		}
		if float64(changed) < minGain*float64(n*kappa) {
			break
		}
	}
	return l, nil
}

// leafBuf is the scratch of one exhaustive leaf search. Searches draw it
// from leafBufs, so steady-state leaf searches allocate nothing.
type leafBuf struct {
	dm     []float64
	candID []int32
	candD  []float64
	merge  mergeBuf
}

var leafBufs = sync.Pool{New: func() any { return new(leafBuf) }}

// exhaustiveLeaf updates neighbor lists of every index in idx against every
// other index in idx, the KNN(K_αα) task of Table 2 (cost m²).
func exhaustiveLeaf(l *List, space metric.Space, idx []int) int {
	b := leafBufs.Get().(*leafBuf)
	defer leafBufs.Put(b)
	m := len(idx)
	// Compute the leaf's distance matrix column by column and merge rows.
	dm := slices.Grow(b.dm[:0], m*m)[:m*m]
	b.dm = dm
	for c, j := range idx {
		space.DistsTo(idx, j, dm[c*m:(c+1)*m])
	}
	changed := 0
	for r, i := range idx {
		candID, candD := b.candID[:0], b.candD[:0]
		for c, j := range idx {
			if j == i {
				continue
			}
			candID = append(candID, int32(j))
			candD = append(candD, dm[c*m+r])
		}
		b.candID, b.candD = candID, candD
		changed += l.merge(i, candID, candD, &b.merge)
	}
	return changed
}

// Exact computes the true κ-nearest-neighbor lists by brute force (O(n²)),
// used for accuracy verification in tests and small problems.
func Exact(n, kappa int, space metric.Space) *List {
	if kappa > n {
		kappa = n
	}
	l := NewList(n, kappa)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	dcol := make([]float64, n)
	candID := make([]int32, 0, n)
	candD := make([]float64, 0, n)
	var buf mergeBuf
	for _, i := range idx {
		space.DistsTo(idx, i, dcol)
		candID = candID[:0]
		candD = candD[:0]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			candID = append(candID, int32(j))
			candD = append(candD, dcol[j])
		}
		l.merge(i, candID, candD, &buf)
	}
	return l
}

// Recall returns the fraction of entries of approx that appear in the exact
// list of the same index — the accuracy measure the paper's ANN iteration
// reports.
func Recall(approx, exact *List) float64 {
	if approx.N != exact.N {
		panic("ann: Recall on mismatched lists")
	}
	hits, total := 0, 0
	for i := 0; i < approx.N; i++ {
		truth := map[int32]bool{}
		for _, id := range exact.Of(i) {
			truth[id] = true
		}
		for _, id := range approx.Of(i) {
			total++
			if truth[id] {
				hits++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
