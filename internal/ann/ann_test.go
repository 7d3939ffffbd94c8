package ann

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gofmm/internal/linalg"
	"gofmm/internal/metric"
)

// search runs Search without a deadline and fails the test on an error.
func search(t *testing.T, n, kappa int, space metric.Space, opt Options) *List {
	t.Helper()
	l, err := Search(context.Background(), n, kappa, space, opt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func clusteredPoints(rng *rand.Rand, d, n, clusters int, sep float64) *linalg.Matrix {
	X := linalg.NewMatrix(d, n)
	for i := 0; i < n; i++ {
		c := i % clusters
		col := X.Col(i)
		for q := range col {
			col[q] = rng.NormFloat64()
		}
		col[0] += sep * float64(c)
	}
	return X
}

func TestNewListSelfNeighbor(t *testing.T) {
	l := NewList(5, 3)
	for i := 0; i < 5; i++ {
		of := l.Of(i)
		if len(of) != 1 || of[0] != int32(i) {
			t.Fatalf("index %d not seeded with self: %v", i, of)
		}
		if l.DistOf(i, 0) != 0 {
			t.Fatal("self distance nonzero")
		}
	}
}

func TestMergeKeepsSortedUniqueK(t *testing.T) {
	l := NewList(1, 4)
	l.merge(0, []int32{5, 3, 5, 9}, []float64{0.5, 0.3, 0.5, 0.9}, new(mergeBuf))
	of := l.Of(0)
	want := []int32{0, 3, 5, 9}
	if len(of) != 4 {
		t.Fatalf("list = %v", of)
	}
	for k := range want {
		if of[k] != want[k] {
			t.Fatalf("slot %d = %d, want %d", k, of[k], want[k])
		}
	}
	// Distances sorted ascending.
	for k := 1; k < 4; k++ {
		if l.DistOf(0, k) < l.DistOf(0, k-1) {
			t.Fatal("distances not sorted")
		}
	}
	// A better candidate must displace the worst one.
	ch := l.merge(0, []int32{7}, []float64{0.1}, new(mergeBuf))
	if ch == 0 {
		t.Fatal("merge reported no change")
	}
	of = l.Of(0)
	if of[1] != 7 {
		t.Fatalf("best candidate not inserted: %v", of)
	}
	for _, id := range of {
		if id == 9 {
			t.Fatal("worst neighbor not evicted")
		}
	}
}

func TestMergeIdempotent(t *testing.T) {
	l := NewList(1, 3)
	var buf mergeBuf
	l.merge(0, []int32{1, 2}, []float64{0.1, 0.2}, &buf)
	if ch := l.merge(0, []int32{1, 2}, []float64{0.1, 0.2}, &buf); ch != 0 {
		t.Fatalf("re-merging identical candidates changed %d slots", ch)
	}
}

// refMerge is the merge as it stood before the threshold rule: a full sort
// of the batch, a sweep-merge with the list (the listed entry first on a
// tie) and a map to drop repeated ids. Its comparator breaks distance ties
// by index, the order merge pins. Two inputs are filtered before the old
// code runs, because merge refuses them by its threshold rule: NaN
// distances, which no comparator can order, and distances at or beyond the
// empty-slot sentinel, which the old sweep admitted behind the sentinels,
// leaving the list unsorted.
func refMerge(l *List, i int, candID []int32, candD []float64) int {
	base := i * l.K
	curID := l.ID[base : base+l.K]
	curD := l.D[base : base+l.K]
	var ord []int
	for k, d := range candD {
		if d < inf {
			ord = append(ord, k)
		}
	}
	sort.Slice(ord, func(a, b int) bool {
		da, db := candD[ord[a]], candD[ord[b]]
		return da < db || da == db && candID[ord[a]] < candID[ord[b]]
	})
	newID := make([]int32, 0, l.K)
	newD := make([]float64, 0, l.K)
	taken := make(map[int32]bool, l.K)
	ci, oi := 0, 0
	for len(newID) < l.K && (ci < l.K || oi < len(ord)) {
		var id int32
		var d float64
		if oi >= len(ord) || (ci < l.K && curD[ci] <= candD[ord[oi]]) {
			id, d = curID[ci], curD[ci]
			ci++
		} else {
			id, d = candID[ord[oi]], candD[ord[oi]]
			oi++
		}
		if id < 0 || taken[id] {
			continue
		}
		taken[id] = true
		newID = append(newID, id)
		newD = append(newD, d)
	}
	changed := 0
	for k := range newID {
		if curID[k] != newID[k] {
			changed++
		}
		curID[k], curD[k] = newID[k], newD[k]
	}
	for k := len(newID); k < l.K; k++ {
		curID[k], curD[k] = -1, inf
	}
	return changed
}

// randomBatch draws a candidate batch built to hit every corner of the
// merge: ids from a small range (repeats within the batch and with the
// list, including the list's own index), distances from a small set (exact
// ties, ±0) mixed with fresh values, NaN and +Inf.
func randomBatch(rng *rand.Rand, idRange, size int) ([]int32, []float64) {
	ties := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 0.5, 1, 1}
	ids := make([]int32, size)
	ds := make([]float64, size)
	for k := range ids {
		ids[k] = int32(rng.Intn(idRange))
		switch p := rng.Intn(20); {
		case p == 0:
			ds[k] = math.NaN()
		case p == 1:
			ds[k] = math.Inf(1)
		case p < 10:
			ds[k] = ties[rng.Intn(len(ties))]
		default:
			ds[k] = rng.Float64()
		}
	}
	return ids, ds
}

// TestMergeMatchesReference runs sequences of random batches through merge
// and refMerge on twin lists and requires them to agree slot for slot after
// every batch — ids, distances and the changed count — while κ ranges
// from 1 to beyond the batch size and lists still hold empty sentinel
// slots.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	var buf mergeBuf
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(12)
		got, want := NewList(1, k), NewList(1, k)
		idRange := 1 + rng.Intn(24)
		for step := 0; step < 1+rng.Intn(6); step++ {
			ids, ds := randomBatch(rng, idRange, rng.Intn(20))
			cg := got.merge(0, ids, ds, &buf)
			cw := refMerge(want, 0, ids, ds)
			if cg != cw {
				t.Fatalf("trial %d step %d: merge changed %d slots, reference %d", trial, step, cg, cw)
			}
			// Distances compare as values: a batch may offer one id at both
			// +0 and −0, which the (distance, index) order leaves tied.
			for s := 0; s < k; s++ {
				if got.ID[s] != want.ID[s] || got.D[s] != want.D[s] {
					t.Fatalf("trial %d step %d slot %d: merge (%d, %v), reference (%d, %v); batch %v %v",
						trial, step, s, got.ID[s], got.D[s], want.ID[s], want.D[s], ids, ds)
				}
			}
		}
	}
}

// TestMergeTieOrder pins the tie rule: equally distant newcomers enter in
// index order, behind a listed neighbor at the same distance.
func TestMergeTieOrder(t *testing.T) {
	l := NewList(1, 5)
	var buf mergeBuf
	l.merge(0, []int32{9}, []float64{0.5}, &buf)
	l.merge(0, []int32{7, 3, 8, 4}, []float64{0.5, 0.5, 0.2, 0.5}, &buf)
	want := []int32{0, 8, 9, 3, 4}
	for s, id := range want {
		if l.ID[s] != id {
			t.Fatalf("slot %d = %d, want %d (list %v)", s, l.ID[s], id, l.ID)
		}
	}
	if ch := l.merge(0, []int32{1, 2}, []float64{math.NaN(), 0.5}, &buf); ch != 0 {
		t.Fatalf("a NaN or a tie with the κ-th entry changed %d slots", ch)
	}
}

// TestMergeAllocatesNothing: with its scratch reused, a merge that sorts a
// full leaf's candidates into a list allocates nothing.
func TestMergeAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	l := NewList(1, 32)
	ids := make([]int32, 127)
	ds := make([]float64, 127)
	for k := range ids {
		ids[k] = int32(k + 1)
		ds[k] = rng.Float64()
	}
	id0 := append([]int32(nil), l.ID...)
	d0 := append([]float64(nil), l.D...)
	var buf mergeBuf
	allocs := testing.AllocsPerRun(100, func() {
		copy(l.ID, id0)
		copy(l.D, d0)
		l.merge(0, ids, ds, &buf)
	})
	if allocs != 0 {
		t.Fatalf("merge allocated %v times per call", allocs)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n := 60
	X := linalg.GaussianMatrix(rng, 3, n)
	sp := metric.GeometricSpace{X: X}
	l := Exact(n, 5, sp)
	for i := 0; i < n; i++ {
		// Brute force reference.
		type cd struct {
			j int
			d float64
		}
		all := make([]cd, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				all = append(all, cd{j, sp.Dist(i, j)})
			}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
		of := l.Of(i)
		if of[0] != int32(i) {
			t.Fatalf("first neighbor of %d is not self", i)
		}
		for k := 1; k < len(of); k++ {
			if math.Abs(l.DistOf(i, k)-all[k-1].d) > 1e-12 {
				t.Fatalf("index %d slot %d: dist %g, want %g", i, k, l.DistOf(i, k), all[k-1].d)
			}
		}
	}
}

func TestSearchRecallHighOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 512
	X := clusteredPoints(rng, 4, n, 8, 30)
	sp := metric.GeometricSpace{X: X}
	approx := search(t, n, 8, sp, Options{LeafSize: 64, MaxIters: 10, Seed: 9})
	exact := Exact(n, 8, sp)
	if rec := Recall(approx, exact); rec < 0.8 {
		t.Fatalf("recall = %.3f, want ≥ 0.8", rec)
	}
}

func TestSearchKernelSpaceMatchesGeometric(t *testing.T) {
	// Kernel distance on a Gram matrix must find the same neighbors as the
	// geometric distance on the generating points.
	rng := rand.New(rand.NewSource(52))
	n := 256
	X := clusteredPoints(rng, 3, n, 4, 20)
	K := linalg.MatMul(true, false, X, X)
	kg := metric.NewKernelSpace(gram{K})
	gg := metric.GeometricSpace{X: X}
	ak := search(t, n, 6, kg, Options{LeafSize: 32, Seed: 1})
	eg := Exact(n, 6, gg)
	if rec := Recall(ak, eg); rec < 0.75 {
		t.Fatalf("kernel-space recall vs geometric truth = %.3f", rec)
	}
}

type gram struct{ M *linalg.Matrix }

func (g gram) Dim() int            { return g.M.Rows }
func (g gram) At(i, j int) float64 { return g.M.At(i, j) }

func TestSearchPropertyValidLists(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(200)
		k := 1 + rng.Intn(8)
		X := linalg.GaussianMatrix(rng, 2, n)
		l := search(t, n, k, metric.GeometricSpace{X: X}, Options{LeafSize: 16, MaxIters: 3, Seed: seed})
		for i := 0; i < n; i++ {
			of := l.Of(i)
			if len(of) == 0 || of[0] != int32(i) {
				return false
			}
			seen := map[int32]bool{}
			prev := -1.0
			for kk, id := range of {
				if id < 0 || int(id) >= n || seen[id] {
					return false
				}
				seen[id] = true
				d := l.DistOf(i, kk)
				if d < prev {
					return false
				}
				prev = d
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestKappaClampedToN(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	X := linalg.GaussianMatrix(rng, 2, 5)
	l := search(t, 5, 32, metric.GeometricSpace{X: X}, Options{LeafSize: 4, Seed: 2})
	if l.K != 5 {
		t.Fatalf("kappa not clamped: %d", l.K)
	}
	e := Exact(5, 32, metric.GeometricSpace{X: X})
	if e.K != 5 {
		t.Fatalf("exact kappa not clamped: %d", e.K)
	}
}

func TestRecallBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	X := linalg.GaussianMatrix(rng, 2, 40)
	sp := metric.GeometricSpace{X: X}
	e := Exact(40, 4, sp)
	if r := Recall(e, e); r != 1 {
		t.Fatalf("self recall = %g", r)
	}
	fresh := NewList(40, 4)
	r := Recall(fresh, e)
	if r != 1 { // only self-neighbors present, all of which are correct
		t.Fatalf("seed recall = %g, want 1 (self neighbors always correct)", r)
	}
}

func TestSearchParallelWorkersMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	X := clusteredPoints(rng, 3, 300, 4, 20)
	sp := metric.GeometricSpace{X: X}
	a := search(t, 300, 5, sp, Options{LeafSize: 32, MaxIters: 4, Seed: 7, Workers: 1})
	b := search(t, 300, 5, sp, Options{LeafSize: 32, MaxIters: 4, Seed: 7, Workers: 4})
	for i := 0; i < 300; i++ {
		oa, ob := a.Of(i), b.Of(i)
		if len(oa) != len(ob) {
			t.Fatalf("index %d list lengths differ", i)
		}
		for k := range oa {
			if oa[k] != ob[k] {
				t.Fatalf("index %d slot %d: %d vs %d", i, k, oa[k], ob[k])
			}
		}
	}
}
