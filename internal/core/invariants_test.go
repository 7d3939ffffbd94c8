package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/sched"
	"gofmm/internal/telemetry"
)

// TestSkeletonsAreNested verifies the nesting property of Algorithm 2.6:
// every interior node's skeleton is a subset of its children's skeletons
// (α̃ ⊂ l̃ ∪ r̃), which is what makes the telescoping evaluation valid.
func TestSkeletonsAreNested(t *testing.T) {
	h, _ := compressGauss(t, 400, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-5, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 170, CacheBlocks: true,
	})
	tr := h.Tree
	for id := 1; id < len(tr.Nodes); id++ {
		if tr.IsLeaf(id) {
			// Leaf skeletons must be subsets of the leaf's own indices.
			own := map[int]bool{}
			for _, i := range tr.Indices(id) {
				own[i] = true
			}
			for _, s := range h.Skeleton(id) {
				if !own[s] {
					t.Fatalf("leaf %d skeleton contains foreign index %d", id, s)
				}
			}
			continue
		}
		child := map[int]bool{}
		for _, s := range h.Skeleton(tr.Left(id)) {
			child[s] = true
		}
		for _, s := range h.Skeleton(tr.Right(id)) {
			child[s] = true
		}
		for _, s := range h.Skeleton(id) {
			if !child[s] {
				t.Fatalf("node %d skeleton not nested: index %d not in children", id, s)
			}
		}
	}
}

// TestSkeletonRanksShrinkTowardRoot: under a fixed tolerance the skeleton of
// a parent cannot exceed the combined size of its children's skeletons.
func TestSkeletonRanksBounded(t *testing.T) {
	h, _ := compressGauss(t, 400, Config{
		LeafSize: 32, MaxRank: 64, Tol: 1e-4, Kappa: 8, Budget: 0.05,
		Distance: Kernel, Exec: Sequential, Seed: 171, CacheBlocks: true,
	})
	tr := h.Tree
	for id := 1; id < len(tr.Nodes); id++ {
		if tr.IsLeaf(id) {
			continue
		}
		sum := h.Rank(tr.Left(id)) + h.Rank(tr.Right(id))
		if h.Rank(id) > sum {
			t.Fatalf("node %d rank %d exceeds children total %d", id, h.Rank(id), sum)
		}
	}
}

// TestBudgetOneIsExact: with budget 1 every leaf pair is near, so K̃ = K
// exactly (all blocks direct, no low-rank anywhere).
func TestBudgetOneIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	n := 200
	Kd, _ := gaussKernelMatrix(rng, n, 0.3) // narrow: low-rank would fail badly
	h, err := Compress(denseSPD{Kd}, Config{
		LeafSize: 16, MaxRank: 4, Tol: 1e-1, Kappa: n, Budget: 1.0,
		Distance: Kernel, Exec: Sequential, Seed: 173, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every leaf must be near every other leaf.
	for _, beta := range h.Tree.Leaves() {
		if len(h.NearList(beta)) != h.Tree.NumLeaves() {
			t.Skipf("budget 1 with κ=%d left %d/%d near leaves (vote-limited)",
				n, len(h.NearList(beta)), h.Tree.NumLeaves())
		}
	}
	W := linalg.GaussianMatrix(rng, n, 2)
	U := h.Matvec(W)
	exact := linalg.MatMul(false, false, Kd, W)
	if d := linalg.RelFrobDiff(U, exact); d > 1e-13 {
		t.Fatalf("budget-1 matvec not exact: %g", d)
	}
}

// TestIdentityMatrixCompresses: K = I has zero off-diagonal blocks — every
// skeleton collapses to rank 0 and the matvec is exact.
func TestIdentityMatrixCompresses(t *testing.T) {
	n := 256
	h, err := Compress(denseSPD{linalg.Eye(n)}, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-10, Kappa: 4, Budget: 0,
		Distance: Kernel, Exec: Sequential, Seed: 174, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.AvgRank > 0.01 {
		t.Fatalf("identity matrix produced avg rank %g", h.Stats.AvgRank)
	}
	rng := rand.New(rand.NewSource(175))
	W := linalg.GaussianMatrix(rng, n, 2)
	U := h.Matvec(W)
	if d := linalg.RelFrobDiff(U, W); d > 1e-14 {
		t.Fatalf("I·W ≠ W: %g", d)
	}
}

// TestDuplicatedPointsDegenerate: identical Gram vectors give all-zero
// distances; the split must stay balanced and compression must not hang.
func TestDuplicatedPointsDegenerate(t *testing.T) {
	n := 128
	K := linalg.NewMatrix(n, n)
	K.Fill(1)
	for i := 0; i < n; i++ {
		K.Add(i, i, 1) // rank-1 ones + I: SPD, all points identical in Gram space
	}
	h, err := Compress(denseSPD{K}, Config{
		LeafSize: 16, MaxRank: 8, Tol: 1e-10, Kappa: 4, Budget: 0.1,
		Distance: Angle, Exec: Sequential, Seed: 176, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(177))
	W := linalg.GaussianMatrix(rng, n, 2)
	U := h.Matvec(W)
	exact := linalg.MatMul(false, false, K, W)
	if d := linalg.RelFrobDiff(U, exact); d > 1e-10 {
		t.Fatalf("degenerate matrix error %g (rank-1 structure should be trivial)", d)
	}
}

// TestRankProfile sanity-checks the per-level rank report.
func TestRankProfile(t *testing.T) {
	h, _ := compressGauss(t, 400, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-5, Kappa: 8, Budget: 0.05,
		Distance: Kernel, Exec: Sequential, Seed: 178, CacheBlocks: true,
	})
	prof := h.RankProfile()
	if len(prof) != h.Tree.Depth+1 {
		t.Fatalf("profile has %d levels, want %d", len(prof), h.Tree.Depth+1)
	}
	if prof[0] != 0 {
		t.Fatalf("root level avg rank = %g, want 0 (root is never skeletonized)", prof[0])
	}
	for l := 1; l < len(prof); l++ {
		if prof[l] <= 0 {
			t.Fatalf("level %d avg rank %g", l, prof[l])
		}
	}
}

// TestL2LPinnedToAccelerator reproduces the §2.3 placement policy: with an
// accelerator in the pool, every L2L task must execute on it. Placement is
// read from the matvec's task events, the recorder's after the
// compression's.
func TestL2LPinnedToAccelerator(t *testing.T) {
	rng := rand.New(rand.NewSource(180))
	Kd, _ := gaussKernelMatrix(rng, 300, 0.8)
	rec := telemetry.New()
	h, err := Compress(denseSPD{Kd}, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-5, Kappa: 8, Budget: 0.15,
		Distance: Kernel, Exec: Dynamic, Seed: 181, CacheBlocks: true,
		Telemetry: rec,
		WorkerSpecs: []sched.WorkerSpec{
			{Speed: 1},
			{Speed: 1},
			{Speed: 8, Batch: 8, NoSteal: true, Accelerator: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	compressEvents := len(rec.TaskEvents())
	W := linalg.GaussianMatrix(rng, 300, 4)
	h.Matvec(W)
	evs := rec.TaskEvents()[compressEvents:]
	if len(evs) == 0 {
		t.Fatal("no task events recorded")
	}
	l2l, onAcc := 0, 0
	for _, ev := range evs {
		if strings.HasPrefix(ev.Name, "L2L") {
			l2l++
			if ev.Worker == 2 {
				onAcc++
			}
		}
	}
	if l2l == 0 {
		t.Fatal("no L2L tasks in trace")
	}
	if onAcc != l2l {
		t.Fatalf("only %d of %d L2L tasks ran on the accelerator", onAcc, l2l)
	}
}

type nanOracle struct{ n int }

func (o nanOracle) Dim() int { return o.n }
func (o nanOracle) At(i, j int) float64 {
	if i == j {
		return 1
	}
	return math.NaN()
}

type asymOracle struct{ n int }

func (o asymOracle) Dim() int            { return o.n }
func (o asymOracle) At(i, j int) float64 { return float64(i - j) }

func TestCompressRejectsBadOracles(t *testing.T) {
	if _, err := Compress(nanOracle{64}, Config{LeafSize: 16, Seed: 1}); err == nil {
		t.Fatal("expected error for NaN oracle")
	}
	if _, err := Compress(asymOracle{64}, Config{LeafSize: 16, Seed: 1}); err == nil {
		t.Fatal("expected error for asymmetric oracle")
	}
}
