package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
)

// TestCompressionTouchesSubquadraticEntries verifies the headline
// complexity claim: compression touches O(N log N) matrix entries, not
// O(N²). Doubling N must grow the count by far less than 4×.
func TestCompressionTouchesSubquadraticEntries(t *testing.T) {
	counts := map[int]float64{}
	for _, n := range []int{512, 1024, 2048} {
		rng := rand.New(rand.NewSource(111))
		X := linalg.GaussianMatrix(rng, 3, n)
		Kd, _ := gaussKernelMatrix(rng, n, 0.8)
		_ = X
		rec := telemetry.New()
		_, err := Compress(denseSPD{Kd}, Config{
			LeafSize: 64, MaxRank: 32, Tol: 1e-4, Kappa: 8, Budget: 0.05,
			Distance: Kernel, Exec: Sequential, Seed: 5, CacheBlocks: true,
			SampleRows: 96, Telemetry: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts[n] = float64(rec.Snapshot().Counters["oracle.entries"])
		// At small N the per-leaf constants dominate, so only the largest
		// size must already be clearly below N².
		if n >= 2048 && counts[n] >= 0.75*float64(n)*float64(n) {
			t.Fatalf("N=%d: compression touched %g ≈ N² entries", n, counts[n])
		}
	}
	r1 := counts[1024] / counts[512]
	r2 := counts[2048] / counts[1024]
	if r1 > 3.2 || r2 > 3.2 {
		t.Fatalf("entry counts grow too fast: 512→1024 ×%.2f, 1024→2048 ×%.2f (quadratic would be ×4)", r1, r2)
	}
}

// TestCompressionRatioImprovesWithN: the compressed form needs O(N log N)
// storage, so its fraction of the dense 8N² must drop as N grows.
func TestCompressionRatioImprovesWithN(t *testing.T) {
	ratio := map[int]float64{}
	for _, n := range []int{512, 2048} {
		rng := rand.New(rand.NewSource(112))
		Kd, _ := gaussKernelMatrix(rng, n, 0.8)
		h, err := Compress(denseSPD{Kd}, Config{
			LeafSize: 64, MaxRank: 32, Tol: 1e-4, Kappa: 8, Budget: 0.05,
			Distance: Kernel, Exec: Sequential, Seed: 6, CacheBlocks: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ratio[n] = h.CompressionRatio()
		if h.CompressedBytes() <= 0 {
			t.Fatal("no bytes accounted")
		}
	}
	if ratio[2048] >= ratio[512] {
		t.Fatalf("compression ratio did not improve with N: %v", ratio)
	}
	if ratio[2048] > 0.5 {
		t.Fatalf("N=2048 still needs %.0f%% of dense storage", 100*ratio[2048])
	}
}

func TestStructureStringHSS(t *testing.T) {
	// Budget 0 on 4 leaves: diagonal '#', siblings 'b' (level-2 pairs),
	// cousins 'a' (level-1 pair).
	h, _ := compressGauss(t, 128, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-3, Kappa: 4, Budget: 0,
		Distance: Kernel, Exec: Sequential, Seed: 9,
	})
	got := strings.TrimSpace(h.StructureString())
	want := strings.TrimSpace(`
#baa
b#aa
aa#b
aab#`)
	if got != want {
		t.Fatalf("structure =\n%s\nwant\n%s", got, want)
	}
}

func TestStructureStringCoversEverything(t *testing.T) {
	h, _ := compressGauss(t, 256, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-3, Kappa: 8, Budget: 0.3,
		Distance: Kernel, Exec: Sequential, Seed: 10,
	})
	s := h.StructureString()
	if strings.ContainsRune(s, '.') {
		t.Fatalf("uncovered blocks in structure:\n%s", s)
	}
	// Diagonal must be dense.
	rows := strings.Split(strings.TrimSpace(s), "\n")
	for i, row := range rows {
		if row[i] != '#' {
			t.Fatalf("diagonal block %d not dense:\n%s", i, s)
		}
	}
}

func TestStructureSymmetric(t *testing.T) {
	h, _ := compressGauss(t, 256, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-3, Kappa: 8, Budget: 0.2,
		Distance: Angle, Exec: Sequential, Seed: 11,
	})
	rows := strings.Split(strings.TrimSpace(h.StructureString()), "\n")
	for i := range rows {
		for j := range rows {
			if rows[i][j] != rows[j][i] {
				t.Fatalf("structure not symmetric at (%d,%d):\n%s", i, j, h.StructureString())
			}
		}
	}
	if math.IsNaN(h.Stats.AvgRank) {
		t.Fatal("stats NaN")
	}
}

// TestNearEntriesExactInCompressedOperator checks a sharp structural
// invariant: entries (i, j) whose leaves are near each other are represented
// *exactly* in K̃ (they live in D or S, never in UV).
func TestNearEntriesExactInCompressedOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	n := 200
	Kd, _ := gaussKernelMatrix(rng, n, 0.8)
	h, err := Compress(denseSPD{Kd}, Config{
		LeafSize: 16, MaxRank: 8, Tol: 1e-2, Kappa: 8, Budget: 0.2,
		Distance: Kernel, Exec: Sequential, Seed: 12, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// K̃'s columns via identity matvec (small n).
	Kt := h.Matvec(linalg.Eye(n))
	tr := h.Tree
	for j := 0; j < n; j += 13 {
		leafJ := tr.LeafOfIndex(j)
		for _, alpha := range h.NearList(leafJ) {
			for _, i := range tr.Indices(alpha) {
				if math.Abs(Kt.At(i, j)-Kd.At(i, j)) > 1e-12 {
					t.Fatalf("near entry (%d,%d) not exact: %g vs %g",
						i, j, Kt.At(i, j), Kd.At(i, j))
				}
			}
		}
	}
}

func TestEvalGraphDOT(t *testing.T) {
	h, _ := compressGauss(t, 128, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-3, Kappa: 4, Budget: 0,
		Distance: Kernel, Exec: Sequential, Seed: 13,
	})
	var sb strings.Builder
	if err := h.EvalGraphDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph tasks", "N2S(", "S2S(", "S2N(", "L2L("} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q", want)
		}
	}
	// The DAG must contain at least one edge per interior node.
	if strings.Count(out, "->") < 6 {
		t.Fatalf("suspiciously few edges:\n%s", out)
	}
}
