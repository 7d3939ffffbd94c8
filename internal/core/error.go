package core

import (
	"math"
	"math/rand"

	"gofmm/internal/linalg"
)

// ExactRows returns (K·W)[rows, :] computed directly from matrix entries —
// O(len(rows)·N·r) work and O(len(rows)·N) transient memory.
func ExactRows(K SPD, rows []int, W *linalg.Matrix) *linalg.Matrix {
	n := K.Dim()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	block := NewGathered(K, rows, all)
	return linalg.MatMul(false, false, block, W)
}

// ExactMatvec computes K·W exactly in row blocks (for verification on small
// problems; this is the O(N²r) dense baseline of Figure 1).
func ExactMatvec(K SPD, W *linalg.Matrix) *linalg.Matrix {
	n := K.Dim()
	out := linalg.NewMatrix(n, W.Cols)
	const blk = 256
	for lo := 0; lo < n; lo += blk {
		hi := min(lo+blk, n)
		rows := make([]int, hi-lo)
		for k := range rows {
			rows[k] = lo + k
		}
		part := ExactRows(K, rows, W)
		out.View(lo, 0, hi-lo, W.Cols).CopyFrom(part)
	}
	return out
}

// SampleRelErr estimates the paper's accuracy metric (Eq. 11)
//
//	ε₂ = ‖K̃w − Kw‖_F / ‖Kw‖_F
//
// on a random sample of rows (the paper samples 100 rows to avoid the
// O(rN²) cost of the exact metric). U must be a previously computed
// Matvec(W) result. It reads K's rows, so on an operator without its entry
// oracle (LoadFrom's, until AttachOracle) it returns NaN.
func (h *Hierarchical) SampleRelErr(W, U *linalg.Matrix, nSamples int, seed int64) float64 {
	if !h.HasOracle() {
		return math.NaN()
	}
	n := h.K.Dim()
	if nSamples <= 0 || nSamples > n {
		nSamples = min(100, n)
	}
	rng := rand.New(rand.NewSource(seed))
	rows := rng.Perm(n)[:nSamples]
	exact := ExactRows(h.K, rows, W)
	approx := U.RowsGather(rows)
	approx.AddScaled(-1, exact)
	den := exact.FrobeniusNorm()
	if den == 0 {
		return approx.FrobeniusNorm()
	}
	return approx.FrobeniusNorm() / den
}

// RelErr computes ε₂ exactly (all rows); use only on small problems. Like
// SampleRelErr it returns NaN on an operator without its entry oracle.
func (h *Hierarchical) RelErr(W, U *linalg.Matrix) float64 {
	if !h.HasOracle() {
		return math.NaN()
	}
	exact := ExactMatvec(h.K, W)
	diff := U.Clone()
	diff.AddScaled(-1, exact)
	den := exact.FrobeniusNorm()
	if den == 0 {
		return diff.FrobeniusNorm()
	}
	return diff.FrobeniusNorm() / den
}

// EntryErrors reports the per-entry relative errors of the first k entries
// of the first right-hand side — matching the artifact output format of the
// paper ("the error of the first 10 entries"). It returns nil on an
// operator without its entry oracle.
func (h *Hierarchical) EntryErrors(W, U *linalg.Matrix, k int) []float64 {
	if !h.HasOracle() {
		return nil
	}
	if k > h.K.Dim() {
		k = h.K.Dim()
	}
	rows := make([]int, k)
	for i := range rows {
		rows[i] = i
	}
	exact := ExactRows(h.K, rows, W)
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		e := exact.At(i, 0)
		d := U.At(i, 0) - e
		if e != 0 {
			out[i] = math.Abs(d / e)
		} else {
			out[i] = math.Abs(d)
		}
	}
	return out
}
