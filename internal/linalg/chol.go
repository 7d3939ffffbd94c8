package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, i.e. the input matrix is not (numerically) positive
// definite.
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive definite A (only the lower triangle of A is read).
// It returns ErrNotSPD for indefinite input.
func Cholesky(A *Matrix) (*Matrix, error) {
	n := A.Rows
	if A.Cols != n {
		panic("linalg: Cholesky of non-square matrix")
	}
	L := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		src := A.Col(j)
		dst := L.Col(j)
		copy(dst[j:], src[j:])
	}
	for j := 0; j < n; j++ {
		cj := L.Col(j)
		// Subtract contributions of previous columns: cj[j:] -= L[j:,k]*L[j,k].
		for k := 0; k < j; k++ {
			ck := L.Col(k)
			Axpy(-ck[j], ck[j:], cj[j:])
		}
		d := cj[j]
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d = %g)", ErrNotSPD, j, d)
		}
		d = math.Sqrt(d)
		cj[j] = d
		Scal(1/d, cj[j+1:])
	}
	return L, nil
}

// CholSolve solves A·X = B given the Cholesky factor L of A, overwriting B
// with X.
func CholSolve(L, B *Matrix) {
	TrsmLeftLower(false, L, B)
	TrsmLeftLower(true, L, B)
}

// InvertSPD returns A⁻¹ via Cholesky factorization and n triangular solves.
func InvertSPD(A *Matrix) (*Matrix, error) {
	L, err := Cholesky(A)
	if err != nil {
		return nil, err
	}
	X := Eye(A.Rows)
	CholSolve(L, X)
	return X, nil
}

// BandedSPD is a symmetric positive definite banded matrix in lower band
// storage: element (j+d, j) for d in [0, Bandwidth] lives at Band[d][j].
// It is the substrate for the paper's stencil matrices (K02, K03, K12–K14,
// K18), whose dense inverses are built by banded Cholesky + N solves.
type BandedSPD struct {
	N         int
	Bandwidth int
	Band      [][]float64 // Band[d][j] = A[j+d, j], len(Band[d]) == N
	factored  bool
}

// NewBandedSPD allocates a zero banded matrix.
func NewBandedSPD(n, bw int) *BandedSPD {
	b := &BandedSPD{N: n, Bandwidth: bw, Band: make([][]float64, bw+1)}
	for d := range b.Band {
		b.Band[d] = make([]float64, n)
	}
	return b
}

// At returns element (i, j), exploiting symmetry; entries outside the band
// are zero.
func (b *BandedSPD) At(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	d := i - j
	if d > b.Bandwidth {
		return 0
	}
	return b.Band[d][j]
}

// Set assigns element (i, j) (and by symmetry (j, i)).
func (b *BandedSPD) Set(i, j int, v float64) {
	if i < j {
		i, j = j, i
	}
	d := i - j
	if d > b.Bandwidth {
		panic("linalg: BandedSPD.Set outside bandwidth")
	}
	b.Band[d][j] = v
}

// CholeskyInPlace overwrites the band with the lower Cholesky factor.
// Cost is O(N·bw²), which makes building dense inverses of 2-D/3-D stencil
// operators feasible at laptop scale.
func (b *BandedSPD) CholeskyInPlace() error {
	if b.factored {
		return nil
	}
	n, bw := b.N, b.Bandwidth
	for j := 0; j < n; j++ {
		d := b.Band[0][j]
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (banded pivot %d = %g)", ErrNotSPD, j, d)
		}
		d = math.Sqrt(d)
		b.Band[0][j] = d
		lim := min(bw, n-1-j)
		for k := 1; k <= lim; k++ {
			b.Band[k][j] /= d
		}
		// Rank-1 downdate of the trailing band columns touched by column j.
		for c := 1; c <= lim; c++ {
			ljc := b.Band[c][j] // L[j+c, j]
			for r := c; r <= lim; r++ {
				b.Band[r-c][j+c] -= b.Band[r][j] * ljc
			}
		}
	}
	b.factored = true
	return nil
}

// Solve solves A·x = rhs in place given a factored band (call
// CholeskyInPlace first).
func (b *BandedSPD) Solve(x []float64) {
	if !b.factored {
		panic("linalg: BandedSPD.Solve before CholeskyInPlace")
	}
	n, bw := b.N, b.Bandwidth
	// Forward: L y = x.
	for j := 0; j < n; j++ {
		x[j] /= b.Band[0][j]
		lim := min(bw, n-1-j)
		xj := x[j]
		for k := 1; k <= lim; k++ {
			x[j+k] -= b.Band[k][j] * xj
		}
	}
	// Backward: Lᵀ x = y.
	for j := n - 1; j >= 0; j-- {
		lim := min(bw, n-1-j)
		s := x[j]
		for k := 1; k <= lim; k++ {
			s -= b.Band[k][j] * x[j+k]
		}
		x[j] = s / b.Band[0][j]
	}
}

// SolveMatrix solves A·X = B column by column in place.
func (b *BandedSPD) SolveMatrix(B *Matrix) {
	if B.Rows != b.N {
		panic("linalg: BandedSPD.SolveMatrix dimension mismatch")
	}
	parallelFor(B.Cols, 4, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			b.Solve(B.Col(j))
		}
	})
}

// DenseInverse returns A⁻¹ as a dense matrix (factoring if needed).
func (b *BandedSPD) DenseInverse() (*Matrix, error) {
	if err := b.CholeskyInPlace(); err != nil {
		return nil, err
	}
	X := Eye(b.N)
	b.SolveMatrix(X)
	return X, nil
}

// LogDetFromCholesky returns log det(A) = 2·Σ log L_ii given the Cholesky
// factor of A.
func LogDetFromCholesky(L *Matrix) float64 {
	var s float64
	for i := 0; i < L.Rows; i++ {
		s += math.Log(L.At(i, i))
	}
	return 2 * s
}
