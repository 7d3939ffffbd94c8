package linalg

import (
	"math"
	"math/rand"
)

// GaussianMatrix returns an r×c matrix with i.i.d. N(0,1) entries drawn from
// rng. Used by the randomized-HSS baseline (global sketch Y = K·Ω) and by
// workload generators.
func GaussianMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for j := 0; j < c; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	return m
}

// RandomSPD returns a random n×n SPD matrix A = Q·diag(d)·Qᵀ with Q a random
// orthogonal matrix and d log-spaced in [1/cond, 1]; handy for tests.
func RandomSPD(rng *rand.Rand, n int, cond float64) *Matrix {
	G := GaussianMatrix(rng, n, n)
	Q := QRColumnPivot(G, 0, n).FormQ()
	QD := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		t := float64(j) / float64(max(1, n-1))
		copy(QD.Col(j), Q.Col(j))
		Scal(math.Pow(cond, -t), QD.Col(j))
	}
	return MatMul(false, true, QD, Q)
}
