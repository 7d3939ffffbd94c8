package linalg

import (
	"math/rand"
	"testing"
)

// Gemv is the hot kernel of width-1 compiled-plan replays; these benchmarks
// track it at the modal block shape (128×128) in both orientations against
// the general Gemm entry point on a one-column operand.
func benchGemvSetup(b *testing.B) (*Matrix, []float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	A := GaussianMatrix(rng, 128, 128)
	x := make([]float64, 128)
	y := make([]float64, 128)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return A, x, y
}

func BenchmarkGemvNoTrans(b *testing.B) {
	A, x, y := benchGemvSetup(b)
	b.SetBytes(128 * 128 * 8)
	for i := 0; i < b.N; i++ {
		Gemv(false, 1, A, x, 0, y)
	}
}

func BenchmarkGemvTrans(b *testing.B) {
	A, x, y := benchGemvSetup(b)
	b.SetBytes(128 * 128 * 8)
	for i := 0; i < b.N; i++ {
		Gemv(true, 1, A, x, 0, y)
	}
}

func BenchmarkGemmWidth1(b *testing.B) {
	A, x, y := benchGemvSetup(b)
	X := FromColumnMajor(128, 1, x)
	Y := FromColumnMajor(128, 1, y)
	b.SetBytes(128 * 128 * 8)
	for i := 0; i < b.N; i++ {
		Gemm(false, false, 1, A, X, 0, Y)
	}
}

func BenchmarkGemvMixed(b *testing.B) {
	A, x, y := benchGemvSetup(b)
	A32 := ToMatrix32(A)
	b.SetBytes(128 * 128 * 4)
	for i := 0; i < b.N; i++ {
		GemvMixed(false, 1, A32, x, 0, y)
	}
}

func BenchmarkGemvMixedTrans(b *testing.B) {
	A, x, y := benchGemvSetup(b)
	A32 := ToMatrix32(A)
	b.SetBytes(128 * 128 * 4)
	for i := 0; i < b.N; i++ {
		GemvMixed(true, 1, A32, x, 0, y)
	}
}
