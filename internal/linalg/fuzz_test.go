package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// FuzzQRCPFactorization drives pivoted QR over random shapes/seeds and
// verifies Q·R = A·P and orthonormality.
func FuzzQRCPFactorization(f *testing.F) {
	f.Add(int64(1), 8, 5)
	f.Add(int64(2), 1, 1)
	f.Add(int64(3), 20, 30)
	f.Fuzz(func(t *testing.T, seed int64, m, n int) {
		m = 1 + absInt(m)%40
		n = 1 + absInt(n)%40
		rng := rand.New(rand.NewSource(seed))
		A := GaussianMatrix(rng, m, n)
		fac := QRColumnPivot(A, 0, 0)
		Q := fac.FormQ()
		R := fac.R()
		QR := MatMul(false, false, Q, R)
		AP := A.ColsGather(fac.Piv)
		if d := RelFrobDiff(QR, AP); d > 1e-10 {
			t.Fatalf("QR reconstruction error %g (m=%d n=%d)", d, m, n)
		}
		if fac.Rank > 0 {
			QtQ := MatMul(true, false, Q, Q)
			if d := RelFrobDiff(QtQ, Eye(fac.Rank)); d > 1e-10 {
				t.Fatalf("Q not orthonormal: %g", d)
			}
		}
	})
}

// FuzzLUSolve factors random square systems and verifies residuals.
func FuzzLUSolve(f *testing.F) {
	f.Add(int64(1), 5)
	f.Add(int64(9), 1)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		n = 1 + absInt(n)%30
		rng := rand.New(rand.NewSource(seed))
		A := GaussianMatrix(rng, n, n)
		lu, err := LUFactor(A)
		if err != nil {
			return // singular: fine for random fuzz input
		}
		x := GaussianMatrix(rng, n, 1)
		b := MatMul(false, false, A, x)
		lu.Solve(b)
		if d := RelFrobDiff(b, x); d > 1e-6 {
			t.Fatalf("LU solve error %g (n=%d)", d, n)
		}
	})
}

// FuzzGemmPacked drives the packed/tiled Gemm over random shapes, transpose
// flags, scalars, view offsets (random strides) and NaN/Inf poisoning, and
// checks it against the naive reference. Shapes are steered across the
// packed-path threshold so both the micro-kernel and the serial fast paths
// are hit.
func FuzzGemmPacked(f *testing.F) {
	f.Add(int64(1), 64, 64, 64, false, false, 1.0, 0.0, 0, false)
	f.Add(int64(2), 9, 7, 5, true, false, -0.5, 1.0, 1, false)
	f.Add(int64(3), 130, 48, 300, false, true, 2.0, 0.25, 2, false)
	f.Add(int64(4), 16, 12, 8, true, true, 1.0, 1.0, 3, true)
	f.Fuzz(func(t *testing.T, seed int64, m, n, k int, transA, transB bool, alpha, beta float64, off int, poison bool) {
		m, n, k = absInt(m)%140, absInt(n)%140, absInt(k)%140
		if !isFinite(alpha) || !isFinite(beta) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		ar, ac := m, k
		if transA {
			ar, ac = k, m
		}
		br, bc := k, n
		if transB {
			br, bc = n, k
		}
		// Random view offsets give every operand an independent stride.
		oa, ob, oc := absInt(off)%3, absInt(off/3)%3, absInt(off/9)%3
		A := GaussianMatrix(rng, ar+oa+1, ac+2).View(oa, 1, ar, ac)
		B := GaussianMatrix(rng, br+ob+2, bc+1).View(ob, 0, br, bc)
		C := GaussianMatrix(rng, m+oc+1, n+2).View(oc, 1, m, n)
		if poison && len(A.Data) > 0 && len(B.Data) > 0 {
			// NaN/Inf must propagate (or be wiped by beta=0) exactly like the
			// reference — never crash, never leak into neighbouring tiles.
			A.Data[absInt(int(seed))%len(A.Data)] = math.NaN()
			B.Data[absInt(int(seed/7))%len(B.Data)] = math.Inf(1)
		}
		C0 := C.Clone()
		want := C.Clone()
		refGemm(transA, transB, alpha, A, B, beta, want)
		Gemm(transA, transB, alpha, A, B, beta, C)
		tol := 1e-12 * float64(k+1) * (1 + math.Abs(alpha)) * 10
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				g, w := C.At(i, j), want.At(i, j)
				if g != w && !(math.IsNaN(g) && math.IsNaN(w)) && math.Abs(g-w) > tol+betaCRounding(beta, C0.At(i, j)) {
					t.Fatalf("C[%d,%d] = %g, want %g (m=%d n=%d k=%d tA=%v tB=%v)", i, j, g, w, m, n, k, transA, transB)
				}
			}
		}
	})
}

// FuzzGemmMixed drives the constant-operand entries over random shapes,
// scalars, view offsets (random strides on A, B and C) and NaN/Inf
// poisoning, against the naive reference: GemmMixed on a float32 A, or
// GemmConst when wide is set, each in the orientation transA picks.
// Widths span the per-column GEMV, the in-place micro-kernel with ragged
// 6-column panels and the transposed 4×3 dot tile with ragged rows and
// columns; k crosses the gemmKC block.
func FuzzGemmMixed(f *testing.F) {
	f.Add(int64(1), 128, 128, 16, false, false, 1.0, 0.0, 0, false)
	f.Add(int64(2), 9, 5, 7, false, false, -0.5, 1.0, 1, true)
	f.Add(int64(3), 33, 257, 6, true, false, 2.0, 0.25, 2, false)
	f.Add(int64(4), 17, 40, 17, true, true, 1.0, 1.0, 3, true)
	f.Fuzz(func(t *testing.T, seed int64, m, k, n int, wide, transA bool, alpha, beta float64, off int, poison bool) {
		m, k, n = absInt(m)%70, absInt(k)%300, absInt(n)%24
		if !isFinite(alpha) || !isFinite(beta) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		ar, ac := m, k
		if transA {
			ar, ac = k, m
		}
		oa, ob, oc := absInt(off)%3, absInt(off/3)%3, absInt(off/9)%3
		A := GaussianMatrix(rng, ar+oa+1, ac+2).View(oa, 1, ar, ac)
		B := GaussianMatrix(rng, k+ob+2, n+1).View(ob, 0, k, n)
		C := GaussianMatrix(rng, m+oc+1, n+2).View(oc, 1, m, n)
		var A32 *Matrix32
		if !wide {
			A32 = &Matrix32{Rows: ar, Cols: ac, Stride: ar + oa, Data: make([]float32, (ar+oa)*ac)}
			for j := 0; j < ac; j++ {
				for i := 0; i < ar; i++ {
					A32.Data[j*A32.Stride+i] = float32(A.At(i, j))
				}
			}
		}
		if poison && m*k > 0 && len(B.Data) > 0 {
			i, j := absInt(int(seed))%ar, absInt(int(seed/5))%ac
			A.Set(i, j, math.NaN())
			if A32 != nil {
				A32.Data[j*A32.Stride+i] = float32(math.NaN())
			}
			B.Data[absInt(int(seed/7))%len(B.Data)] = math.Inf(1)
		}
		if A32 != nil {
			A = A32.ToMatrix() // the exact widened values the kernels see
		}
		C0 := C.Clone()
		want := C.Clone()
		refGemm(transA, false, alpha, A, B, beta, want)
		if wide {
			GemmConst(transA, alpha, A, B, beta, C)
		} else {
			GemmMixed(transA, alpha, A32, B, beta, C)
		}
		tol := 1e-12 * float64(k+1) * (1 + math.Abs(alpha)) * 10
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				g, w := C.At(i, j), want.At(i, j)
				if g != w && !(math.IsNaN(g) && math.IsNaN(w)) && math.Abs(g-w) > tol+betaCRounding(beta, C0.At(i, j)) {
					t.Fatalf("C[%d,%d] = %g, want %g (m=%d k=%d n=%d wide=%v tA=%v)", i, j, g, w, m, k, n, wide, transA)
				}
			}
		}
	})
}

// FuzzHouseholderKernels drives the kernels of the pivoted-QR update over
// random lengths, strides and special-value densities: Axpy against its
// scalar loop, dot4 against Dot on each column, and QRColumnPivot against
// the one-column reference update, all bit for bit (any NaN matches any
// NaN).
func FuzzHouseholderKernels(f *testing.F) {
	f.Add(int64(1), 64, 17, 0, 0, 0.5)
	f.Add(int64(2), 7, 5, 1, 3, -1.25)
	f.Add(int64(3), 301, 40, 2, 9, 0.0)
	f.Add(int64(4), 130, 9, 3, 1, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, m, n, pad, every int, alpha float64) {
		m, n, pad, every = absInt(m)%302, 1+absInt(n)%48, absInt(pad)%4, absInt(every)%12
		rng := rand.New(rand.NewSource(seed))
		X := kernelMatrix(rng, m, 1, pad, every)
		Y := kernelMatrix(rng, m, 1, pad, every)
		checkAxpy(t, alpha, X.Col(0), Y.Col(0))
		A := kernelMatrix(rng, m+pad, 4+pad, pad, every)
		checkDot4(t, X.Col(0), A, pad, pad)
		if m > 0 {
			checkQR(t, kernelMatrix(rng, m, n, pad, every), 0, 0)
		}
	})
}

// betaCRounding bounds the extra error from rounding beta·c0 where the
// kernel does (scaling C before accumulating) rather than where the
// reference does (one alpha·s + beta·c expression): a few ulps of |beta·c0|,
// which dominates once |beta·c0| dwarfs alpha·A·B.
func betaCRounding(beta, c0 float64) float64 {
	return 4 * 0x1p-52 * math.Abs(beta*c0)
}

// TestGemmAssociativity is the testing/quick identity (A·B)·x == A·(B·x):
// both sides are computed entirely by the tiled kernels, so agreement within
// 1e-12 pins down accumulation order bugs across the packed/small paths.
func TestGemmAssociativity(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
			vals[1] = reflect.ValueOf(1 + rng.Intn(90))
			vals[2] = reflect.ValueOf(1 + rng.Intn(90))
			vals[3] = reflect.ValueOf(1 + rng.Intn(90))
		},
	}
	prop := func(seed int64, m, k, n int) bool {
		rng := rand.New(rand.NewSource(seed))
		A := GaussianMatrix(rng, m, k)
		B := GaussianMatrix(rng, k, n)
		x := GaussianMatrix(rng, n, 1)
		lhs := MatMul(false, false, MatMul(false, false, A, B), x)
		rhs := MatMul(false, false, A, MatMul(false, false, B, x))
		// Normalize by the operand magnitudes so the 1e-12 bound is scale-free.
		scale := A.FrobeniusNorm()*B.FrobeniusNorm()*x.FrobeniusNorm() + 1
		for i := 0; i < m; i++ {
			if math.Abs(lhs.At(i, 0)-rhs.At(i, 0)) > 1e-12*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func absInt(x int) int {
	if x < 0 {
		if x == -x {
			return 0
		}
		return -x
	}
	return x
}
