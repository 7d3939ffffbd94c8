package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Kernel conformance suite: every GEMM/TRSM variant is checked against a
// naive triple-loop reference over a grid of adversarial shapes (empty
// dimensions, single rows/columns, tall-skinny, fat-short, sizes straddling
// the micro-tile and the packed-path threshold) and over strided submatrix
// views. Run under -race this also exercises the parallel macro-block path.

// refGemm is the ~20-line reference: C = alpha*op(A)*op(B) + beta*C.
func refGemm(transA, transB bool, alpha float64, A, B *Matrix, beta float64, C *Matrix) {
	opA := func(i, k int) float64 { return A.At(i, k) }
	if transA {
		opA = func(i, k int) float64 { return A.At(k, i) }
	}
	opB := func(k, j int) float64 { return B.At(k, j) }
	if transB {
		opB = func(k, j int) float64 { return B.At(j, k) }
	}
	k := A.Cols
	if transA {
		k = A.Rows
	}
	for j := 0; j < C.Cols; j++ {
		for i := 0; i < C.Rows; i++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += opA(i, kk) * opB(kk, j)
			}
			C.Set(i, j, alpha*s+beta*C.At(i, j))
		}
	}
}

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	M := NewMatrix(r, c)
	for i := range M.Data {
		M.Data[i] = rng.NormFloat64()
	}
	return M
}

// maxAbsDiff returns max |X[i,j] - Y[i,j]|.
func maxAbsDiff(X, Y *Matrix) float64 {
	d := 0.0
	for j := 0; j < X.Cols; j++ {
		for i := 0; i < X.Rows; i++ {
			d = math.Max(d, math.Abs(X.At(i, j)-Y.At(i, j)))
		}
	}
	return d
}

// gemmShapes is the (m, n, k) grid. It deliberately includes shapes that are
// 0 in some dimension, below/above the micro-tile (8×6), non-multiples of
// the tile, and large enough to cross the packed-path threshold.
var gemmShapes = [][3]int{
	{0, 5, 3}, {5, 0, 3}, {5, 3, 0}, {0, 0, 0},
	{1, 1, 1}, {1, 7, 5}, {7, 1, 5}, {7, 5, 1},
	{3, 3, 3}, {8, 6, 4}, {9, 7, 5}, {16, 12, 8},
	{130, 3, 2}, {2, 130, 3}, {200, 5, 64}, {5, 200, 64},
	{64, 64, 64}, {65, 61, 37}, {96, 96, 96}, {128, 48, 300},
	{257, 131, 67},
}

func TestGemmConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range gemmShapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				for _, ab := range [][2]float64{{1, 0}, {1, 1}, {-0.5, 0.25}, {2, -1}, {0, 0.5}} {
					alpha, beta := ab[0], ab[1]
					name := fmt.Sprintf("m%d_n%d_k%d_tA%v_tB%v_a%g_b%g", m, n, k, transA, transB, alpha, beta)
					t.Run(name, func(t *testing.T) {
						A := randMatrix(rng, m, k)
						if transA {
							A = randMatrix(rng, k, m)
						}
						B := randMatrix(rng, k, n)
						if transB {
							B = randMatrix(rng, n, k)
						}
						C := randMatrix(rng, m, n)
						want := C.Clone()
						refGemm(transA, transB, alpha, A, B, beta, want)
						Gemm(transA, transB, alpha, A, B, beta, C)
						// k accumulated products, each O(1) magnitude.
						tol := 1e-13 * float64(k+1) * math.Max(1, math.Abs(alpha))
						if d := maxAbsDiff(C, want); d > tol {
							t.Fatalf("Gemm deviates from reference by %g (tol %g)", d, tol)
						}
					})
				}
			}
		}
	}
	constOperandGrid(t, rng, false)
}

// TestGemmConformanceStrided runs the same checks through submatrix views,
// so Stride > Rows on every operand.
func TestGemmConformanceStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shapes := [][3]int{{5, 3, 4}, {9, 7, 5}, {65, 61, 37}, {130, 9, 40}}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				name := fmt.Sprintf("m%d_n%d_k%d_tA%v_tB%v", m, n, k, transA, transB)
				t.Run(name, func(t *testing.T) {
					ar, ac := m, k
					if transA {
						ar, ac = k, m
					}
					br, bc := k, n
					if transB {
						br, bc = n, k
					}
					Abig := randMatrix(rng, ar+3, ac+2)
					Bbig := randMatrix(rng, br+5, bc+1)
					Cbig := randMatrix(rng, m+2, n+4)
					A := Abig.View(2, 1, ar, ac)
					B := Bbig.View(3, 0, br, bc)
					C := Cbig.View(1, 2, m, n)
					want := C.Clone()
					refGemm(transA, transB, 1.5, A, B, -0.5, want)
					Gemm(transA, transB, 1.5, A, B, -0.5, C)
					tol := 1e-13 * float64(k+1) * 1.5
					if d := maxAbsDiff(C, want); d > tol {
						t.Fatalf("strided Gemm deviates from reference by %g (tol %g)", d, tol)
					}
				})
			}
		}
	}
	constOperandGrid(t, rng, true)
}

// constOperandEntries are the constant-operand GEMM entries of the compiled
// plan replay: GemmConst (float64 A) and GemmMixed (float32 A), each in both
// orientations.
var constOperandEntries = []struct {
	name          string
	transA, mixed bool
}{
	{"GemmConst_tAfalse", false, false},
	{"GemmConst_tAtrue", true, false},
	{"GemmMixed", false, true},
	{"GemmMixed_tAtrue", true, true},
}

// Grid of the constant-operand checks: m straddles the 8-row tile and the
// 4-column transposed tile, k the gemmKC block and the 4-row steps of the
// dot kernels, r every width from 1 to 17, which covers the GEMV, ragged
// 6-column panels and ragged 3-column dot tiles.
var (
	constMs = []int{1, 6, 7, 8, 9, 33, 128}
	constKs = []int{1, 3, 5, 256, 257}
	constRs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
)

// checkConstOperand runs one constant-operand entry on an m×k op(A) and an
// r-column B at beta 0 and 1 against refGemm. With strided set, A, B and C
// are views into larger storage (the float32 A gets its own padded
// stride). At beta = 0, C starts NaN-poisoned and must be overwritten.
func checkConstOperand(t *testing.T, rng *rand.Rand, transA, mixed, strided bool, m, k, r int) {
	t.Helper()
	ar, ac := m, k
	if transA {
		ar, ac = k, m
	}
	pad := 0
	if strided {
		pad = 3
	}
	A := randMatrix(rng, ar+pad, ac+1).View(pad, 1, ar, ac)
	var A32 *Matrix32
	if mixed {
		A32 = &Matrix32{Rows: ar, Cols: ac, Stride: ar + pad, Data: make([]float32, (ar+pad)*ac)}
		for j := 0; j < ac; j++ {
			for i := 0; i < ar; i++ {
				A32.Data[j*A32.Stride+i] = float32(A.At(i, j))
			}
		}
		A = A32.ToMatrix() // the exact widened values refGemm sees
	}
	const alpha = 1.5
	for _, beta := range []float64{0, 1} {
		B := randMatrix(rng, k+2*pad, r+pad).View(pad, pad, k, r)
		C := randMatrix(rng, m+pad, r+2*pad).View(pad, pad, m, r)
		want := C.Clone()
		refGemm(transA, false, alpha, A, B, beta, want)
		if beta == 0 {
			C.Fill(math.NaN())
		}
		if mixed {
			GemmMixed(transA, alpha, A32, B, beta, C)
		} else {
			GemmConst(transA, alpha, A, B, beta, C)
		}
		tol := 1e-13 * float64(k+1) * alpha
		if d := maxAbsDiff(C, want); !(d <= tol) {
			t.Fatalf("r=%d beta=%g: deviates from reference by %g (tol %g)", r, beta, d, tol)
		}
	}
}

// constOperandGrid runs checkConstOperand over the whole grid, one subtest
// per entry and (m, k).
func constOperandGrid(t *testing.T, rng *rand.Rand, strided bool) {
	for _, e := range constOperandEntries {
		for _, m := range constMs {
			for _, k := range constKs {
				t.Run(fmt.Sprintf("%s_m%d_k%d", e.name, m, k), func(t *testing.T) {
					for _, r := range constRs {
						checkConstOperand(t, rng, e.transA, e.mixed, strided, m, k, r)
					}
				})
			}
		}
	}
}

// TestGemmPairConformance checks the pair entries, GemmConstPair and
// GemmMixedPair, which apply one stored block both ways: C = A·B + beta·C
// and Ct = Aᵀ·Bt. m and k straddle the fused kernel's 4-row steps and
// 4-column panels (every value to 9) and the 8-row steps of a full block;
// r covers the fused path (1, 2) and the two separate calls (3 and up).
func TestGemmPairConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 113, 128, 129}
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 113, 128}
	for _, mixed := range []bool{false, true} {
		for _, m := range ms {
			for _, k := range ks {
				t.Run(fmt.Sprintf("mixed%v_m%d_k%d", mixed, m, k), func(t *testing.T) {
					for _, r := range []int{1, 2, 3, 5, 16} {
						checkPairEntry(t, rng, mixed, m, k, r)
					}
				})
			}
		}
	}
}

// pairBlock returns an m×k block as a strided float64 view and, when mixed
// is set, as a strided float32 block whose widened values the float64 view
// then holds.
func pairBlock(rng *rand.Rand, mixed bool, m, k, pad int) (*Matrix, *Matrix32) {
	A := randMatrix(rng, m+pad, k+1).View(pad, 1, m, k)
	if !mixed {
		return A, nil
	}
	A32 := &Matrix32{Rows: m, Cols: k, Stride: m + pad, Data: make([]float32, (m+pad)*k)}
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			A32.Data[j*A32.Stride+i] = float32(A.At(i, j))
		}
	}
	return A32.ToMatrix(), A32
}

// pairProduct runs the pair entry for whichever of A and A32 is meant:
// GemmMixedPair when A32 is set, else GemmConstPair.
func pairProduct(A *Matrix, A32 *Matrix32, B *Matrix, beta float64, C, Bt, Ct *Matrix) {
	if A32 != nil {
		GemmMixedPair(A32, B, beta, C, Bt, Ct)
	} else {
		GemmConstPair(A, B, beta, C, Bt, Ct)
	}
}

// checkPairEntry runs one pair entry on an m×k block at width r, with every
// operand a strided view, at beta 0 and 1. Both products must agree with
// refGemm to 1e-13 per unit of inner dimension; Ct, and C at beta = 0,
// start NaN and must be overwritten; from gemmConstMinWidthT columns on,
// the results must be those of the two separate calls bit for bit.
func checkPairEntry(t *testing.T, rng *rand.Rand, mixed bool, m, k, r int) {
	t.Helper()
	const pad = 2
	A, A32 := pairBlock(rng, mixed, m, k, pad)
	for _, beta := range []float64{0, 1} {
		B := randMatrix(rng, k+2*pad, r+pad).View(pad, pad, k, r)
		Bt := randMatrix(rng, m+2*pad, r+pad).View(pad, pad, m, r)
		C := randMatrix(rng, m+pad, r+2*pad).View(pad, pad, m, r)
		Ct := randMatrix(rng, k+pad, r+2*pad).View(pad, pad, k, r)
		want, wantT := C.Clone(), NewMatrix(k, r)
		refGemm(false, false, 1, A, B, beta, want)
		refGemm(true, false, 1, A, Bt, 0, wantT)
		if beta == 0 {
			C.Fill(math.NaN())
		}
		Ct.Fill(math.NaN())
		sepC, sepCt := C.Clone(), Ct.Clone()
		pairProduct(A, A32, B, beta, C, Bt, Ct)
		if d := maxAbsDiff(C, want); !(d <= 1e-13*float64(k+1)) {
			t.Fatalf("r=%d beta=%g: C deviates from reference by %g", r, beta, d)
		}
		if d := maxAbsDiff(Ct, wantT); !(d <= 1e-13*float64(m+1)) {
			t.Fatalf("r=%d beta=%g: Ct deviates from reference by %g", r, beta, d)
		}
		if r < gemmConstMinWidthT {
			continue
		}
		if A32 != nil {
			GemmMixed(false, 1, A32, B, beta, sepC)
			GemmMixed(true, 1, A32, Bt, 0, sepCt)
		} else {
			GemmConst(false, 1, A, B, beta, sepC)
			GemmConst(true, 1, A, Bt, 0, sepCt)
		}
		for _, c := range []struct{ got, want *Matrix }{{C, sepC}, {Ct, sepCt}} {
			for j := 0; j < r; j++ {
				for i, v := range c.got.Col(j) {
					if w := c.want.At(i, j); math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("r=%d beta=%g: [%d,%d] = %g, the separate calls give %g", r, beta, i, j, v, w)
					}
				}
			}
		}
	}
}

// refTrsm solves op(T)·X = B by explicit forward/back substitution, one
// column at a time, straight from the textbook formulas.
func refTrsm(upper, trans bool, T, B *Matrix) {
	n := B.Rows
	// Effective matrix M = op(T) restricted to the leading n×n triangle.
	at := func(i, k int) float64 {
		if trans {
			i, k = k, i
		}
		if upper && k < i || !upper && k > i {
			return 0
		}
		return T.At(i, k)
	}
	lowerSolve := upper == trans // op flips the triangle orientation
	for j := 0; j < B.Cols; j++ {
		x := B.Col(j)
		if lowerSolve {
			for i := 0; i < n; i++ {
				s := x[i]
				for kk := 0; kk < i; kk++ {
					s -= at(i, kk) * x[kk]
				}
				x[i] = s / at(i, i)
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				s := x[i]
				for kk := i + 1; kk < n; kk++ {
					s -= at(i, kk) * x[kk]
				}
				x[i] = s / at(i, i)
			}
		}
	}
}

// randTriangular returns a well-conditioned n×n triangular matrix (unit-ish
// diagonal, small off-diagonal entries) embedded in an r×r matrix, r ≥ n.
func randTriangular(rng *rand.Rand, upper bool, r, n int) *Matrix {
	T := randMatrix(rng, r, r)
	for i := 0; i < n; i++ {
		T.Set(i, i, 1+0.1*rng.Float64())
		for k := 0; k < n; k++ {
			if upper && k < i || !upper && k > i {
				T.Set(i, k, 0)
			} else if k != i {
				T.Set(i, k, 0.3*T.At(i, k))
			}
		}
	}
	return T
}

func TestTrsmConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	// (n, nrhs) grid: empty, single, tile edges, parallel-path sizes.
	shapes := [][2]int{
		{0, 3}, {1, 1}, {1, 9}, {3, 1}, {5, 4}, {7, 6},
		{8, 8}, {13, 5}, {32, 3}, {64, 33}, {65, 40}, {40, 130},
	}
	for _, sh := range shapes {
		n, nrhs := sh[0], sh[1]
		for _, upper := range []bool{true, false} {
			for _, trans := range []bool{false, true} {
				name := fmt.Sprintf("n%d_rhs%d_upper%v_trans%v", n, nrhs, upper, trans)
				t.Run(name, func(t *testing.T) {
					T := randTriangular(rng, upper, n+2, n) // triangle larger than B.Rows
					B := randMatrix(rng, n, nrhs)
					want := B.Clone()
					refTrsm(upper, trans, T, want)
					if upper {
						TrsmLeftUpper(trans, T, B)
					} else {
						TrsmLeftLower(trans, T, B)
					}
					tol := 1e-12 * float64(n+1)
					if d := maxAbsDiff(B, want); d > tol {
						t.Fatalf("Trsm deviates from reference by %g (tol %g)", d, tol)
					}
				})
			}
		}
	}
}

// TestTrsmSolvesSystem closes the loop: X = op(T)⁻¹B must satisfy
// op(T)·X ≈ B through an independent Gemm.
func TestTrsmSolvesSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, upper := range []bool{true, false} {
		for _, trans := range []bool{false, true} {
			n, nrhs := 48, 7
			T := randTriangular(rng, upper, n, n)
			B := randMatrix(rng, n, nrhs)
			X := B.Clone()
			if upper {
				TrsmLeftUpper(trans, T, X)
			} else {
				TrsmLeftLower(trans, T, X)
			}
			got := NewMatrix(n, nrhs)
			Gemm(trans, false, 1, T, X, 0, got)
			if d := maxAbsDiff(got, B); d > 1e-10 {
				t.Fatalf("upper=%v trans=%v: op(T)·X differs from B by %g", upper, trans, d)
			}
		}
	}
}

// TestGemmConformanceParallel forces GOMAXPROCS up so the goroutine-parallel
// macro-block path runs even on single-core CI, then checks a shape large
// enough to span several mc blocks. Under -race this is the data-race guard
// for the packed driver.
func TestGemmConformanceParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(47))
	for _, sh := range [][3]int{{400, 96, 64}, {513, 130, 70}} {
		m, n, k := sh[0], sh[1], sh[2]
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				A := randMatrix(rng, m, k)
				if transA {
					A = randMatrix(rng, k, m)
				}
				B := randMatrix(rng, k, n)
				if transB {
					B = randMatrix(rng, n, k)
				}
				C := NewMatrix(m, n)
				want := NewMatrix(m, n)
				refGemm(transA, transB, 1, A, B, 0, want)
				Gemm(transA, transB, 1, A, B, 0, C)
				tol := 1e-13 * float64(k+1)
				if d := maxAbsDiff(C, want); d > tol {
					t.Fatalf("parallel Gemm m=%d n=%d k=%d tA=%v tB=%v off by %g", m, n, k, transA, transB, d)
				}
			}
		}
	}
}

// TestGemmAccumulatesIntoViews guards the in-place convention used all over
// the evaluator: writing through a view must only touch the viewed window.
func TestGemmAccumulatesIntoViews(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	big := randMatrix(rng, 20, 20)
	orig := big.Clone()
	A := randMatrix(rng, 6, 9)
	B := randMatrix(rng, 9, 5)
	C := big.View(4, 3, 6, 5)
	want := C.Clone()
	refGemm(false, false, 1, A, B, 1, want)
	Gemm(false, false, 1, A, B, 1, C)
	if d := maxAbsDiff(C, want); d > 1e-12 {
		t.Fatalf("view Gemm off by %g", d)
	}
	for j := 0; j < 20; j++ {
		for i := 0; i < 20; i++ {
			inside := i >= 4 && i < 10 && j >= 3 && j < 8
			if !inside && big.At(i, j) != orig.At(i, j) {
				t.Fatalf("Gemm wrote outside the view at (%d,%d)", i, j)
			}
		}
	}
}

// Householder kernels: Axpy and dot4 must reproduce the Go loops they
// replace bit for bit, and QRColumnPivot the one-column trailing update it
// ran before, over lengths 0–300 (ragged m mod 4 included), strided views
// and special values. Any NaN matches any NaN: only payloads may differ.

// sameBits reports whether a and b are the same float64, or both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// kernelSpecials are the values where a fused or reassociated kernel would
// first part from the loops: signed zeros, subnormals, the smallest
// normal, infinities, NaN and magnitudes near overflow.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -4e-320, 0x1p-1022,
	math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -3e-300,
}

// fillKernel fills x with Gaussian values, about one in every replaced by
// a special value (none when every is 0).
func fillKernel(rng *rand.Rand, x []float64, every int) {
	for i := range x {
		x[i] = rng.NormFloat64()
		if every > 0 && rng.Intn(every) == 0 {
			x[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
		}
	}
}

// kernelMatrix is an r×c view at row and column offset pad into larger
// storage (so its stride exceeds r when pad > 0), filled by fillKernel.
func kernelMatrix(rng *rand.Rand, r, c, pad, every int) *Matrix {
	M := NewMatrix(r+2*pad, c+pad).View(pad, pad, r, c)
	for j := 0; j < c; j++ {
		fillKernel(rng, M.Col(j), every)
	}
	return M
}

// loopAxpy is Axpy's scalar loop.
func loopAxpy(alpha float64, x, y []float64) {
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// checkAxpy runs Axpy and loopAxpy on twin copies of y and compares them.
func checkAxpy(t *testing.T, alpha float64, x, y []float64) {
	t.Helper()
	want := append([]float64(nil), y...)
	loopAxpy(alpha, x, want)
	Axpy(alpha, x, y)
	for i := range y {
		if !sameBits(y[i], want[i]) {
			t.Fatalf("n=%d alpha=%g: y[%d] = %g (%#x), loop gives %g (%#x)",
				len(x), alpha, i, y[i], math.Float64bits(y[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestAxpyMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	alphas := append([]float64{1, -0.75}, kernelSpecials...)
	for n := 0; n <= 300; n++ {
		for _, every := range []int{0, 6} {
			for _, pad := range []int{0, 1, 3} {
				X := kernelMatrix(rng, n, 1, pad, every)
				Y := kernelMatrix(rng, n, 1, pad+1, every)
				checkAxpy(t, rng.NormFloat64(), X.Col(0), Y.Col(0))
				checkAxpy(t, alphas[rng.Intn(len(alphas))], X.Col(0), Y.Col(0))
			}
		}
	}
	// Aliased operands: y += alpha·y.
	y := make([]float64, 37)
	fillKernel(rng, y, 5)
	checkAxpy(t, 0.5, y, y)
}

// checkDot4 compares dot4 over columns j..j+3, rows r..r+len(x) of A with
// Dot on each column.
func checkDot4(t *testing.T, x []float64, A *Matrix, r, j int) {
	t.Helper()
	got := dot4(x, A, r, j)
	for q := range got {
		want := Dot(x, A.Col(j + q)[r:r+len(x)])
		if !sameBits(got[q], want) {
			t.Fatalf("m=%d r=%d stride=%d column %d: dot4 %g (%#x), Dot %g (%#x)",
				len(x), r, A.Stride, q, got[q], math.Float64bits(got[q]), want, math.Float64bits(want))
		}
	}
}

func TestDot4MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for m := 0; m <= 300; m++ {
		for _, every := range []int{0, 6} {
			for _, pad := range []int{0, 2} {
				A := kernelMatrix(rng, m+pad, 5, pad, every)
				x := kernelMatrix(rng, m, 1, 1, every).Col(0)
				checkDot4(t, x, A, pad, 0)
				checkDot4(t, x, A, pad, 1)
			}
		}
	}
}

// refQRColumnPivot is QRColumnPivot as it stood with a one-column trailing
// update built from Dot and Axpy's scalar loop.
func refQRColumnPivot(A *Matrix, tol float64, maxRank int) *QRCP {
	m, n := A.Rows, A.Cols
	work := A.Clone()
	kmax := min(m, n)
	if maxRank > 0 && maxRank < kmax {
		kmax = maxRank
	}
	f := &QRCP{QR: work, Piv: make([]int, n), Tau: make([]float64, 0, kmax)}
	for j := range f.Piv {
		f.Piv[j] = j
	}
	norms := make([]float64, n)
	exact := make([]float64, n)
	for j := 0; j < n; j++ {
		norms[j] = Nrm2(work.Col(j))
		exact[j] = norms[j]
	}
	for k := 0; k < kmax; k++ {
		p, best := k, norms[k]
		for j := k + 1; j < n; j++ {
			if norms[j] > best {
				best, p = norms[j], j
			}
		}
		if k == 0 {
			f.Sigma1 = best
		}
		f.ResidNorm = best
		if best == 0 || (tol > 0 && best <= tol*f.Sigma1) {
			break
		}
		if p != k {
			ck, cp := work.Col(k), work.Col(p)
			for i := range ck {
				ck[i], cp[i] = cp[i], ck[i]
			}
			norms[k], norms[p] = norms[p], norms[k]
			exact[k], exact[p] = exact[p], exact[k]
			f.Piv[k], f.Piv[p] = f.Piv[p], f.Piv[k]
		}
		col := work.Col(k)
		alpha := col[k]
		xnorm := Nrm2(col[k+1:])
		if xnorm == 0 {
			f.Tau = append(f.Tau, 0)
			f.Rank = k + 1
			updateNorms(work, norms, exact, k, n, m)
			continue
		}
		beta := -math.Copysign(math.Hypot(alpha, xnorm), alpha)
		tau := (beta - alpha) / beta
		scale := 1 / (alpha - beta)
		Scal(scale, col[k+1:])
		col[k] = beta
		f.Tau = append(f.Tau, tau)
		vtail := col[k+1 : m]
		for jj := k + 1; jj < n; jj++ {
			cj := work.Col(jj)
			w := cj[k] + Dot(vtail, cj[k+1:m])
			w *= tau
			cj[k] -= w
			loopAxpy(-w, vtail, cj[k+1:m])
		}
		f.Rank = k + 1
		updateNorms(work, norms, exact, k, n, m)
	}
	if f.Rank == kmax {
		if kmax < n {
			best := 0.0
			for j := kmax; j < n; j++ {
				if norms[j] > best {
					best = norms[j]
				}
			}
			f.ResidNorm = best
		} else {
			f.ResidNorm = 0
		}
	}
	return f
}

// checkQR compares QRColumnPivot with refQRColumnPivot field by field.
func checkQR(t *testing.T, A *Matrix, tol float64, maxRank int) {
	t.Helper()
	got := QRColumnPivot(A, tol, maxRank)
	want := refQRColumnPivot(A, tol, maxRank)
	where := fmt.Sprintf("%d×%d tol=%g maxRank=%d", A.Rows, A.Cols, tol, maxRank)
	if got.Rank != want.Rank || len(got.Tau) != len(want.Tau) {
		t.Fatalf("%s: rank %d (%d reflectors), reference %d (%d)", where, got.Rank, len(got.Tau), want.Rank, len(want.Tau))
	}
	if !sameBits(got.ResidNorm, want.ResidNorm) || !sameBits(got.Sigma1, want.Sigma1) {
		t.Fatalf("%s: norms (%g, %g), reference (%g, %g)", where, got.ResidNorm, got.Sigma1, want.ResidNorm, want.Sigma1)
	}
	for k := range got.Tau {
		if !sameBits(got.Tau[k], want.Tau[k]) {
			t.Fatalf("%s: Tau[%d] = %g, reference %g", where, k, got.Tau[k], want.Tau[k])
		}
	}
	for j := range got.Piv {
		if got.Piv[j] != want.Piv[j] {
			t.Fatalf("%s: Piv[%d] = %d, reference %d", where, j, got.Piv[j], want.Piv[j])
		}
	}
	for j := 0; j < A.Cols; j++ {
		for i := 0; i < A.Rows; i++ {
			if g, w := got.QR.At(i, j), want.QR.At(i, j); !sameBits(g, w) {
				t.Fatalf("%s: QR[%d,%d] = %g (%#x), reference %g (%#x)", where, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

func TestQRColumnPivotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 129, 300} {
		for _, n := range []int{1, 3, 4, 5, 8, 17, 40, 130} {
			for _, every := range []int{0, 40} {
				A := kernelMatrix(rng, m, n, 2, every)
				checkQR(t, A, 0, 0)
				checkQR(t, A, 0, 3)
				// Low rank plus noise exercises the adaptive stop and the
				// norm-recompute safeguard.
				L := lowRankPlusNoise(rng, m, n, min(m, n, 6), 1e-9)
				checkQR(t, L, 1e-7, 0)
			}
		}
	}
	// Exactly zero and already-triangular columns take the tau = 0 path.
	Z := NewMatrix(9, 6)
	for j := 0; j < 6; j++ {
		Z.Set(min(j, 8), j, float64(j+1))
	}
	checkQR(t, Z, 0, 0)
}
