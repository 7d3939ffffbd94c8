package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference triple loop.
func naiveGemm(transA, transB bool, alpha float64, A, B *Matrix, beta float64, C *Matrix) {
	aAt := A.At
	if transA {
		aAt = func(i, j int) float64 { return A.At(j, i) }
	}
	bAt := B.At
	if transB {
		bAt = func(i, j int) float64 { return B.At(j, i) }
	}
	k := A.Cols
	if transA {
		k = A.Rows
	}
	for i := 0; i < C.Rows; i++ {
		for j := 0; j < C.Cols; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += aAt(i, kk) * bAt(kk, j)
			}
			C.Set(i, j, alpha*s+beta*C.At(i, j))
		}
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		m, k, n        int
		transA, transB bool
		alpha, beta    float64
	}{
		{5, 7, 9, false, false, 1, 0},
		{5, 7, 9, true, false, 2, 0.5},
		{5, 7, 9, false, true, -1, 1},
		{5, 7, 9, true, true, 0.3, -2},
		{1, 1, 1, false, false, 1, 0},
		{64, 33, 17, false, false, 1, 0},
		{17, 64, 33, true, true, 1.5, 0.25},
		{3, 100, 4, false, true, 1, 0},
	}
	for ci, tc := range cases {
		ar, ac := tc.m, tc.k
		if tc.transA {
			ar, ac = tc.k, tc.m
		}
		br, bc := tc.k, tc.n
		if tc.transB {
			br, bc = tc.n, tc.k
		}
		A := GaussianMatrix(rng, ar, ac)
		B := GaussianMatrix(rng, br, bc)
		C := GaussianMatrix(rng, tc.m, tc.n)
		want := C.Clone()
		naiveGemm(tc.transA, tc.transB, tc.alpha, A, B, tc.beta, want)
		Gemm(tc.transA, tc.transB, tc.alpha, A, B, tc.beta, C)
		if !EqualApprox(C, want, 1e-10*float64(tc.k+1)) {
			t.Fatalf("case %d: Gemm mismatch (max |Δ| = %g)", ci, maxDiff(C, want))
		}
	}
}

func maxDiff(a, b *Matrix) float64 {
	d := a.Clone()
	d.AddScaled(-1, b)
	return d.MaxAbs()
}

func TestGemmPropertyRandomShapes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(24), 1+rng.Intn(24), 1+rng.Intn(24)
		A := GaussianMatrix(rng, m, k)
		B := GaussianMatrix(rng, k, n)
		C := NewMatrix(m, n)
		Gemm(false, false, 1, A, B, 0, C)
		want := NewMatrix(m, n)
		naiveGemm(false, false, 1, A, B, 0, want)
		return EqualApprox(C, want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	Gemm(false, false, 1, NewMatrix(2, 3), NewMatrix(4, 5), 0, NewMatrix(2, 5))
}

func TestGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	A := GaussianMatrix(rng, 9, 6)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 9)
	Gemv(false, 1, A, x, 0, y)
	X := FromColumnMajor(6, 1, x)
	want := MatMul(false, false, A, X)
	for i := range y {
		if math.Abs(y[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("Gemv mismatch at %d", i)
		}
	}
	// Transposed.
	yt := make([]float64, 6)
	Gemv(true, 1, A, want.Col(0), 0, yt)
	wt := MatMul(true, false, A, want)
	for i := range yt {
		if math.Abs(yt[i]-wt.At(i, 0)) > 1e-10 {
			t.Fatalf("Gemvᵀ mismatch at %d", i)
		}
	}
}

func TestDotAxpyNrm2(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 4, 3, 2, 1}
	if got := Dot(x, y); got != 35 {
		t.Fatalf("Dot = %g", got)
	}
	z := append([]float64(nil), y...)
	Axpy(2, x, z)
	want := []float64{7, 8, 9, 10, 11}
	for i := range z {
		if z[i] != want[i] {
			t.Fatalf("Axpy[%d] = %g", i, z[i])
		}
	}
	if got := Nrm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Nrm2 = %g", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Fatalf("Nrm2(nil) = %g", got)
	}
}

func TestTrsmUpper(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 20
	R := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		R.Set(i, i, 1+rng.Float64())
		for j := i + 1; j < n; j++ {
			R.Set(i, j, rng.NormFloat64())
		}
	}
	X := GaussianMatrix(rng, n, 5)
	B := MatMul(false, false, R, X)
	TrsmLeftUpper(false, R, B)
	if !EqualApprox(B, X, 1e-8) {
		t.Fatalf("TrsmLeftUpper failed, max diff %g", maxDiff(B, X))
	}
	Bt := MatMul(true, false, R, X)
	TrsmLeftUpper(true, R, Bt)
	if !EqualApprox(Bt, X, 1e-8) {
		t.Fatalf("TrsmLeftUpperᵀ failed, max diff %g", maxDiff(Bt, X))
	}
}

func TestTrsmLower(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 20
	L := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		L.Set(j, j, 1+rng.Float64())
		for i := j + 1; i < n; i++ {
			L.Set(i, j, rng.NormFloat64())
		}
	}
	X := GaussianMatrix(rng, n, 3)
	B := MatMul(false, false, L, X)
	TrsmLeftLower(false, L, B)
	if !EqualApprox(B, X, 1e-8) {
		t.Fatalf("TrsmLeftLower failed, max diff %g", maxDiff(B, X))
	}
	Bt := MatMul(true, false, L, X)
	TrsmLeftLower(true, L, Bt)
	if !EqualApprox(Bt, X, 1e-8) {
		t.Fatalf("TrsmLeftLowerᵀ failed, max diff %g", maxDiff(Bt, X))
	}
}

func TestIdxMax(t *testing.T) {
	if IdxMax([]float64{1, 5, 3, 5}) != 1 {
		t.Fatal("IdxMax ties should pick first")
	}
	if IdxMax(nil) != -1 {
		t.Fatal("IdxMax(nil) != -1")
	}
}

// TestGemvPrefetchStaysInsideBlock walks the panel loops of the six GEMV
// micro-kernels' callers (8-column forward panels, 4-column transposed and
// pair ones) and replays each call's prefetch hints as the kernels issue
// them: one cache line per 64 bytes an 8-row step loads, consecutive from
// the target gemvNextPanel (gemvPairPanel for the pair kernels) names,
// none in the 4-row tail. Every hinted span must lie inside the block's
// backing array, contiguous or a view whose array ends with the block;
// each panel must target the one its kernel's distance ahead (one panel,
// two for the pair kernels), or the last full panel where fewer follow.
func TestGemvPrefetchStaysInsideBlock(t *testing.T) {
	kernels := []struct {
		name  string
		width int // columns per call
		ahead int // panels from the one read to the one hinted
		next  func(j, k int) int
	}{
		// Gemv and GemvMixed, forward and transposed.
		{"gemvCols8", 8, 1, func(j, k int) int { return gemvNextPanel(j, 8, k) }},
		{"gemvDots4", 4, 1, func(j, k int) int { return gemvNextPanel(j, 4, k) }},
		// GemmConstPair and GemmMixedPair below gemmConstMinWidthT.
		{"gemvPair4", 4, 2, gemvPairPanel},
	}
	for _, m := range []int{4, 13, 113, 128, 129} {
		for _, k := range []int{8, 9, 12, 16, 113, 128} {
			for _, stride := range []int{m, m + 3} {
				n := (k-1)*stride + m // A.Data ends with the block
				for _, es := range []int{4, 8} {
					for _, kern := range kernels {
						width := kern.width
						steps := (m &^ 3) / 8
						hints := steps * width * 8 * es / 64
						last := (k/width - 1) * width // the last full panel
						for j := 0; j <= last; j += width {
							next := kern.next(j, k)
							if want := min(j+kern.ahead*width, last); next != want {
								t.Fatalf("%s m=%d k=%d j=%d: targets column %d, want %d", kern.name, m, k, j, next, want)
							}
							start := next * stride * es
							if end := start + 64*hints; hints > 0 && end > n*es {
								t.Fatalf("%s m=%d k=%d stride=%d es=%d j=%d: hints bytes [%d, %d) of a %d-byte block", kern.name, m, k, stride, es, j, start, end, n*es)
							}
						}
					}
				}
			}
		}
	}
}
