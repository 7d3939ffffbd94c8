package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatrix32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	A := GaussianMatrix(rng, 17, 9)
	A32 := ToMatrix32(A)
	if A32.Rows != 17 || A32.Cols != 9 {
		t.Fatalf("dims %d×%d", A32.Rows, A32.Cols)
	}
	back := A32.ToMatrix()
	// Round trip through fp32 loses at most relative 2^-24 per entry.
	for j := 0; j < 9; j++ {
		for i := 0; i < 17; i++ {
			d := math.Abs(back.At(i, j) - A.At(i, j))
			if d > 1e-6*(1+math.Abs(A.At(i, j))) {
				t.Fatalf("fp32 round trip lost too much at (%d,%d): %g", i, j, d)
			}
			if A32.At(i, j) != back.At(i, j) {
				t.Fatal("At and ToMatrix disagree")
			}
		}
	}
	if A32.Bytes() != 17*9*4 {
		t.Fatalf("Bytes = %d", A32.Bytes())
	}
}

func TestGemmMixedEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	A := ToMatrix32(GaussianMatrix(rng, 5, 4))
	B := GaussianMatrix(rng, 4, 3)
	C := GaussianMatrix(rng, 5, 3)
	ref := C.Clone()
	// alpha = 0 with beta = 1 must leave C untouched.
	GemmMixed(false, 0, A, B, 1, C)
	if !EqualApprox(C, ref, 0) {
		t.Fatal("alpha=0 modified C")
	}
	// beta = 0 must zero C first.
	GemmMixed(false, 0, A, B, 0, C)
	if C.FrobeniusNorm() != 0 {
		t.Fatal("beta=0 did not clear C")
	}
	// Dimension mismatch panics.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GemmMixed(false, 1, A, GaussianMatrix(rng, 5, 3), 0, C)
}

func TestGemvBetaPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	A := GaussianMatrix(rng, 6, 4)
	x := make([]float64, 4)
	y := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = 1
	}
	// y = 2*A*x + 3*y.
	want := make([]float64, 6)
	for i := 0; i < 6; i++ {
		s := 3.0
		for j := 0; j < 4; j++ {
			s += 2 * A.At(i, j) * x[j]
		}
		want[i] = s
	}
	Gemv(false, 2, A, x, 3, y)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("Gemv beta path wrong at %d", i)
		}
	}
}

func TestViewZeroSize(t *testing.T) {
	m := NewMatrix(4, 4)
	v := m.View(2, 2, 0, 0)
	if v.Rows != 0 || v.Cols != 0 {
		t.Fatal("zero view dims wrong")
	}
	v2 := m.View(0, 0, 4, 0)
	if v2.Cols != 0 {
		t.Fatal("zero-col view wrong")
	}
}

func TestTransposedEmptyAndSingle(t *testing.T) {
	m := NewMatrix(1, 1)
	m.Set(0, 0, 5)
	if m.Transposed().At(0, 0) != 5 {
		t.Fatal("1×1 transpose wrong")
	}
	e := NewMatrix(0, 3)
	et := e.Transposed()
	if et.Rows != 3 || et.Cols != 0 {
		t.Fatalf("empty transpose dims %d×%d", et.Rows, et.Cols)
	}
}

func TestScaleAndFillInteraction(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Fill(2)
	m.Scale(0.5)
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			if m.At(i, j) != 1 {
				t.Fatal("Fill+Scale wrong")
			}
		}
	}
}
