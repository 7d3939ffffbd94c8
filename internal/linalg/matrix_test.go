package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("dims = %d×%d", m.Rows, m.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("nonzero at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(5, 7)
	rng := rand.New(rand.NewSource(1))
	want := make(map[[2]int]float64)
	for k := 0; k < 35; k++ {
		i, j := k%5, k/5
		v := rng.NormFloat64()
		m.Set(i, j, v)
		want[[2]int{i, j}] = v
	}
	for k, v := range want {
		if m.At(k[0], k[1]) != v {
			t.Fatalf("At(%d,%d) = %g, want %g", k[0], k[1], m.At(k[0], k[1]), v)
		}
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := NewMatrix(6, 6)
	v := m.View(2, 3, 3, 2)
	v.Set(0, 0, 42)
	if m.At(2, 3) != 42 {
		t.Fatal("view write not visible in parent")
	}
	if v.At(2, 1) != m.At(4, 4) {
		t.Fatal("view offset wrong")
	}
	v.Set(2, 1, -1)
	if m.At(4, 4) != -1 {
		t.Fatal("view corner write not visible")
	}
}

func TestViewBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range view")
		}
	}()
	NewMatrix(4, 4).View(2, 2, 3, 1)
}

func TestTransposed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := GaussianMatrix(rng, 37, 53)
	mt := m.Transposed()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	mtt := mt.Transposed()
	if !EqualApprox(m, mtt, 0) {
		t.Fatal("double transpose != identity")
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(20)
		c := 1 + rng.Intn(20)
		m := GaussianMatrix(rng, r, c)
		return EqualApprox(m, m.Transposed().Transposed(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := GaussianMatrix(rng, 10, 4)
	idx := []int{7, 2, 2, 9}
	g := m.RowsGather(idx)
	for k, i := range idx {
		for j := 0; j < 4; j++ {
			if g.At(k, j) != m.At(i, j) {
				t.Fatalf("RowsGather mismatch row %d", k)
			}
		}
	}
	acc := NewMatrix(10, 4)
	acc.RowsScatter(idx, g)
	for _, i := range idx {
		for j := 0; j < 4; j++ {
			if acc.At(i, j) != m.At(i, j) {
				t.Fatalf("RowsScatter mismatch row %d", i)
			}
		}
	}
	if acc.At(0, 0) != 0 {
		t.Fatal("RowsScatter touched an unrelated row")
	}

	cg := m.ColsGather([]int{3, 0})
	if cg.At(5, 0) != m.At(5, 3) || cg.At(5, 1) != m.At(5, 0) {
		t.Fatal("ColsGather mismatch")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, 4}})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-14 {
		t.Fatalf("‖·‖F = %g, want 5", got)
	}
	// Overflow robustness.
	big := FromRows([][]float64{{1e200, 1e200}})
	if got := big.FrobeniusNorm(); math.IsInf(got, 0) || math.Abs(got-1e200*math.Sqrt2) > 1e187 {
		t.Fatalf("scaled norm failed: %g", got)
	}
}

func TestEyeDiag(t *testing.T) {
	e := Eye(3)
	d := Diag([]float64{1, 1, 1})
	if !EqualApprox(e, d, 0) {
		t.Fatal("Eye != Diag(ones)")
	}
}

func TestAddScaledAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := GaussianMatrix(rng, 8, 8)
	b := a.Clone()
	a.AddScaled(-1, b)
	if a.FrobeniusNorm() != 0 {
		t.Fatal("a - a != 0")
	}
	b.Scale(0)
	if b.FrobeniusNorm() != 0 {
		t.Fatal("0*b != 0")
	}
}

func TestRelFrobDiff(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 1}})
	b := FromRows([][]float64{{1, 0}, {0, 2}})
	got := RelFrobDiff(b, a)
	want := 1 / math.Sqrt2
	if math.Abs(got-want) > 1e-14 {
		t.Fatalf("RelFrobDiff = %g, want %g", got, want)
	}
}
