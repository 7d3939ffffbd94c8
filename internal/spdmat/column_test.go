package spdmat

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gofmm/internal/linalg"
)

type columnReader interface {
	Column(I []int, j int, dst []float64)
}

// Every problem's oracle reads a column with At's bits: I holds duplicates
// and j itself (so the ridge applies), and an empty I writes nothing.
func TestColumnMatchesAt(t *testing.T) {
	for _, name := range Names() {
		p, err := Generate(name, 96, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := p.K.(columnReader)
		if !ok {
			t.Fatalf("%s: %T has no Column", name, p.K)
		}
		n := p.K.Dim()
		rng := rand.New(rand.NewSource(70))
		for _, j := range []int{0, n / 3, n - 1} {
			I := append(rng.Perm(n)[:n/2], j, j, 0, n-1, 0)
			dst := make([]float64, len(I))
			c.Column(I, j, dst)
			for r, i := range I {
				if want := p.K.At(i, j); math.Float64bits(dst[r]) != math.Float64bits(want) {
					t.Fatalf("%s: Column(·, %d)[%d] = K(%d,%d) = %v, At gives %v", name, j, r, i, j, dst[r], want)
				}
			}
		}
		guard := []float64{42}
		c.Column(nil, 1, guard[:0])
		if guard[0] != 42 {
			t.Fatalf("%s: empty Column wrote past its destination", name)
		}
	}
}

// refValue is the per-entry kernel formula with math.Exp called inline:
// the reference that Submatrix, with its shared gaussArg and vector exp,
// must match bit for bit.
func refValue(k *Kernel, dot, ni, nj float64, diag bool) float64 {
	var v float64
	switch k.Type {
	case Gauss:
		r2 := ni + nj - 2*dot
		if r2 < 0 {
			r2 = 0
		}
		v = math.Exp(-r2 / (2 * k.H * k.H))
	case Laplace:
		r2 := ni + nj - 2*dot
		if r2 < 0 {
			r2 = 0
		}
		t := r2 + k.H*k.H
		v = 1 / (t * t)
	case Poly:
		v = dot/float64(k.X.Rows) + 1
		v = v * v * v
	case Cosine:
		den := math.Sqrt(ni * nj)
		if den == 0 {
			v = 0
		} else {
			v = dot / den
		}
	}
	if diag {
		v += k.Ridge
	}
	return v
}

// Kernel.Submatrix gives, bit for bit, the GEMM followed by a per-entry
// formula loop, ridge entries included, for all four kernel types. The narrow Gaussian drives exponent arguments below −700 onto the
// scalar fallback; the repeated points clamp r² at 0.
func TestKernelSubmatrixMatchesValueLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	X := linalg.GaussianMatrix(rng, 6, 120)
	copy(X.Col(5), X.Col(6))
	copy(X.Col(17), X.Col(6))
	I := append(rng.Perm(120)[:41], 5, 6, 17, 6)
	J := append(slices.Clone(I[:7]), 5, 6, 17, 119)
	for _, typ := range []KernelType{Gauss, Laplace, Poly, Cosine} {
		for _, h := range []float64{0.9, 0.05} {
			k := NewKernel(X, typ, h, 1e-3)
			got := linalg.NewMatrix(len(I), len(J))
			k.Submatrix(I, J, got)
			want := linalg.NewMatrix(len(I), len(J))
			linalg.Gemm(true, false, 1, k.X.ColsGather(I), k.X.ColsGather(J), 0, want)
			for c, j := range J {
				col := want.Col(c)
				for r, i := range I {
					col[r] = refValue(k, col[r], k.sqnorms[i], k.sqnorms[j], i == j)
				}
			}
			for c := range J {
				for r := range I {
					if math.Float64bits(got.At(r, c)) != math.Float64bits(want.At(r, c)) {
						t.Fatalf("type %d h=%g: Submatrix(%d,%d) = %v, value loop gives %v",
							typ, h, I[r], J[c], got.At(r, c), want.At(r, c))
					}
				}
			}
		}
	}
}

// Generate is deterministic in its seed: two calls give bit-identical
// dense matrices, or identical point sets and kernel parameters.
func TestGenerateBitIdentical(t *testing.T) {
	for _, name := range Names() {
		a, err := Generate(name, 128, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 128, 3)
		if err != nil {
			t.Fatal(err)
		}
		var ma, mb *linalg.Matrix
		switch ka := a.K.(type) {
		case *Dense:
			ma, mb = ka.M, b.K.(*Dense).M
		case *Kernel:
			kb := b.K.(*Kernel)
			if ka.Type != kb.Type || ka.H != kb.H || ka.Ridge != kb.Ridge {
				t.Fatalf("%s: kernel parameters differ", name)
			}
			ma, mb = ka.X, kb.X
		default:
			t.Fatalf("%s: unexpected oracle %T", name, a.K)
		}
		if ma.Rows != mb.Rows || ma.Cols != mb.Cols {
			t.Fatalf("%s: shapes differ", name)
		}
		for j := 0; j < ma.Cols; j++ {
			ca, cb := ma.Col(j), mb.Col(j)
			for i := range ca {
				if math.Float64bits(ca[i]) != math.Float64bits(cb[i]) {
					t.Fatalf("%s: entry (%d,%d) differs between two calls: %v vs %v", name, i, j, ca[i], cb[i])
				}
			}
		}
	}
}
