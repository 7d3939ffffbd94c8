// Package spdmat generates the test problems of the paper's §3 at laptop
// scale: the 22 SPD matrices K02–K18 and G01–G05 (stencil-operator inverses,
// high-dimensional kernel matrices, pseudo-spectral operators, and
// graph-Laplacian inverses) plus the machine-learning kernel matrices
// (COVTYPE-, HIGGS- and MNIST-like Gaussian kernels over synthetic point
// clouds — the real datasets are not available offline; see DESIGN.md for
// the substitution rationale).
//
// Every problem satisfies the entry-oracle contract of internal/core (Dim,
// At, the optional bulk Submatrix fast path and the optional Column read,
// which gives At's bits) and carries optional point coordinates so the
// geometric-distance reference mode can be exercised.
package spdmat

import (
	"math"

	"gofmm/internal/linalg"
)

// Problem bundles an SPD matrix with optional coordinates and metadata.
type Problem struct {
	// Name is the paper's identifier (e.g. "K02", "G03", "COVTYPE").
	Name string
	// Desc describes the construction.
	Desc string
	// K is the SPD entry oracle (a *Dense or a *Kernel).
	K SPD
	// Points holds coordinates as columns of a d×N matrix when the problem
	// has geometry (kernel matrices); nil otherwise (graphs, operators).
	Points *linalg.Matrix
}

// SPD mirrors core.SPD structurally so spdmat does not import core.
type SPD interface {
	Dim() int
	At(i, j int) float64
}

// Dense is a dense symmetric matrix oracle with a bulk gather fast path.
type Dense struct{ M *linalg.Matrix }

// Dim returns the matrix dimension.
func (d *Dense) Dim() int { return d.M.Rows }

// At returns K[i,j].
func (d *Dense) At(i, j int) float64 { return d.M.At(i, j) }

// Submatrix gathers K[I,J] into dst (the core.Bulk fast path).
func (d *Dense) Submatrix(I, J []int, dst *linalg.Matrix) {
	for c, j := range J {
		d.Column(I, j, dst.Col(c))
	}
}

// Column gathers dst[r] = K[I[r], j] (the optional column read).
func (d *Dense) Column(I []int, j int, dst []float64) {
	src := d.M.Col(j)
	for r, i := range I {
		dst[r] = src[i]
	}
}

// KernelType selects the kernel function of a Kernel matrix.
type KernelType int

const (
	// Gauss is exp(−r²/2h²).
	Gauss KernelType = iota
	// Laplace is the regularized 6-D Green's-function-like kernel
	// 1/(r² + h²)² — asymptotically r⁻⁴ like the 6-D Laplace Green's
	// function, and completely monotone in r² so it is positive definite
	// in every dimension (Schoenberg).
	Laplace
	// Poly is the polynomial kernel (xᵀy/d + 1)³.
	Poly
	// Cosine is the cosine-similarity kernel xᵀy/(‖x‖‖y‖).
	Cosine
)

// Kernel is an on-the-fly kernel matrix over points (columns of X): entries
// are computed on demand, exactly like the paper's memory-limited ARM runs
// ("we compute K_ij on the fly ... with a GEMM using the 2-norm expansion").
// A small diagonal ridge keeps the matrix numerically SPD.
type Kernel struct {
	X       *linalg.Matrix // d×N points
	Type    KernelType
	H       float64 // bandwidth / regularization
	Ridge   float64
	sqnorms []float64 // ‖xᵢ‖², precomputed
}

// NewKernel builds the kernel oracle and precomputes squared norms.
func NewKernel(X *linalg.Matrix, typ KernelType, h, ridge float64) *Kernel {
	k := &Kernel{X: X, Type: typ, H: h, Ridge: ridge, sqnorms: make([]float64, X.Cols)}
	for i := 0; i < X.Cols; i++ {
		xi := X.Col(i)
		k.sqnorms[i] = linalg.Dot(xi, xi)
	}
	return k
}

// Dim returns the number of points.
func (k *Kernel) Dim() int { return k.X.Cols }

// gaussArg is the Gaussian's exponent argument −r²/den, with
// r² = ni + nj − 2·dot clamped at 0 and den = 2h². value and the block
// reads share it, so the compiler makes one fusion choice for all of them.
func gaussArg(dot, ni, nj, den float64) float64 {
	r2 := ni + nj - 2*dot
	if r2 < 0 {
		r2 = 0
	}
	return -r2 / den
}

// value maps an inner product (and the two squared norms) to a kernel entry.
func (k *Kernel) value(dot, ni, nj float64, diag bool) float64 {
	var v float64
	switch k.Type {
	case Gauss:
		v = math.Exp(gaussArg(dot, ni, nj, 2*k.H*k.H))
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

// At returns K[i,j].
func (k *Kernel) At(i, j int) float64 {
	dot := linalg.Dot(k.X.Col(i), k.X.Col(j))
	return k.value(dot, k.sqnorms[i], k.sqnorms[j], i == j)
}

// Submatrix evaluates K[I,J] with one GEMM over the gathered point blocks
// (the 2-norm expansion fast path).
func (k *Kernel) Submatrix(I, J []int, dst *linalg.Matrix) {
	XI := k.X.ColsGather(I)
	XJ := k.X.ColsGather(J)
	linalg.Gemm(true, false, 1, XI, XJ, 0, dst)
	for c, j := range J {
		k.entries(I, j, dst.Col(c))
	}
}

// Column fills dst[r] = K[I[r], j] with At's bits: the same Dot per entry,
// then the conversion every block read shares.
func (k *Kernel) Column(I []int, j int, dst []float64) {
	xj := k.X.Col(j)
	for r, i := range I {
		dst[r] = linalg.Dot(k.X.Col(i), xj)
	}
	k.entries(I, j, dst)
}

// entries turns the inner products col[r] = xᵢᵀxⱼ (i = I[r]) of one block
// column into kernel entries in place, each with value's bits. The
// Gaussian computes every exponent argument first and then takes their
// exponentials in one vector pass; the other kernels call no exp.
func (k *Kernel) entries(I []int, j int, col []float64) {
	nj := k.sqnorms[j]
	if k.Type != Gauss {
		for r, i := range I {
			col[r] = k.value(col[r], k.sqnorms[i], nj, i == j)
		}
		return
	}
	den := 2 * k.H * k.H
	for r, i := range I {
		col[r] = gaussArg(col[r], k.sqnorms[i], nj, den)
	}
	linalg.ExpInPlace(col[:len(I)])
	for r, i := range I {
		if i == j {
			col[r] += k.Ridge
		}
	}
}

// ridgeFor returns a conservative diagonal ridge for kernels that are only
// positive semi-definite in exact arithmetic.
func ridgeFor(scale float64) float64 { return 1e-7 * scale }
