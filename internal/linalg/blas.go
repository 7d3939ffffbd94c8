package linalg

import (
	"math"
	"runtime"
	"sync"
)

// Level-1 kernels. These are the inner loops of everything else, so they are
// written for the compiler's bounds-check elimination: equal-length slices
// re-sliced up front.

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	var s0, s1, s2, s3 float64
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// Axpy computes y += alpha*x. On AVX hardware the 4-aligned prefix runs
// in axpyF64, which rounds each product and sum separately and so matches
// the loop bit for bit.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	if haveFMAKernel && len(x) >= 4 {
		mm := len(x) &^ 3
		axpyF64(mm, alpha, &x[0], &y[0])
		x, y = x[mm:], y[mm:]
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// dot4 returns Dot(x, c) for the four columns c = A.Col(j+q)[r:r+len(x)],
// q = 0..3, bit for bit: dotCols4 reproduces Dot's lanes over the 4-aligned
// prefix and the remaining rows are added in Dot's scalar order.
func dot4(x []float64, A *Matrix, r, j int) [4]float64 {
	m := len(x)
	var cols [4][]float64
	for q := range cols {
		cols[q] = A.Col(j + q)[r : r+m]
	}
	var s [4]float64
	if !haveFMAKernel || m < 4 {
		for q, c := range cols {
			s[q] = Dot(x, c)
		}
		return s
	}
	mm := m &^ 3
	dotCols4(mm, &cols[0][0], A.Stride, &x[0], &s[0])
	for q, c := range cols {
		for i := mm; i < m; i++ {
			s[q] += x[i] * c[i]
		}
	}
	return s
}

// Scal computes x *= alpha.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2 returns ‖x‖₂ with scaling for robustness.
func Nrm2(x []float64) float64 {
	var scale float64
	ssq := 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// IdxMax returns the index of the largest value in x (first on ties), or -1
// for an empty slice.
func IdxMax(x []float64) int {
	best, bi := math.Inf(-1), -1
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// workers is the degree of parallelism used by blocked kernels.
func workers() int { return runtime.GOMAXPROCS(0) }

// parallelFor runs fn(lo, hi) over a partition of [0, n) across at most
// workers() goroutines. Grain is the minimum chunk size; small problems run
// inline to avoid goroutine overhead.
func parallelFor(n, grain int, fn func(lo, hi int)) {
	w := workers()
	if w <= 1 || n <= grain {
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > w {
		chunks = w
	}
	per := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Gemm lives in gemm.go (packed blocked driver + register-tiled
// micro-kernels).

// MatMul returns op(A)*op(B) as a new matrix.
func MatMul(transA, transB bool, A, B *Matrix) *Matrix {
	m := A.Rows
	if transA {
		m = A.Cols
	}
	n := B.Cols
	if transB {
		n = B.Rows
	}
	C := NewMatrix(m, n)
	Gemm(transA, transB, 1, A, B, 0, C)
	return C
}

// gemvNextPanel returns the first column of the panel a GEMV micro-kernel
// hints while it reads the width-column panel at column j of a block with
// cols columns: j+width when a full panel follows, else j itself. The
// kernel hints width·(m&^7) consecutive elements from that column's start,
// and a full panel spans (width-1)·stride + m ≥ width·m elements, so the
// hinted span ends inside the target panel, inside the block and inside
// A.Data: a block that ends where a store mapping ends is never hinted
// past its end. A hint cannot fault; the bound keeps hints from spending
// bandwidth on memory the block does not own.
func gemvNextPanel(j, width, cols int) int {
	if j+2*width > cols {
		return j
	}
	return j + width
}

// Gemv computes y = alpha*op(A)*x + beta*y for a single vector. Both
// orientations process four columns of A per pass so the x (or y) vector is
// streamed once per tile instead of once per column, with four independent
// accumulator chains; beta = 0 overwrites y outright (mirroring Gemm's
// semantics) so stale or non-finite contents of y can never leak into the
// result. Compiled plan replays dispatch their width-1 GEMM records here.
// On AVX2+FMA hardware the micro-kernels (eight columns per pass forward,
// four transposed) prefetch the panel they read next while they read the
// current one (gemvNextPanel), so a block streamed from DRAM keeps about a
// panel of loads in flight; the hints change no arithmetic.
func Gemv(trans bool, alpha float64, A *Matrix, x []float64, beta float64, y []float64) {
	m, n := A.Rows, A.Cols
	if trans {
		if len(x) != m || len(y) != n {
			panic("linalg: Gemv dimension mismatch")
		}
		j := 0
		if haveFMAKernel && m >= 4 {
			// AVX2 path: four column dots at a time over the aligned row
			// prefix, ragged rows and alpha/beta finished in Go.
			mm := m &^ 3
			var d [4]float64
			for ; j+4 <= n; j += 4 {
				pf := &A.Data[gemvNextPanel(j, 4, n)*A.Stride]
				gemvDots4F64(mm, &A.Data[j*A.Stride], A.Stride, &x[0], &d[0], pf)
				for q := 0; q < 4; q++ {
					s := d[q]
					aq := A.Col(j + q)
					for i := mm; i < m; i++ {
						s += aq[i] * x[i]
					}
					if beta == 0 {
						y[j+q] = alpha * s
					} else {
						y[j+q] = beta*y[j+q] + alpha*s
					}
				}
			}
		}
		for ; j+4 <= n; j += 4 {
			a0, a1, a2, a3 := A.Col(j), A.Col(j+1), A.Col(j+2), A.Col(j+3)
			var s0, s1, s2, s3 float64
			for i, xi := range x {
				s0 += a0[i] * xi
				s1 += a1[i] * xi
				s2 += a2[i] * xi
				s3 += a3[i] * xi
			}
			if beta == 0 {
				y[j], y[j+1], y[j+2], y[j+3] = alpha*s0, alpha*s1, alpha*s2, alpha*s3
			} else {
				y[j] = beta*y[j] + alpha*s0
				y[j+1] = beta*y[j+1] + alpha*s1
				y[j+2] = beta*y[j+2] + alpha*s2
				y[j+3] = beta*y[j+3] + alpha*s3
			}
		}
		for ; j < n; j++ {
			if s := alpha * Dot(A.Col(j), x); beta == 0 {
				y[j] = s
			} else {
				y[j] = beta*y[j] + s
			}
		}
		return
	}
	if len(x) != n || len(y) != m {
		panic("linalg: Gemv dimension mismatch")
	}
	if beta == 0 {
		for i := range y {
			y[i] = 0
		}
	} else if beta != 1 {
		for i := range y {
			y[i] *= beta
		}
	}
	kk := 0
	if haveFMAKernel && m >= 4 {
		// AVX2 path: eight columns per kernel call over the aligned row
		// prefix; any ragged rows get the same coefficients scalar-wise.
		mm := m &^ 3
		var coef [8]float64
		for ; kk+8 <= n; kk += 8 {
			for j := range coef {
				coef[j] = alpha * x[kk+j]
			}
			pf := &A.Data[gemvNextPanel(kk, 8, n)*A.Stride]
			gemvCols8F64(mm, &A.Data[kk*A.Stride], A.Stride, &coef[0], &y[0], pf)
			for j := 0; mm < m && j < 8; j++ {
				aj := A.Col(kk + j)
				c := coef[j]
				for i := mm; i < m; i++ {
					y[i] += c * aj[i]
				}
			}
		}
	}
	for ; kk+8 <= n; kk += 8 {
		a0, a1, a2, a3 := A.Col(kk), A.Col(kk+1), A.Col(kk+2), A.Col(kk+3)
		a4, a5, a6, a7 := A.Col(kk+4), A.Col(kk+5), A.Col(kk+6), A.Col(kk+7)
		b0, b1, b2, b3 := alpha*x[kk], alpha*x[kk+1], alpha*x[kk+2], alpha*x[kk+3]
		b4, b5, b6, b7 := alpha*x[kk+4], alpha*x[kk+5], alpha*x[kk+6], alpha*x[kk+7]
		for i := range y {
			s0 := a0[i]*b0 + a1[i]*b1 + a2[i]*b2 + a3[i]*b3
			s1 := a4[i]*b4 + a5[i]*b5 + a6[i]*b6 + a7[i]*b7
			y[i] += s0 + s1
		}
	}
	for ; kk+4 <= n; kk += 4 {
		a0, a1, a2, a3 := A.Col(kk), A.Col(kk+1), A.Col(kk+2), A.Col(kk+3)
		b0, b1, b2, b3 := alpha*x[kk], alpha*x[kk+1], alpha*x[kk+2], alpha*x[kk+3]
		for i := range y {
			y[i] += a0[i]*b0 + a1[i]*b1 + a2[i]*b2 + a3[i]*b3
		}
	}
	for ; kk < n; kk++ {
		Axpy(alpha*x[kk], A.Col(kk), y)
	}
}

// TrsmLeftUpper solves op(R)·X = B in place (B becomes X) for an upper
// triangular R, with op = identity or transpose. Only the leading n×n
// triangle of R is referenced where n = B.Rows. Columns are solved in
// register tiles of four so every (strided) load of an R element is reused
// across four right-hand sides; small problems run serially with no
// goroutine or closure overhead.
func TrsmLeftUpper(transR bool, R, B *Matrix) {
	n := B.Rows
	if R.Rows < n || R.Cols < n {
		panic("linalg: TrsmLeftUpper triangle too small")
	}
	if B.Cols >= 16 && workers() > 1 {
		parallelFor(B.Cols, 8, func(jlo, jhi int) {
			trsmUpperPanel(transR, R, B, n, jlo, jhi)
		})
		return
	}
	trsmUpperPanel(transR, R, B, n, 0, B.Cols)
}

func trsmUpperPanel(transR bool, R, B *Matrix, n, jlo, jhi int) {
	rd, rs := R.Data, R.Stride
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		x0, x1, x2, x3 := B.Col(j), B.Col(j+1), B.Col(j+2), B.Col(j+3)
		if !transR {
			// Back substitution: R x = b, row i of R loaded once per tile.
			for i := n - 1; i >= 0; i-- {
				s0, s1, s2, s3 := x0[i], x1[i], x2[i], x3[i]
				ri := rd[i:]
				for kk := i + 1; kk < n; kk++ {
					r := ri[kk*rs]
					s0 -= r * x0[kk]
					s1 -= r * x1[kk]
					s2 -= r * x2[kk]
					s3 -= r * x3[kk]
				}
				d := ri[i*rs]
				x0[i] = s0 / d
				x1[i] = s1 / d
				x2[i] = s2 / d
				x3[i] = s3 / d
			}
		} else {
			// Forward substitution: Rᵀ x = b, where Rᵀ is lower triangular
			// with column i equal to row i of R.
			for i := 0; i < n; i++ {
				ri := rd[i:]
				d := ri[i*rs]
				xi0 := x0[i] / d
				xi1 := x1[i] / d
				xi2 := x2[i] / d
				xi3 := x3[i] / d
				x0[i], x1[i], x2[i], x3[i] = xi0, xi1, xi2, xi3
				for kk := i + 1; kk < n; kk++ {
					r := ri[kk*rs]
					x0[kk] -= r * xi0
					x1[kk] -= r * xi1
					x2[kk] -= r * xi2
					x3[kk] -= r * xi3
				}
			}
		}
	}
	for ; j < jhi; j++ {
		x := B.Col(j)
		if !transR {
			for i := n - 1; i >= 0; i-- {
				s := x[i]
				ri := rd[i:]
				for kk := i + 1; kk < n; kk++ {
					s -= ri[kk*rs] * x[kk]
				}
				x[i] = s / ri[i*rs]
			}
		} else {
			for i := 0; i < n; i++ {
				ri := rd[i:]
				xi := x[i] / ri[i*rs]
				x[i] = xi
				for kk := i + 1; kk < n; kk++ {
					x[kk] -= ri[kk*rs] * xi
				}
			}
		}
	}
}

// TrsmLeftLower solves op(L)·X = B in place for a lower triangular L, with
// the same 4-column register tiling as TrsmLeftUpper (here the reused L
// loads are contiguous column slices).
func TrsmLeftLower(transL bool, L, B *Matrix) {
	n := B.Rows
	if L.Rows < n || L.Cols < n {
		panic("linalg: TrsmLeftLower triangle too small")
	}
	if B.Cols >= 16 && workers() > 1 {
		parallelFor(B.Cols, 8, func(jlo, jhi int) {
			trsmLowerPanel(transL, L, B, n, jlo, jhi)
		})
		return
	}
	trsmLowerPanel(transL, L, B, n, 0, B.Cols)
}

func trsmLowerPanel(transL bool, L, B *Matrix, n, jlo, jhi int) {
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		x0, x1, x2, x3 := B.Col(j), B.Col(j+1), B.Col(j+2), B.Col(j+3)
		if !transL {
			// Forward substitution: after fixing x[i], subtract x[i]*L[i+1:, i].
			for i := 0; i < n; i++ {
				col := L.Col(i)
				d := col[i]
				xi0 := x0[i] / d
				xi1 := x1[i] / d
				xi2 := x2[i] / d
				xi3 := x3[i] / d
				x0[i], x1[i], x2[i], x3[i] = xi0, xi1, xi2, xi3
				for kk := i + 1; kk < n; kk++ {
					l := col[kk]
					x0[kk] -= l * xi0
					x1[kk] -= l * xi1
					x2[kk] -= l * xi2
					x3[kk] -= l * xi3
				}
			}
		} else {
			// Back substitution on Lᵀ (upper):
			// x[i] = (b[i] - L[i+1:, i]ᵀ x[i+1:]) / L[i, i].
			for i := n - 1; i >= 0; i-- {
				col := L.Col(i)
				s0, s1, s2, s3 := x0[i], x1[i], x2[i], x3[i]
				for kk := i + 1; kk < n; kk++ {
					l := col[kk]
					s0 -= l * x0[kk]
					s1 -= l * x1[kk]
					s2 -= l * x2[kk]
					s3 -= l * x3[kk]
				}
				d := col[i]
				x0[i] = s0 / d
				x1[i] = s1 / d
				x2[i] = s2 / d
				x3[i] = s3 / d
			}
		}
	}
	for ; j < jhi; j++ {
		x := B.Col(j)
		if !transL {
			for i := 0; i < n; i++ {
				col := L.Col(i)
				xi := x[i] / col[i]
				x[i] = xi
				for kk := i + 1; kk < n; kk++ {
					x[kk] -= col[kk] * xi
				}
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				col := L.Col(i)
				s := x[i]
				for kk := i + 1; kk < n; kk++ {
					s -= col[kk] * x[kk]
				}
				x[i] = s / col[i]
			}
		}
	}
}
