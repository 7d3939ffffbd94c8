package linalg

// Single-precision storage support. The paper runs its K02–K18 and G01–G05
// experiments in fp32; this reproduction computes in float64 but can store
// the cached near/far blocks — the dominant memory consumer — in float32,
// halving their footprint at a ~1e-7 relative accuracy floor (which is also
// what the paper's single-precision runs see).

// Matrix32 is a dense column-major float32 matrix used for block storage.
type Matrix32 struct {
	Rows, Cols int
	Stride     int
	Data       []float32
}

// NewMatrix32 allocates a zeroed r×c single-precision matrix.
func NewMatrix32(r, c int) *Matrix32 {
	return &Matrix32{Rows: r, Cols: c, Stride: max(r, 1), Data: make([]float32, max(r, 1)*c)}
}

// FromColumnMajor32 wraps existing column-major float32 data (no copy) —
// the single-precision counterpart of FromColumnMajor, used by the operator
// store to serve cached blocks straight out of a file mapping.
func FromColumnMajor32(r, c int, data []float32) *Matrix32 {
	if len(data) < r*c {
		panic("linalg: float32 data shorter than matrix")
	}
	return &Matrix32{Rows: r, Cols: c, Stride: max(r, 1), Data: data}
}

// ToMatrix32 converts (rounds) a float64 matrix to float32 storage.
func ToMatrix32(m *Matrix) *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		src := m.Col(j)
		dst := out.Col(j)
		for i, v := range src {
			dst[i] = float32(v)
		}
	}
	return out
}

// Col returns column j as a slice view.
func (m *Matrix32) Col(j int) []float32 {
	off := j * m.Stride
	return m.Data[off : off+m.Rows : off+m.Rows]
}

// At returns element (i, j) widened to float64.
func (m *Matrix32) At(i, j int) float64 { return float64(m.Data[j*m.Stride+i]) }

// ToMatrix widens back to float64 (exact).
func (m *Matrix32) ToMatrix() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		src := m.Col(j)
		dst := out.Col(j)
		for i, v := range src {
			dst[i] = float64(v)
		}
	}
	return out
}

// Bytes returns the storage footprint.
func (m *Matrix32) Bytes() int64 { return int64(m.Rows) * int64(m.Cols) * 4 }

// GemmMixed computes C = alpha·op(A)·B + beta·C where A is a constant block
// stored in float32 and op is identity or transpose; products and
// accumulation are in float64. It is the float32 counterpart of GemmConst
// with the same width rule: narrow blocks (and builds without the AVX2+FMA
// kernels) run GemvMixed once per column, wider ones the in-place kernels
// reading A where it lies, widening each load — the 8×6 micro-kernel for
// op(A) = A, the 4×3 dot-product tile for op(A) = Aᵀ. It starts no
// goroutines and, once the panel pool is warm, allocates nothing.
func GemmMixed(transA bool, alpha float64, A *Matrix32, B *Matrix, beta float64, C *Matrix) {
	m, k := A.Rows, A.Cols
	if transA {
		m, k = A.Cols, A.Rows
	}
	if B.Rows != k || C.Rows != m || C.Cols != B.Cols {
		panic("linalg: GemmMixed dimension mismatch")
	}
	if !constWide(transA, B.Cols) {
		for j := 0; j < B.Cols; j++ {
			GemvMixed(transA, alpha, A, B.Col(j), beta, C.Col(j))
		}
		return
	}
	scaleC(beta, C)
	if alpha == 0 || m == 0 || k == 0 {
		return
	}
	if transA {
		gemmInPlaceT(alpha, nil, A, B, C)
	} else {
		gemmInPlace(alpha, nil, A, B, C)
	}
}

// GemvMixed computes y = alpha·op(A)·x + beta·y with A stored in float32
// and float64 accumulation. GemmMixed runs it once per column of narrow
// blocks, so it serves every width-1 mixed-precision record of a plan
// replay and of the interpreter. Untransposed, like Gemv it blocks 8
// columns per pass so y is streamed once per 8 columns instead of once per
// column; with the column-at-a-time form the y read-modify-write traffic
// (16 bytes per element) dwarfed the 4-byte block reads and capped
// DRAM-resident replays. Transposed, it takes four column dot products per
// pass (gemvDots4F32). Both kernels prefetch the panel they read next
// (gemvNextPanel): a width-1 replay reads its float32 blocks from DRAM,
// and each 8-row step loads half the bytes a float64 step does, so
// without the hints too few bytes are in flight to reach the memory
// bandwidth. Its accumulation order differs from the wide kernels' by
// rounding, so results agree across widths to 1e-13 rather than bit for
// bit; a fixed width is bit-identical run to run. No zero-coefficient
// skip: A is always finite (the oracle validates cached blocks), so a zero
// coefficient contributes exact zeros either way.
func GemvMixed(trans bool, alpha float64, A *Matrix32, x []float64, beta float64, y []float64) {
	if trans {
		gemvMixedT(alpha, A, x, beta, y)
		return
	}
	m, k := A.Rows, A.Cols
	if len(x) != k || len(y) != m {
		panic("linalg: GemvMixed dimension mismatch")
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
	if alpha == 0 {
		return
	}
	kk := 0
	if haveFMAKernel && m >= 4 {
		// AVX2 path: VCVTPS2PD widening feeds the float64 FMAs directly,
		// removing the scalar conversion that otherwise dominates (one
		// convert per element costs more than the multiply-add itself).
		mm := m &^ 3
		var coef [8]float64
		for ; kk+8 <= k; kk += 8 {
			for j := range coef {
				coef[j] = alpha * x[kk+j]
			}
			pf := &A.Data[gemvNextPanel(kk, 8, k)*A.Stride]
			gemvCols8F32(mm, &A.Data[kk*A.Stride], A.Stride, &coef[0], &y[0], pf)
			for j := 0; mm < m && j < 8; j++ {
				aj := A.Col(kk + j)
				c := coef[j]
				for i := mm; i < m; i++ {
					y[i] += c * float64(aj[i])
				}
			}
		}
	}
	for ; kk+8 <= k; kk += 8 {
		a0, a1, a2, a3 := A.Col(kk), A.Col(kk+1), A.Col(kk+2), A.Col(kk+3)
		a4, a5, a6, a7 := A.Col(kk+4), A.Col(kk+5), A.Col(kk+6), A.Col(kk+7)
		b0, b1, b2, b3 := alpha*x[kk], alpha*x[kk+1], alpha*x[kk+2], alpha*x[kk+3]
		b4, b5, b6, b7 := alpha*x[kk+4], alpha*x[kk+5], alpha*x[kk+6], alpha*x[kk+7]
		for i := range y {
			s0 := float64(a0[i])*b0 + float64(a1[i])*b1 + float64(a2[i])*b2 + float64(a3[i])*b3
			s1 := float64(a4[i])*b4 + float64(a5[i])*b5 + float64(a6[i])*b6 + float64(a7[i])*b7
			y[i] += s0 + s1
		}
	}
	for ; kk+4 <= k; kk += 4 {
		a0, a1, a2, a3 := A.Col(kk), A.Col(kk+1), A.Col(kk+2), A.Col(kk+3)
		b0, b1, b2, b3 := alpha*x[kk], alpha*x[kk+1], alpha*x[kk+2], alpha*x[kk+3]
		for i := range y {
			y[i] += float64(a0[i])*b0 + float64(a1[i])*b1 + float64(a2[i])*b2 + float64(a3[i])*b3
		}
	}
	for ; kk < k; kk++ {
		s := alpha * x[kk]
		ak := A.Col(kk)
		for i := range y {
			y[i] += s * float64(ak[i])
		}
	}
}

// gemvMixedT is GemvMixed's transposed half: y[j] = alpha·(column j of A)·x
// + beta·y[j]. On AVX2+FMA hardware four columns at a time run through
// gemvDots4F32 over the 4-aligned row prefix; ragged rows, the ragged
// columns and alpha/beta are finished in Go.
func gemvMixedT(alpha float64, A *Matrix32, x []float64, beta float64, y []float64) {
	m, n := A.Rows, A.Cols
	if len(x) != m || len(y) != n {
		panic("linalg: GemvMixed dimension mismatch")
	}
	set := func(j int, s float64) {
		if beta == 0 {
			y[j] = alpha * s
		} else {
			y[j] = beta*y[j] + alpha*s
		}
	}
	j := 0
	if haveFMAKernel && m >= 4 {
		mm := m &^ 3
		var d [4]float64
		for ; j+4 <= n; j += 4 {
			pf := &A.Data[gemvNextPanel(j, 4, n)*A.Stride]
			gemvDots4F32(mm, &A.Data[j*A.Stride], A.Stride, &x[0], &d[0], pf)
			for q := 0; q < 4; q++ {
				s := d[q]
				for i, v := range A.Col(j + q)[mm:] {
					s += float64(v) * x[mm+i]
				}
				set(j+q, s)
			}
		}
	}
	for ; j < n; j++ {
		var s float64
		for i, v := range A.Col(j) {
			s += float64(v) * x[i]
		}
		set(j, s)
	}
}
