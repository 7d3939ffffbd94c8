// Package linalg provides the dense linear-algebra substrate used by the
// GOFMM reproduction: a column-major matrix type, blocked parallel GEMM,
// Householder QR with column pivoting (the GEQP3 equivalent used for
// interpolative decompositions), triangular solves, dense and banded
// Cholesky factorizations, and norm/utility kernels.
//
// Everything is implemented from scratch on top of the standard library so
// the repository has no external dependencies. The design mirrors classic
// BLAS/LAPACK conventions (column-major storage with a leading dimension)
// because the rank-revealing factorizations at the heart of GOFMM are
// column-oriented algorithms.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense column-major matrix. Element (i, j) lives at
// Data[j*Stride+i]. A Matrix may be a view into a larger matrix, in which
// case Stride exceeds Rows and mutations are visible to the parent.
type Matrix struct {
	Rows, Cols int
	Stride     int // distance between the starts of consecutive columns
	Data       []float64
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: max(r, 1), Data: make([]float64, max(r, 1)*c)}
}

// FromColumnMajor wraps existing column-major data (no copy). The slice must
// hold at least r*c elements.
func FromColumnMajor(r, c int, data []float64) *Matrix {
	if len(data) < r*c {
		panic(fmt.Sprintf("linalg: data length %d < %d×%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: max(r, 1), Data: data}
}

// FromRows builds a matrix from row slices (copying), mostly for tests.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[j*m.Stride+i] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[j*m.Stride+i] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[j*m.Stride+i] += v }

// Col returns column j as a slice view of length Rows.
func (m *Matrix) Col(j int) []float64 {
	off := j * m.Stride
	return m.Data[off : off+m.Rows : off+m.Rows]
}

// View returns an r×c sub-matrix view rooted at (i0, j0). The view shares
// storage with m.
func (m *Matrix) View(i0, j0, r, c int) *Matrix {
	if i0 < 0 || j0 < 0 || i0+r > m.Rows || j0+c > m.Cols {
		panic(fmt.Sprintf("linalg: view [%d:%d, %d:%d] out of %d×%d", i0, i0+r, j0, j0+c, m.Rows, m.Cols))
	}
	off := j0*m.Stride + i0
	end := len(m.Data)
	if r > 0 && c > 0 {
		end = off + (c-1)*m.Stride + r
	}
	return &Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[off:end]}
}

// Clone returns a compact deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("linalg: copy %d×%d <- %d×%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Col(j), src.Col(j))
	}
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 0
		}
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = v
		}
	}
}

// Scale multiplies every element by alpha.
func (m *Matrix) Scale(alpha float64) {
	for j := 0; j < m.Cols; j++ {
		Scal(alpha, m.Col(j))
	}
}

// AddScaled performs m += alpha*b elementwise; dimensions must match.
func (m *Matrix) AddScaled(alpha float64, b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: AddScaled dimension mismatch")
	}
	for j := 0; j < m.Cols; j++ {
		Axpy(alpha, b.Col(j), m.Col(j))
	}
}

// Transposed returns a new compact matrix equal to mᵀ.
func (m *Matrix) Transposed() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	const blk = 32
	for jj := 0; jj < m.Cols; jj += blk {
		jmax := min(jj+blk, m.Cols)
		for ii := 0; ii < m.Rows; ii += blk {
			imax := min(ii+blk, m.Rows)
			for j := jj; j < jmax; j++ {
				col := m.Col(j)
				for i := ii; i < imax; i++ {
					t.Data[i*t.Stride+j] = col[i]
				}
			}
		}
	}
	return t
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Matrix {
	m := NewMatrix(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// RowsGather copies rows given by idx into a new len(idx)×Cols matrix.
func (m *Matrix) RowsGather(idx []int) *Matrix {
	out := NewMatrix(len(idx), m.Cols)
	for j := 0; j < m.Cols; j++ {
		src := m.Col(j)
		dst := out.Col(j)
		for k, i := range idx {
			dst[k] = src[i]
		}
	}
	return out
}

// RowsGatherInto copies rows given by idx into dst, which must be
// len(idx)×Cols. It is the allocation-free form of RowsGather.
func (m *Matrix) RowsGatherInto(idx []int, dst *Matrix) {
	if dst.Rows != len(idx) || dst.Cols != m.Cols {
		panic("linalg: RowsGatherInto dimension mismatch")
	}
	for j := 0; j < m.Cols; j++ {
		src := m.Col(j)
		d := dst.Col(j)
		for k, i := range idx {
			d[k] = src[i]
		}
	}
}

// ColsGather copies columns given by idx into a new Rows×len(idx) matrix.
func (m *Matrix) ColsGather(idx []int) *Matrix {
	out := NewMatrix(m.Rows, len(idx))
	for k, j := range idx {
		copy(out.Col(k), m.Col(j))
	}
	return out
}

// RowsScatter copies the rows of src into rows idx of m:
// m[idx[k],:] = src[k,:]. It is the inverse of RowsGatherInto.
func (m *Matrix) RowsScatter(idx []int, src *Matrix) {
	if len(idx) != src.Rows || m.Cols != src.Cols {
		panic("linalg: RowsScatter dimension mismatch")
	}
	for j := 0; j < m.Cols; j++ {
		dst := m.Col(j)
		s := src.Col(j)
		for k, i := range idx {
			dst[i] = s[k]
		}
	}
}

// FrobeniusNorm returns ‖m‖_F.
func (m *Matrix) FrobeniusNorm() float64 {
	// Two-pass scaling avoids overflow for large entries.
	var scale, ssq float64 = 0, 1
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
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
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns max_ij |m_ij|.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
	}
	return mx
}

// RelFrobDiff returns ‖a-b‖_F / ‖b‖_F (or the absolute norm when b is zero).
func RelFrobDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: RelFrobDiff dimension mismatch")
	}
	d := a.Clone()
	d.AddScaled(-1, b)
	nb := b.FrobeniusNorm()
	nd := d.FrobeniusNorm()
	if nb == 0 {
		return nd
	}
	return nd / nb
}

// EqualApprox reports whether all entries agree within tol.
func EqualApprox(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if math.Abs(ca[i]-cb[i]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large ones are summarized.
func (m *Matrix) String() string {
	if m.Rows > 12 || m.Cols > 12 {
		return fmt.Sprintf("Matrix{%d×%d, ‖·‖F=%.4g}", m.Rows, m.Cols, m.FrobeniusNorm())
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Matrix %d×%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&sb, "% 10.4g ", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
