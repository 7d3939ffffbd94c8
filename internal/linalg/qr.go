package linalg

import "math"

// QRCP holds a Householder QR factorization with column pivoting of an m×n
// matrix A: A·P = Q·R. It is the pure-Go analogue of LAPACK's GEQP3, with
// an adaptive early exit that stops as soon as the trailing residual block
// is small — exactly the rank-revealing behaviour GOFMM's skeletonization
// needs (§2.2: "the rank s is chosen adaptively such that σ_{s+1} < τ").
type QRCP struct {
	// QR stores R in the upper triangle of the first Rank rows and the
	// Householder vectors below the diagonal of the first Rank columns.
	QR  *Matrix
	Tau []float64 // Householder scalars, len Rank
	// Piv[k] is the original column index that ended up in position k after
	// pivoting, for all n columns.
	Piv  []int
	Rank int
	// ResidNorm is the largest remaining column norm when the factorization
	// stopped — an estimate of σ_{Rank+1}.
	ResidNorm float64
	// Sigma1 estimates σ₁ (the first pivot column norm).
	Sigma1 float64
}

// QRColumnPivot factors A (which is not modified) with column pivoting.
// The factorization stops at rank s when either s == maxRank (maxRank ≤ 0
// means min(m,n)) or the largest remaining column norm drops below
// tol·σ₁ (tol ≤ 0 disables the adaptive stop).
func QRColumnPivot(A *Matrix, tol float64, maxRank int) *QRCP {
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
	// Running (downdated) column norms plus the exact norms for the
	// recompute safeguard (LAPACK's dnrm2 drift test).
	norms := make([]float64, n)
	exact := make([]float64, n)
	for j := 0; j < n; j++ {
		norms[j] = Nrm2(work.Col(j))
		exact[j] = norms[j]
	}
	for k := 0; k < kmax; k++ {
		// Pivot: largest residual column norm among k..n-1.
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
		// Householder vector for column k, rows k..m-1.
		col := work.Col(k)
		alpha := col[k]
		xnorm := Nrm2(col[k+1:])
		if xnorm == 0 {
			// Column already triangular; tau=0 reflector is the identity.
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
		// Apply (I - tau v vᵀ) to the trailing columns; v = [1; col[k+1:]].
		vtail := col[k+1 : m]
		parallelFor(n-(k+1), 16, func(lo, hi int) {
			reflectCols(work, vtail, tau, k, k+1+lo, k+1+hi)
		})
		f.Rank = k + 1
		updateNorms(work, norms, exact, k, n, m)
	}
	if f.Rank == kmax {
		// Residual estimate when we ran to completion.
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

// reflectCols applies the reflector I − τ·v·vᵀ, v = [1; vtail], to rows
// k..m-1 of columns lo..hi-1 of work. Columns go four at a time through
// dot4, which reads vtail once for all four; every column gets exactly the
// Dot and Axpy of a one-column update.
func reflectCols(work *Matrix, vtail []float64, tau float64, k, lo, hi int) {
	update := func(cj []float64, d float64) {
		w := cj[k] + d
		w *= tau
		cj[k] -= w
		Axpy(-w, vtail, cj[k+1:])
	}
	jj := lo
	for ; jj+4 <= hi; jj += 4 {
		d := dot4(vtail, work, k+1, jj)
		for q := range d {
			update(work.Col(jj+q), d[q])
		}
	}
	for ; jj < hi; jj++ {
		cj := work.Col(jj)
		update(cj, Dot(vtail, cj[k+1:]))
	}
}

// updateNorms downdates the running column norms after eliminating row k and
// recomputes them when cancellation makes the downdate unreliable.
func updateNorms(work *Matrix, norms, exact []float64, k, n, m int) {
	for j := k + 1; j < n; j++ {
		if norms[j] == 0 {
			continue
		}
		t := math.Abs(work.At(k, j)) / norms[j]
		t = (1 + t) * (1 - t)
		if t < 0 {
			t = 0
		}
		t2 := norms[j] / exact[j]
		t2 = t * t2 * t2
		if t2 <= 1e-14 {
			// Recompute from scratch: the downdated value has lost accuracy.
			norms[j] = Nrm2(work.Col(j)[k+1 : m])
			exact[j] = norms[j]
		} else {
			norms[j] *= math.Sqrt(t)
		}
	}
}

// R returns a compact copy of the rank×n upper-trapezoidal factor.
func (f *QRCP) R() *Matrix {
	n := f.QR.Cols
	r := NewMatrix(f.Rank, n)
	for j := 0; j < n; j++ {
		src := f.QR.Col(j)
		dst := r.Col(j)
		for i := 0; i <= min(j, f.Rank-1); i++ {
			dst[i] = src[i]
		}
	}
	return r
}

// FormQ forms the thin m×Rank orthonormal factor explicitly (test and
// baseline use; GOFMM itself never materializes Q).
func (f *QRCP) FormQ() *Matrix {
	m := f.QR.Rows
	Q := NewMatrix(m, f.Rank)
	for j := 0; j < f.Rank; j++ {
		Q.Set(j, j, 1)
	}
	// Apply H_{rank-1}···H_0 to the identity columns.
	for k := f.Rank - 1; k >= 0; k-- {
		tau := f.Tau[k]
		if tau == 0 {
			continue
		}
		v := f.QR.Col(k)[k+1 : m]
		for j := 0; j < f.Rank; j++ {
			cj := Q.Col(j)
			w := cj[k] + Dot(v, cj[k+1:m])
			w *= tau
			cj[k] -= w
			Axpy(-w, v, cj[k+1:m])
		}
	}
	return Q
}

// ID is an interpolative decomposition A ≈ A[:, Skel] · Coef where Skel
// lists s column indices of A and Coef is s×n with Coef[:, Skel] = I.
// This is exactly the structure GOFMM stores per tree node: the skeleton
// indices α̃ and the interpolation matrix P_{α̃α} (Eq. 7).
type ID struct {
	Skel []int
	Coef *Matrix
	// ResidNorm estimates σ_{s+1} of A; Sigma1 estimates σ₁.
	ResidNorm, Sigma1 float64
}

// InterpDecomp computes a rank-adaptive interpolative decomposition of A
// using pivoted QR: with A·P = Q·[R11 R12], the skeleton is the first s
// pivot columns and Coef = [I, R11⁻¹R12]·Pᵀ.
func InterpDecomp(A *Matrix, tol float64, maxRank int) *ID {
	f := QRColumnPivot(A, tol, maxRank)
	s, n := f.Rank, A.Cols
	id := &ID{Skel: make([]int, s), ResidNorm: f.ResidNorm, Sigma1: f.Sigma1}
	copy(id.Skel, f.Piv[:s])
	// T = R11⁻¹ R12 (s×(n-s)).
	T := NewMatrix(s, n-s)
	for j := 0; j < n-s; j++ {
		src := f.QR.Col(s + j)
		copy(T.Col(j), src[:s])
	}
	if n > s {
		TrsmLeftUpper(false, f.QR, T)
	}
	// Assemble Coef in original column order.
	coef := NewMatrix(s, n)
	for k := 0; k < s; k++ {
		coef.Set(k, f.Piv[k], 1)
	}
	for j := 0; j < n-s; j++ {
		copy(coef.Col(f.Piv[s+j]), T.Col(j))
	}
	id.Coef = coef
	return id
}
