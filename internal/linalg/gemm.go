package linalg

import "sync"

// Blocked, register-tiled GEMM.
//
// The kernel follows the classic three-level blocking scheme (Goto/BLIS):
// op(B) is packed kc×nc at a time into column micro-panels of width gemmNR,
// op(A) is packed mc×kc at a time into row micro-panels of height gemmMR,
// and an mr×nr micro-kernel runs over the packed panels with the C tile held
// in registers. Packing makes both transpose variants free (the packers read
// strided, the micro-kernel never does), keeps the A block resident in L2
// and the active B micro-panel in L1, and folds alpha into the packed B so
// the inner loop is pure multiply-add.
//
// On amd64 with AVX2+FMA (detected at startup) full 8×6 tiles are computed
// by a hand-written assembly micro-kernel holding the tile in 12 YMM
// accumulators; edge tiles and other platforms use a portable Go kernel over
// the same packed panels. The kernel takes A's step between k columns, so
// GemmConst and GemmMixed run it in place on constant blocks without
// packing A (see the constant-operand section). Matrices smaller than
// gemmPackedMNK skip packing entirely and run serial register-blocked loops
// (axpy-style for op(A) = A, dot-style for op(A) = Aᵀ) that allocate
// nothing.

const (
	gemmMR = 8 // micro-tile rows (two 4-wide vectors)
	gemmNR = 6 // micro-tile columns (12 accumulators = 12 YMM registers)
	gemmKC = 256
	gemmMC = 128  // A block: gemmMC×gemmKC ≈ 256 KiB, sized for L2
	gemmNC = 1536 // B block: gemmKC×gemmNC upper bound, sized for L3

	// gemmPackedMNK is the m·n·k product above which the packed path engages;
	// below it the packing traffic is not amortized. The threshold is tuned
	// for the batched-evaluation shapes (m, k ≈ skeleton size 32–128, n = the
	// RHS block width): with edge tiles padded through the FMA kernel, packing
	// pays for itself down to roughly 48×16×48.
	gemmPackedMNK = 16 * 1024
)

// AsmKernels reports whether this build runs the AVX2+FMA assembly
// micro-kernels: amd64 without the purego tag, on a CPU and OS with AVX2,
// FMA and YMM state. The kernels round differently from the portable
// loops, so tests that pin output bits hold only when it is true.
func AsmKernels() bool { return haveFMAKernel }

// panelPool recycles packing buffers across Gemm calls (pointers so that
// Put does not allocate).
var panelPool = sync.Pool{New: func() any { return new([]float64) }}

func getPanel(n int) *[]float64 {
	p := panelPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putPanel(p *[]float64) { panelPool.Put(p) }

// Gemm computes C = alpha*op(A)*op(B) + beta*C where op is identity or
// transpose. It is the workhorse behind both the dense baseline ("SGEMM" in
// the paper's Figure 1) and all block operations inside GOFMM.
func Gemm(transA, transB bool, alpha float64, A, B *Matrix, beta float64, C *Matrix) {
	m, k := A.Rows, A.Cols
	if transA {
		m, k = A.Cols, A.Rows
	}
	kb, n := B.Rows, B.Cols
	if transB {
		kb, n = B.Cols, B.Rows
	}
	if k != kb || C.Rows != m || C.Cols != n {
		panic("linalg: Gemm dimension mismatch")
	}
	scaleC(beta, C)
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	if gemmPacks(m, n, k) {
		gemmPacked(transA, transB, alpha, A, B, C, m, n, k)
		return
	}
	if transA {
		gemmSmallT(alpha, A, B, C, m, n, k, transB)
	} else {
		gemmSmallN(alpha, A, B, C, n, k, transB)
	}
}

// --- packed path ---------------------------------------------------------

// gemmPacks reports whether Gemm takes the packed path. Packing only pays
// off when the n edge is at least one full micro-tile (thin right-hand
// sides would waste up to ⅔ of every 8×6 tile on zero-padding) and the
// flop count amortizes the packing traffic.
func gemmPacks(m, n, k int) bool {
	return m >= gemmMR && n >= gemmNR && k >= 4 && m*n*k >= gemmPackedMNK
}

func gemmPacked(transA, transB bool, alpha float64, A, B, C *Matrix, m, n, k int) {
	for jc := 0; jc < n; jc += gemmNC {
		ncb := min(gemmNC, n-jc)
		bPanels := (ncb + gemmNR - 1) / gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			kcb := min(gemmKC, k-pc)
			bp := getPanel(bPanels * gemmNR * kcb)
			packB(transB, alpha, B, pc, jc, kcb, ncb, *bp)
			nic := (m + gemmMC - 1) / gemmMC
			if nic > 1 && workers() > 1 {
				jcv, pcv, kcv, ncv := jc, pc, kcb, ncb // capture copies for the closure
				parallelFor(nic, 1, func(lo, hi int) {
					gemmMacro(transA, A, C, *bp, pcv, jcv, kcv, ncv, lo, hi, m)
				})
			} else {
				gemmMacro(transA, A, C, *bp, pc, jc, kcb, ncb, 0, nic, m)
			}
			putPanel(bp)
		}
	}
}

// gemmMacro processes A blocks [icLo, icHi) of the mc-grid against the
// packed B block bp, packing each A block into a per-call panel.
func gemmMacro(transA bool, A, C *Matrix, bp []float64, pc, jc, kcb, ncb, icLo, icHi, m int) {
	ap := getPanel(gemmMC * kcb)
	for ib := icLo; ib < icHi; ib++ {
		ic := ib * gemmMC
		if ic >= m {
			break
		}
		mcb := min(gemmMC, m-ic)
		packA(transA, A, pc, ic, kcb, mcb, *ap)
		mPanels := (mcb + gemmMR - 1) / gemmMR
		for jr := 0; jr < ncb; jr += gemmNR {
			nrb := min(gemmNR, ncb-jr)
			bpan := bp[(jr/gemmNR)*gemmNR*kcb:]
			for pi := 0; pi < mPanels; pi++ {
				apan := (*ap)[pi*gemmMR*kcb:]
				mrb := min(gemmMR, mcb-pi*gemmMR)
				cOff := (jc+jr)*C.Stride + ic + pi*gemmMR
				switch {
				case mrb == gemmMR && nrb == gemmNR && haveFMAKernel:
					gemmKernel8x6(kcb, &apan[0], gemmMR, &bpan[0], &C.Data[cOff], C.Stride)
				case haveFMAKernel:
					// Edge tile: both panels are zero-padded to full size, so
					// run the FMA kernel into a scratch tile and accumulate
					// the live mrb×nrb corner — far cheaper than the scalar
					// kernel for any non-trivial kc.
					var tile [gemmMR * gemmNR]float64
					gemmKernel8x6(kcb, &apan[0], gemmMR, &bpan[0], &tile[0], gemmMR)
					addTile(C.Data[cOff:], C.Stride, &tile, mrb, nrb)
				default:
					gemmKernelGeneric(kcb, apan, bpan, C.Data[cOff:], C.Stride, mrb, nrb)
				}
			}
		}
	}
	putPanel(ap)
}

// addTile accumulates the live rows×cols corner of a kernel tile computed
// with ldc = gemmMR into C (cd is C.Data from the tile origin, ldc its
// stride).
func addTile(cd []float64, ldc int, tile *[gemmMR * gemmNR]float64, rows, cols int) {
	for j := 0; j < cols; j++ {
		col := cd[j*ldc : j*ldc+rows]
		tj := tile[j*gemmMR:]
		for q := range col {
			col[q] += tj[q]
		}
	}
}

// packA packs op(A)[ic:ic+mcb, pc:pc+kcb] into gemmMR-row micro-panels:
// panel pi holds rows [pi·mr, pi·mr+mr) as kcb consecutive mr-vectors,
// zero-padded so the micro-kernel never branches on the row edge.
func packA(transA bool, A *Matrix, pc, ic, kcb, mcb int, ap []float64) {
	panels := (mcb + gemmMR - 1) / gemmMR
	for pi := 0; pi < panels; pi++ {
		ir := pi * gemmMR
		rows := min(gemmMR, mcb-ir)
		dst := ap[pi*gemmMR*kcb : (pi+1)*gemmMR*kcb]
		if !transA {
			for kk := 0; kk < kcb; kk++ {
				src := A.Data[(pc+kk)*A.Stride+ic+ir:]
				d := dst[kk*gemmMR : kk*gemmMR+gemmMR]
				for q := 0; q < rows; q++ {
					d[q] = src[q]
				}
				for q := rows; q < gemmMR; q++ {
					d[q] = 0
				}
			}
			continue
		}
		// op(A)[i, kk] = A[kk, i]: column ic+ir+q of A is contiguous over kk.
		for q := 0; q < rows; q++ {
			src := A.Data[(ic+ir+q)*A.Stride+pc:]
			for kk := 0; kk < kcb; kk++ {
				dst[kk*gemmMR+q] = src[kk]
			}
		}
		for q := rows; q < gemmMR; q++ {
			for kk := 0; kk < kcb; kk++ {
				dst[kk*gemmMR+q] = 0
			}
		}
	}
}

// packB packs alpha*op(B)[pc:pc+kcb, jc:jc+ncb] into gemmNR-column
// micro-panels (kcb consecutive nr-vectors each, zero-padded on the column
// edge), folding alpha so the micro-kernel is a pure multiply-add.
func packB(transB bool, alpha float64, B *Matrix, pc, jc, kcb, ncb int, bp []float64) {
	panels := (ncb + gemmNR - 1) / gemmNR
	for qi := 0; qi < panels; qi++ {
		jr := qi * gemmNR
		cols := min(gemmNR, ncb-jr)
		dst := bp[qi*gemmNR*kcb : (qi+1)*gemmNR*kcb]
		if !transB {
			for t := 0; t < cols; t++ {
				src := B.Data[(jc+jr+t)*B.Stride+pc:]
				for kk := 0; kk < kcb; kk++ {
					dst[kk*gemmNR+t] = alpha * src[kk]
				}
			}
			for t := cols; t < gemmNR; t++ {
				for kk := 0; kk < kcb; kk++ {
					dst[kk*gemmNR+t] = 0
				}
			}
			continue
		}
		// op(B)[kk, j] = B[j, kk]: row pc+kk of B is contiguous over j.
		for kk := 0; kk < kcb; kk++ {
			src := B.Data[(pc+kk)*B.Stride+jc+jr:]
			d := dst[kk*gemmNR : kk*gemmNR+gemmNR]
			for t := 0; t < cols; t++ {
				d[t] = alpha * src[t]
			}
			for t := cols; t < gemmNR; t++ {
				d[t] = 0
			}
		}
	}
}

// gemmKernelGeneric is the portable micro-kernel: it computes the full
// (zero-padded) mr×nr tile into a stack buffer and accumulates the live
// mrb×nrb corner into C. cd is C.Data from the tile origin; ldc its stride.
func gemmKernelGeneric(kc int, a, b []float64, cd []float64, ldc, mrb, nrb int) {
	var acc [gemmMR * gemmNR]float64
	for kk := 0; kk < kc; kk++ {
		av := a[kk*gemmMR : kk*gemmMR+gemmMR]
		bv := b[kk*gemmNR : kk*gemmNR+gemmNR]
		for j := 0; j < gemmNR; j++ {
			bj := bv[j]
			if bj == 0 {
				continue
			}
			aj := acc[j*gemmMR : j*gemmMR+gemmMR]
			for q := 0; q < gemmMR; q++ {
				aj[q] += av[q] * bj
			}
		}
	}
	for j := 0; j < nrb; j++ {
		col := cd[j*ldc : j*ldc+mrb]
		aj := acc[j*gemmMR:]
		for q := range col {
			col[q] += aj[q]
		}
	}
}

// --- constant-operand path ---------------------------------------------

// gemmConstMinWidth is the width from which the constant-operand entries
// (GemmConst, GemmMixed) run the in-place micro-kernel instead of the
// per-column GEMV, read off BenchmarkConstOperand (gemm_bench_test.go):
// 128×128 and 40×80 blocks, single threaded, AVX2+FMA, medians of three
// runs on a 2-vCPU Xeon VM. At r = 4 each wins on one of the two shapes;
// from r = 5 the micro-kernel wins on both, in both precisions (at r = 16
// on the 128×128 block, 1.2–1.5× the per-column GEMV).
const gemmConstMinWidth = 5

// gemmConstMinWidthT is the same crossover for op(A) = Aᵀ, where the wide
// path is the 4×3 dot-product tile (gemmInPlaceT) and the narrow one the
// transposed GEMV once per column, read off the "T" rows of the same
// benchmark (medians of three). Below three columns there is no full tile
// to run; from r = 3 the tile wins on both shapes in both precisions, by
// 1.6–2.3×: at r = 3, 16.2 against 9.4 GFLOP/s (float64) and 14.4 against
// 8.2 (float32) on the 128×128 block, 23.5 against 10.3 and 16.5 against
// 7.5 on the 40×80 one; at r = 16 on the 128×128 block, 16.0 against 9.8
// and 15.2 against 8.6, where the forward micro-kernel read 15.2 and 13.2
// in the same run. The float64 tile serves replays of operators cached
// without CacheSingle, as gofmmd caches; DESIGN.md ("Kernel selection")
// times such replays with and without it.
const gemmConstMinWidthT = 3

// GemmConst computes C = alpha·op(A)·B + beta·C for a constant operand A
// (an interpolation basis or a cached block that every right-hand-side
// block meets, as in a compiled-plan replay). The kernel depends only on
// transA and the width r = B.Cols:
//
//   - op(A) = A, r ≥ gemmConstMinWidth: the 8×6 micro-kernel reading A in
//     place (gemmInPlace), so A is loaded once per 6 columns, never packed;
//   - op(A) = Aᵀ, r ≥ gemmConstMinWidthT: the 4×3 dot-product tile reading
//     A in place (gemmInPlaceT), so A is loaded once per 3 columns;
//   - otherwise, and on builds without the AVX2+FMA kernels: Gemv once per
//     column.
//
// It starts no goroutines and, once the panel pool is warm, allocates
// nothing.
func GemmConst(transA bool, alpha float64, A, B *Matrix, beta float64, C *Matrix) {
	m, k := A.Rows, A.Cols
	if transA {
		m, k = A.Cols, A.Rows
	}
	if B.Rows != k || C.Rows != m || C.Cols != B.Cols {
		panic("linalg: GemmConst dimension mismatch")
	}
	r := B.Cols
	if !constWide(transA, r) {
		for j := 0; j < r; j++ {
			Gemv(transA, alpha, A, B.Col(j), beta, C.Col(j))
		}
		return
	}
	scaleC(beta, C)
	if alpha == 0 || m == 0 || k == 0 {
		return
	}
	if transA {
		gemmInPlaceT(alpha, A, nil, B, C)
	} else {
		gemmInPlace(alpha, A, nil, B, C)
	}
}

// constWide reports whether a constant-operand product of width r runs the
// in-place multi-column kernels rather than the GEMV once per column.
func constWide(transA bool, r int) bool {
	if !haveFMAKernel {
		return false
	}
	if transA {
		return r >= gemmConstMinWidthT
	}
	return r >= gemmConstMinWidth
}

// scaleC applies the beta half of C = alpha·op(A)·B + beta·C; beta = 0
// overwrites, so non-finite contents of C never reach the result.
func scaleC(beta float64, C *Matrix) {
	switch beta {
	case 1:
	case 0:
		C.Zero()
	default:
		C.Scale(beta)
	}
}

// gemmInPlace computes C += alpha·A·B with the 8×6 micro-kernel reading the
// column-major constant in place; exactly one of A (float64) and A32
// (float32) is set. B is packed once per gemmKC block into 6-column panels
// with alpha folded in. The m mod 8 ragged rows are copied into one
// zero-padded float64 panel, so no load reaches past the block's last
// element: a block served from a file mapping may end where the mapping
// does. Requires haveFMAKernel.
func gemmInPlace(alpha float64, A *Matrix, A32 *Matrix32, B, C *Matrix) {
	var m, k int
	if A32 != nil {
		m, k = A32.Rows, A32.Cols
	} else {
		m, k = A.Rows, A.Cols
	}
	n := B.Cols
	mm := m &^ (gemmMR - 1)
	nPanels := (n + gemmNR - 1) / gemmNR
	for pc := 0; pc < k; pc += gemmKC {
		kcb := min(gemmKC, k-pc)
		bp := getPanel(nPanels * gemmNR * kcb)
		packB(false, alpha, B, pc, 0, kcb, n, *bp)
		var tail *[]float64
		if mm < m {
			tail = getPanel(gemmMR * kcb)
			packTail(A, A32, pc, mm, kcb, m-mm, *tail)
		}
		for jr := 0; jr < n; jr += gemmNR {
			nrb := min(gemmNR, n-jr)
			bpan := &(*bp)[jr*kcb]
			cd := C.Data[jr*C.Stride:]
			for ir := 0; ir < mm; ir += gemmMR {
				if nrb == gemmNR {
					kernelInPlace(A, A32, kcb, pc, ir, bpan, &cd[ir], C.Stride)
					continue
				}
				var tile [gemmMR * gemmNR]float64
				kernelInPlace(A, A32, kcb, pc, ir, bpan, &tile[0], gemmMR)
				addTile(cd[ir:], C.Stride, &tile, gemmMR, nrb)
			}
			if tail != nil {
				var tile [gemmMR * gemmNR]float64
				gemmKernel8x6(kcb, &(*tail)[0], gemmMR, bpan, &tile[0], gemmMR)
				addTile(cd[mm:], C.Stride, &tile, m-mm, nrb)
			}
		}
		putPanel(bp)
		if tail != nil {
			putPanel(tail)
		}
	}
}

// kernelInPlace runs the micro-kernel on rows [ir, ir+8) and columns
// [pc, pc+kc) of whichever of A and A32 is set.
func kernelInPlace(A *Matrix, A32 *Matrix32, kc, pc, ir int, b, c *float64, ldc int) {
	if A32 != nil {
		gemmKernel8x6F32(kc, &A32.Data[pc*A32.Stride+ir], A32.Stride, b, c, ldc)
	} else {
		gemmKernel8x6(kc, &A.Data[pc*A.Stride+ir], A.Stride, b, c, ldc)
	}
}

// packTail packs rows [ic, ic+rows) of A[:, pc:pc+kcb] (or A32, widened)
// into one zero-padded gemmMR-row panel, rows < gemmMR.
func packTail(A *Matrix, A32 *Matrix32, pc, ic, kcb, rows int, dst []float64) {
	if A32 == nil {
		packA(false, A, pc, ic, kcb, rows, dst)
		return
	}
	for kk := 0; kk < kcb; kk++ {
		src := A32.Data[(pc+kk)*A32.Stride+ic:]
		d := dst[kk*gemmMR : kk*gemmMR+gemmMR]
		for q := range d {
			d[q] = 0
			if q < rows {
				d[q] = float64(src[q])
			}
		}
	}
}

// gemmInPlaceT computes C += alpha·Aᵀ·B with the 4×3 dot-product tile
// reading the column-major constant in place; exactly one of A (float64)
// and A32 (float32) is set, k×m with k the inner dimension. Each tile
// call reads four columns of A and three of B once, so A streams once per
// three columns of B. The k mod 4 rows the tile's 4-row steps leave over
// are one rank-1 update each over the tiled part of C; the m mod 4 ragged
// columns of A and the n mod 3 ragged columns of B are finished in Go. So
// no load reaches past the block's last element. Requires haveFMAKernel.
func gemmInPlaceT(alpha float64, A *Matrix, A32 *Matrix32, B, C *Matrix) {
	var k, m int
	if A32 != nil {
		k, m = A32.Rows, A32.Cols
	} else {
		k, m = A.Rows, A.Cols
	}
	n := B.Cols
	kk, mm, nn := k&^3, m&^3, n-n%3
	var d [12]float64
	for j := 0; j < nn && kk > 0; j += 3 {
		cols := [3][]float64{C.Col(j), C.Col(j + 1), C.Col(j + 2)}
		for i := 0; i < mm; i += 4 {
			if A32 != nil {
				gemmDots4x3F32(kk, &A32.Data[i*A32.Stride], A32.Stride, &B.Data[j*B.Stride], B.Stride, &d[0])
			} else {
				gemmDots4x3F64(kk, &A.Data[i*A.Stride], A.Stride, &B.Data[j*B.Stride], B.Stride, &d[0])
			}
			for q, cq := range cols {
				c := cq[i : i+4 : i+4]
				c[0] += alpha * d[4*q]
				c[1] += alpha * d[4*q+1]
				c[2] += alpha * d[4*q+2]
				c[3] += alpha * d[4*q+3]
			}
		}
	}
	for r := kk; r < k; r++ {
		rowUpdate(alpha, A, A32, r, mm, B, nn, C)
	}
	for j := 0; j < nn; j++ {
		bj, cj := B.Col(j), C.Col(j)
		for i := mm; i < m; i++ {
			cj[i] += alpha * colDot(A, A32, i, bj)
		}
	}
	for j := nn; j < n; j++ {
		if A32 != nil {
			GemvMixed(true, alpha, A32, B.Col(j), 1, C.Col(j))
		} else {
			Gemv(true, alpha, A, B.Col(j), 1, C.Col(j))
		}
	}
}

// rowUpdate adds the rank-1 product of row r of A and row r of B,
// C[:m, :n] += alpha·A[r, :m]ᵀ·B[r, :n], for whichever of A and A32 is set.
func rowUpdate(alpha float64, A *Matrix, A32 *Matrix32, r, m int, B *Matrix, n int, C *Matrix) {
	for j := 0; j < n; j++ {
		b := alpha * B.Data[j*B.Stride+r]
		c := C.Col(j)[:m]
		if A32 != nil {
			for i := range c {
				c[i] += float64(A32.Data[i*A32.Stride+r]) * b
			}
		} else {
			for i := range c {
				c[i] += A.Data[i*A.Stride+r] * b
			}
		}
	}
}

// colDot returns column i of whichever of A and A32 is set, dotted with b.
func colDot(A *Matrix, A32 *Matrix32, i int, b []float64) float64 {
	var s float64
	if A32 != nil {
		for r, v := range A32.Col(i) {
			s += float64(v) * b[r]
		}
		return s
	}
	for r, v := range A.Col(i) {
		s += v * b[r]
	}
	return s
}

// --- small path ----------------------------------------------------------

// gemmSmallN computes C += alpha*A*op(B) serially with the 4×4
// register-blocked axpy kernel (columns of A are walked contiguously). It
// allocates nothing.
func gemmSmallN(alpha float64, A, B, C *Matrix, n, k int, transB bool) {
	m := A.Rows
	bd := B.Data
	rs, cs := 1, B.Stride // op(B)[kk, j] = bd[kk*rs+j*cs]
	if transB {
		rs, cs = B.Stride, 1
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		c0, c1, c2, c3 := C.Col(j), C.Col(j+1), C.Col(j+2), C.Col(j+3)
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a0, a1, a2, a3 := A.Col(kk), A.Col(kk+1), A.Col(kk+2), A.Col(kk+3)
			var b [4][4]float64
			for p := 0; p < 4; p++ {
				off := (kk + p) * rs
				b[p][0] = alpha * bd[off+j*cs]
				b[p][1] = alpha * bd[off+(j+1)*cs]
				b[p][2] = alpha * bd[off+(j+2)*cs]
				b[p][3] = alpha * bd[off+(j+3)*cs]
			}
			for i := 0; i < m; i++ {
				av0, av1, av2, av3 := a0[i], a1[i], a2[i], a3[i]
				c0[i] += av0*b[0][0] + av1*b[1][0] + av2*b[2][0] + av3*b[3][0]
				c1[i] += av0*b[0][1] + av1*b[1][1] + av2*b[2][1] + av3*b[3][1]
				c2[i] += av0*b[0][2] + av1*b[1][2] + av2*b[2][2] + av3*b[3][2]
				c3[i] += av0*b[0][3] + av1*b[1][3] + av2*b[2][3] + av3*b[3][3]
			}
		}
		for ; kk < k; kk++ {
			a0 := A.Col(kk)
			off := kk * rs
			b0 := alpha * bd[off+j*cs]
			b1 := alpha * bd[off+(j+1)*cs]
			b2 := alpha * bd[off+(j+2)*cs]
			b3 := alpha * bd[off+(j+3)*cs]
			for i := 0; i < m; i++ {
				av := a0[i]
				c0[i] += av * b0
				c1[i] += av * b1
				c2[i] += av * b2
				c3[i] += av * b3
			}
		}
	}
	for ; j < n; j++ {
		cj := C.Col(j)
		for kk := 0; kk < k; kk++ {
			Axpy(alpha*bd[kk*rs+j*cs], A.Col(kk), cj)
		}
	}
}

// gemmSmallT computes C += alpha*Aᵀ*op(B) serially as dot products — column
// i of A is exactly row i of op(A) and is contiguous, so no transpose is
// ever materialized. It allocates nothing.
func gemmSmallT(alpha float64, A, B, C *Matrix, m, n, k int, transB bool) {
	bd := B.Data
	for j := 0; j < n; j++ {
		cj := C.Col(j)
		if !transB {
			bj := bd[j*B.Stride : j*B.Stride+k]
			for i := 0; i < m; i++ {
				cj[i] += alpha * Dot(A.Col(i)[:k], bj)
			}
			continue
		}
		// op(B) column j is row j of B, strided.
		for i := 0; i < m; i++ {
			ai := A.Col(i)
			var s float64
			for kk := 0; kk < k; kk++ {
				s += ai[kk] * bd[kk*B.Stride+j]
			}
			cj[i] += alpha * s
		}
	}
}
