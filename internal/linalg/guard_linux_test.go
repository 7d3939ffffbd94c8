package linalg

import (
	"math/rand"
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// guardedBytes returns n bytes that end exactly where a PROT_NONE page
// begins, so any load past the last byte faults. The mapping is released
// when the test ends.
func guardedBytes(t *testing.T, n int) []byte {
	t.Helper()
	page := os.Getpagesize()
	data := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return mem[data-n : data]
}

// guardedFloat32s and guardedFloat64s view guardedBytes as n floats.
func guardedFloat32s(t *testing.T, n int) []float32 {
	b := guardedBytes(t, 4*n)
	if uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 != 0 {
		t.Fatal("guarded float32 block is misaligned")
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

func guardedFloat64s(t *testing.T, n int) []float64 {
	b := guardedBytes(t, 8*n)
	if uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 != 0 {
		t.Fatal("guarded float64 block is misaligned")
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// TestConstOperandStaysInsideBlock puts constant blocks flush against a
// guard page, as a block served from a file mapping can be, and runs every
// kernel width of the constant-operand entries in both precisions and both
// orientations: a kernel that loads past the block's last element crashes
// the test binary instead of reading stray memory. Most row counts are not
// multiples of 8 (the forward tile) or 4 (the transposed tile's row step);
// the 12×8 block has the transposed tile read to its very last element, and
// the 128×128 and 16×8 blocks have the width-1 GEMV kernels run every
// 8-row step, prefetch hints included, up to the guard page. A hint cannot
// fault, so the page cannot catch one past the block; the callers keep them
// inside anyway (TestGemvPrefetchStaysInsideBlock). The pair entries
// (GemmConstPair, GemmMixedPair) run on the same blocks, so the fused
// kernels and their ragged rows and columns meet the guard page too.
func TestConstOperandStaysInsideBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, sh := range [][2]int{{13, 37}, {5, 300}, {129, 9}, {12, 8}, {128, 128}, {16, 8}} {
		m, k := sh[0], sh[1]
		src := randMatrix(rng, m, k)
		A32 := FromColumnMajor32(m, k, guardedFloat32s(t, m*k))
		A := FromColumnMajor(m, k, guardedFloat64s(t, m*k))
		for j := 0; j < k; j++ {
			for i := 0; i < m; i++ {
				A32.Data[j*m+i] = float32(src.At(i, j))
			}
		}
		A.CopyFrom(A32.ToMatrix())
		for _, r := range []int{1, 2, 3, 4, 5, 6, 16, 17} {
			for _, e := range constOperandEntries {
				rows, inner := m, k
				if e.transA {
					rows, inner = k, m
				}
				B := randMatrix(rng, inner, r)
				want, C := NewMatrix(rows, r), NewMatrix(rows, r)
				refGemm(e.transA, false, 1, A, B, 0, want)
				if e.mixed {
					GemmMixed(e.transA, 1, A32, B, 0, C)
				} else {
					GemmConst(e.transA, 1, A, B, 0, C)
				}
				if d := maxAbsDiff(C, want); d > 1e-13*float64(inner+1) {
					t.Fatalf("%s m=%d k=%d r=%d: deviates from reference by %g", e.name, m, k, r, d)
				}
			}
			B, Bt := randMatrix(rng, k, r), randMatrix(rng, m, r)
			want, wantT := NewMatrix(m, r), NewMatrix(k, r)
			refGemm(false, false, 1, A, B, 0, want)
			refGemm(true, false, 1, A, Bt, 0, wantT)
			for _, A32 := range []*Matrix32{nil, A32} {
				C, Ct := NewMatrix(m, r), NewMatrix(k, r)
				pairProduct(A, A32, B, 0, C, Bt, Ct)
				if d := max(maxAbsDiff(C, want), maxAbsDiff(Ct, wantT)); d > 1e-13*float64(max(m, k)+1) {
					t.Fatalf("pair mixed=%v m=%d k=%d r=%d: deviates from reference by %g", A32 != nil, m, k, r, d)
				}
			}
		}
	}
}

// TestExpInPlaceStaysInsideSlice runs ExpInPlace on slices of every length
// from 1 to 9 that end at a guard page: a kernel that reads or writes past
// the last element crashes the test binary.
func TestExpInPlaceStaysInsideSlice(t *testing.T) {
	for n := 1; n <= 9; n++ {
		x := guardedFloat64s(t, n)
		in := make([]float64, n)
		for i := range in {
			in[i] = float64(i) - 3.5
		}
		if n == 9 {
			in[5] = 800 // the second group falls back to math.Exp
		}
		copy(x, in)
		ExpInPlace(x)
		checkExpBits(t, "guarded", in, x)
	}
}
