package linalg

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Gemv is the hot kernel of width-1 compiled-plan replays; these benchmarks
// track it at the modal block shape (128×128) in both orientations against
// the general Gemm entry point on a one-column operand.
func benchGemvSetup(b *testing.B) (*Matrix, []float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	A := GaussianMatrix(rng, 128, 128)
	x := make([]float64, 128)
	y := make([]float64, 128)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return A, x, y
}

func BenchmarkGemvNoTrans(b *testing.B) {
	A, x, y := benchGemvSetup(b)
	b.SetBytes(128 * 128 * 8)
	for i := 0; i < b.N; i++ {
		Gemv(false, 1, A, x, 0, y)
	}
}

func BenchmarkGemvTrans(b *testing.B) {
	A, x, y := benchGemvSetup(b)
	b.SetBytes(128 * 128 * 8)
	for i := 0; i < b.N; i++ {
		Gemv(true, 1, A, x, 0, y)
	}
}

func BenchmarkGemmWidth1(b *testing.B) {
	A, x, y := benchGemvSetup(b)
	X := FromColumnMajor(128, 1, x)
	Y := FromColumnMajor(128, 1, y)
	b.SetBytes(128 * 128 * 8)
	for i := 0; i < b.N; i++ {
		Gemm(false, false, 1, A, X, 0, Y)
	}
}

func BenchmarkGemvMixed(b *testing.B) {
	A, x, y := benchGemvSetup(b)
	A32 := ToMatrix32(A)
	b.SetBytes(128 * 128 * 4)
	for i := 0; i < b.N; i++ {
		GemvMixed(false, 1, A32, x, 0, y)
	}
}

func BenchmarkGemvMixedTrans(b *testing.B) {
	A, x, y := benchGemvSetup(b)
	A32 := ToMatrix32(A)
	b.SetBytes(128 * 128 * 4)
	for i := 0; i < b.N; i++ {
		GemvMixed(true, 1, A32, x, 0, y)
	}
}

// streamSetBytes is the size of BenchmarkGemvStream's block set: four times
// the last-level cache sysfs reports for cpu0 (a 512 MB set where it
// reports none), so every pass reads its blocks from DRAM, or 8 MB under
// -short, which only smoke-tests the benchmark.
func streamSetBytes() int {
	if testing.Short() {
		return 8 << 20
	}
	raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	s := strings.TrimSpace(string(raw))
	unit := 1
	switch {
	case strings.HasSuffix(s, "K"):
		unit, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		unit, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, perr := strconv.Atoi(s)
	if err != nil || perr != nil || n <= 0 {
		return 512 << 20
	}
	return 4 * n * unit
}

// BenchmarkGemvStream streams the six width-1 GEMV micro-kernels over a
// set of 128×128 blocks too large for the cache (streamSetBytes), as a
// width-1 replay of a large operator meets them: each block is read once
// per pass, from DRAM. Every row runs through a public entry point —
// GemvMixed for f32, Gemv for f64, transposed in the T rows, and in the P
// rows the pair entries GemmMixedPair and GemmConstPair at width 1, which
// produce the forward and the transposed product from one read of each
// block — on one goroutine (g1) or two (g2), each streaming its half of
// the set. The read
// rows time a plain AVX2 read of the same bytes (readStream; a Go loop
// where the kernels are unavailable), the ceiling of a memory-bound
// kernel. Each row reports GB/s of block bytes and, when the read rows
// ran, of-read: its share of the read row with as many goroutines.
func BenchmarkGemvStream(b *testing.B) {
	const dim = 128
	words := streamSetBytes() / 8
	set := make([]float64, words-words%(dim*dim))
	if uintptr(unsafe.Pointer(unsafe.SliceData(set)))%4 != 0 {
		b.Fatal("block set is misaligned for a float32 view")
	}
	set32 := unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(set))), 2*len(set))
	rng := rand.New(rand.NewSource(1))
	src := GaussianMatrix(rng, dim, dim)
	// fill writes normal values of one precision into every block (and so
	// touches every page before a timed pass): no kernel load meets a
	// denormal or NaN bit pattern left by the other view.
	filled := ""
	fill := func(prec string) {
		if prec == "f32" {
			blk := ToMatrix32(src).Data
			for o := 0; o < len(set32); o += len(blk) {
				copy(set32[o:], blk)
			}
		} else {
			for o := 0; o < len(set); o += len(src.Data) {
				copy(set[o:], src.Data)
			}
		}
		filled = prec
	}
	fill("f64")
	gbps := func(d time.Duration, passes int) float64 {
		return float64(8*len(set)) * float64(passes) / d.Seconds() / 1e9
	}
	// pass streams fn over the set's blocks of the given element count on
	// g goroutines, each taking a contiguous half.
	pass := func(g, blocks int, fn func(blk, worker int)) {
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for blk := w * blocks / g; blk < (w+1)*blocks/g; blk++ {
					fn(blk, w)
				}
			}()
		}
		wg.Wait()
	}
	read := func(g int) {
		pass(g, len(set)/(dim*dim), func(blk, w int) {
			a := set[blk*dim*dim : (blk+1)*dim*dim]
			if haveFMAKernel {
				readStream(8*len(a), (*byte)(unsafe.Pointer(&a[0])))
				return
			}
			for _, v := range a {
				streamSink[w] += v
			}
		})
	}
	ceiling := map[int]float64{}
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("read/g%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				read(g)
			}
			ceiling[g] = gbps(b.Elapsed(), b.N)
			b.ReportMetric(ceiling[g], "GB/s")
		})
	}
	x := make([][]float64, 2)
	y := make([][]float64, 2)
	var X, Y, T [2]*Matrix // one-column views of x and y, and the P rows' Aᵀ·x
	for w := range x {
		x[w], y[w] = make([]float64, dim), make([]float64, dim)
		for i := range x[w] {
			x[w][i] = rng.NormFloat64()
		}
		X[w], Y[w], T[w] = FromColumnMajor(dim, 1, x[w]), FromColumnMajor(dim, 1, y[w]), NewMatrix(dim, 1)
	}
	for _, row := range []struct {
		name string
		fn   func(blk, w int)
	}{
		{"f64", func(blk, w int) {
			Gemv(false, 1, FromColumnMajor(dim, dim, set[blk*dim*dim:]), x[w], 1, y[w])
		}},
		{"f64T", func(blk, w int) {
			Gemv(true, 1, FromColumnMajor(dim, dim, set[blk*dim*dim:]), x[w], 0, y[w])
		}},
		{"f32", func(blk, w int) {
			GemvMixed(false, 1, FromColumnMajor32(dim, dim, set32[blk*dim*dim:]), x[w], 1, y[w])
		}},
		{"f32T", func(blk, w int) {
			GemvMixed(true, 1, FromColumnMajor32(dim, dim, set32[blk*dim*dim:]), x[w], 0, y[w])
		}},
		{"f64P", func(blk, w int) {
			GemmConstPair(FromColumnMajor(dim, dim, set[blk*dim*dim:]), X[w], 1, Y[w], X[w], T[w])
		}},
		{"f32P", func(blk, w int) {
			GemmMixedPair(FromColumnMajor32(dim, dim, set32[blk*dim*dim:]), X[w], 1, Y[w], X[w], T[w])
		}},
	} {
		prec := row.name[:3]
		blocks := len(set) / (dim * dim)
		if prec == "f32" {
			blocks *= 2
		}
		for _, g := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/g%d", row.name, g), func(b *testing.B) {
				if filled != prec {
					fill(prec)
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					pass(g, blocks, row.fn)
				}
				r := gbps(b.Elapsed(), b.N)
				b.ReportMetric(r, "GB/s")
				if c := ceiling[g]; c > 0 {
					b.ReportMetric(r/c, "of-read")
				}
			})
		}
	}
}

// streamSink keeps the portable read's sums live, one slot per goroutine.
var streamSink [2]float64
