package linalg

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"testing"
)

// expInputs returns the conformance inputs of ExpInPlace: signed zeros, the
// kernel's range bounds and their neighbours, the subnormal and overflow
// ramps on both sides of the range, NaNs with payloads, infinities, groups
// of four with exactly one lane out of range at each position, and a sweep
// of in-range values large enough that one unfused rounding in the port
// shows.
func expInputs() []float64 {
	in := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000abcdef),
		math.Float64frombits(0x7ff0000000000001)}
	for _, b := range []float64{700, -700} {
		in = append(in, b, math.Nextafter(b, 0), math.Nextafter(b, 2*b))
	}
	for x := -746.0; x <= -700; x += 1.0 / 64 {
		in = append(in, x)
	}
	for x := 700.0; x <= 710; x += 1.0 / 256 {
		in = append(in, x)
	}
	in = append(in, 709.782712893384, math.Nextafter(709.782712893384, 710), -745.1332191019411, -745.1332191019412)
	for lane := 0; lane < 4; lane++ {
		for _, bad := range []float64{700.5, -700.5, math.NaN(), math.Inf(-1)} {
			g := []float64{-1.25, 0.5, 3, -40}
			g[lane] = bad
			in = append(in, g...)
		}
	}
	for len(in)%4 != 0 {
		in = append(in, 1)
	}
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 1<<22; i++ {
		switch i % 4 {
		case 0:
			in = append(in, (2*rng.Float64()-1)*700)
		case 1:
			in = append(in, (2*rng.Float64()-1)*30)
		case 2:
			in = append(in, -rng.ExpFloat64()*4) // Gaussian-kernel arguments
		default:
			in = append(in, (2*rng.Float64()-1)*math.Ldexp(1, -rng.Intn(60)))
		}
	}
	return in
}

func checkExpBits(t *testing.T, label string, in, got []float64) {
	t.Helper()
	bad := 0
	for i, x := range in {
		if w := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(w) {
			if bad < 5 {
				t.Errorf("%s: exp(%v) [bits %#x] = %v [bits %#x], math.Exp gives %v [bits %#x]",
					label, x, math.Float64bits(x), got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d of %d results differ from math.Exp", label, bad, len(in))
	}
}

// TestExpInPlaceMatchesMath holds ExpInPlace to math.Exp bit for bit, over
// the whole input set at once and at every length from 0 to 9.
//
// The kernel must also be on exactly where it can be: an init self-check
// that turns off a broken port would otherwise hide it from this test.
// math.Exp rounds the first self-check probe to these bits only in its FMA
// branch.
func TestExpInPlaceMatchesMath(t *testing.T) {
	mathFMA := math.Float64bits(math.Exp(-27.809604107232428)) == 0x3d6d6e1d12e97691
	switch {
	case os.Getenv("GOFMM_EXP_NOFMA_CHILD") == "1" && mathFMA:
		t.Fatal("GODEBUG=cpu.fma=off left math.Exp on its FMA branch")
	case expKernelOK && !mathFMA:
		t.Fatal("exp kernel enabled although math.Exp takes its non-FMA branch")
	case haveFMAKernel && mathFMA && !expKernelOK:
		t.Fatal("exp kernel disabled by its self-check although math.Exp takes its FMA branch")
	}
	t.Logf("exp kernel enabled: %v", expKernelOK)
	in := expInputs()
	got := append([]float64(nil), in...)
	ExpInPlace(got)
	checkExpBits(t, "sweep", in, got)
	for n := 0; n <= 9; n++ {
		for off := 0; off+n <= 64; off += 7 {
			x := append([]float64(nil), in[off:off+n]...)
			ExpInPlace(x)
			checkExpBits(t, "short", in[off:off+n], x)
		}
	}
}

// TestExpInPlaceWithoutFMA reruns the conformance test where math.Exp
// takes its non-FMA branch. The kernel copies only the FMA branch, so its
// init self-check must turn it off there, leaving the scalar loop.
func TestExpInPlaceWithoutFMA(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("cpu.fma is an amd64 GODEBUG option")
	}
	if os.Getenv("GOFMM_EXP_NOFMA_CHILD") == "1" {
		t.Skip("already the child")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpInPlaceMatchesMath$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off", "GOFMM_EXP_NOFMA_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("conformance test under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// FuzzExp: ExpInPlace gives math.Exp's bits for any five inputs, which
// makes one group of four plus a scalar tail.
func FuzzExp(f *testing.F) {
	f.Add(0.0, -1.5, 700.0, -700.0, 3.25)
	f.Add(-27.809604107232428, -22.67470522474793, -0.8682792236156638, 709.8, -746.0)
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-300)
	f.Add(-0.001, -12.0, -300.5, 699.999, 700.0000000000001)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		in := []float64{a, b, c, d, e}
		got := append([]float64(nil), in...)
		ExpInPlace(got)
		checkExpBits(t, "fuzz", in, got)
	})
}

func BenchmarkExpInPlace(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	src := make([]float64, 4096)
	for i := range src {
		src[i] = -rng.ExpFloat64() * 4
	}
	x := make([]float64, len(src))
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, src)
			ExpInPlace(x)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
	})
	b.Run("math", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, src)
			for j, v := range x {
				x[j] = math.Exp(v)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
	})
}
