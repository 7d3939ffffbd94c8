package metric

import (
	"math"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/spdmat"
)

// columnGram is denseGram with the optional column read.
type columnGram struct{ denseGram }

func (c columnGram) Column(I []int, j int, dst []float64) {
	for r, i := range I {
		dst[r] = c.M.At(i, j)
	}
}

// atGram hides an oracle's column read.
type atGram struct{ g Gram }

func (a atGram) Dim() int            { return a.g.Dim() }
func (a atGram) At(i, j int) float64 { return a.g.At(i, j) }

// refDistsToCentroid is each Gram space's centroid distance written with
// one At call per entry, in loop order: the reference the column reads
// must match bit for bit.
func refDistsToCentroid(name string, K Gram, idx, sample []int, out []float64) {
	nc := float64(len(sample))
	var cnorm2 float64
	for _, a := range sample {
		for _, b := range sample {
			cnorm2 += K.At(a, b)
		}
	}
	cnorm2 /= nc * nc
	for k, i := range idx {
		sum := 0.0
		for _, sj := range sample {
			sum += K.At(i, sj)
		}
		if name == "kernel" {
			out[k] = K.At(i, i) - 2/nc*sum
			continue
		}
		dot := sum / nc
		den := K.At(i, i) * cnorm2
		if den <= 0 {
			out[k] = 1
			continue
		}
		out[k] = 1 - dot*dot/den
	}
}

// Both Gram spaces give the same bits through an oracle with a column read
// and through one that hides it, and the centroid distances equal their
// per-entry loops. The dense oracle zeroes some diagonal entries, so the
// angle space takes its den ≤ 0 branch.
func TestGramSpacesSameBitsWithColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	X := linalg.GaussianMatrix(rng, 6, 150)
	M := linalg.RandomSPD(rng, 150, 12)
	for _, i := range []int{3, 40, 41} {
		for j := 0; j < 150; j++ {
			M.Set(i, j, 0)
			M.Set(j, i, 0)
		}
	}
	oracles := map[string]Gram{
		"gauss": spdmat.NewKernel(X, spdmat.Gauss, 1.1, 1e-7),
		"dense": columnGram{denseGram{M}},
	}
	builds := []func(Gram) Space{
		func(g Gram) Space { return NewKernelSpace(g) },
		func(g Gram) Space { return NewAngleSpace(g) },
	}
	idx := append(rng.Perm(150)[:90], 3, 40, 7, 7)
	sample := []int{5, 40, 5, 3, 99, 12, 60}
	for oname, g := range oracles {
		if _, ok := g.(Columns); !ok {
			t.Fatalf("%s oracle has no column read", oname)
		}
		for _, build := range builds {
			withCol, without := build(g), build(atGram{g})
			name := withCol.Name()
			a := make([]float64, len(idx))
			b := make([]float64, len(idx))
			ref := make([]float64, len(idx))
			for _, j := range []int{7, 3, 149} {
				withCol.DistsTo(idx, j, a)
				without.DistsTo(idx, j, b)
				sameBits(t, oname+"/"+name+" DistsTo", a, b)
				for k, i := range idx {
					ref[k] = withCol.Dist(i, j)
				}
				sameBits(t, oname+"/"+name+" DistsTo vs Dist", a, ref)
			}
			withCol.DistsToCentroid(idx, sample, a)
			without.DistsToCentroid(idx, sample, b)
			refDistsToCentroid(name, g, idx, sample, ref)
			sameBits(t, oname+"/"+name+" DistsToCentroid", a, b)
			sameBits(t, oname+"/"+name+" DistsToCentroid vs loop", a, ref)
		}
	}
}

func sameBits(t *testing.T, label string, a, b []float64) {
	t.Helper()
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			t.Fatalf("%s: element %d is %v, want %v", label, k, a[k], b[k])
		}
	}
}
