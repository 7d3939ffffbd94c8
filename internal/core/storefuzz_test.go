package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/store"
)

// FuzzReadStore mutates one payload section (meta, topo or plan) of a
// compiled store and re-wraps the sections with fresh checksums, so every
// mutation reaches the payload decoder and, through it, the plan lowering
// that a compiled store's load runs on untrusted nodes. The seeds are a
// small operator cached in float64, cached in float32 with float32 bases,
// the same under NoSymmetrize lists, and uncached HSS (Budget 0), whose
// store carries the blocks its plan gathered. ReadStore
// without an oracle must either fail with ErrBadFormat or return an
// operator whose replay and interpreter return without a panic, recovered
// or not.
func FuzzReadStore(f *testing.F) {
	base := Config{
		LeafSize: 16, MaxRank: 12, Tol: 1e-5, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 31,
	}
	f64, f32, nosym, hss := base, base, base, base
	f64.CacheBlocks = true
	f32.CacheBlocks, f32.CacheSingle = true, true
	nosym.CacheBlocks, nosym.CacheSingle, nosym.NoSymmetrize = true, true, true
	hss.Budget = 0
	var images [][]store.Section
	for _, cfg := range []Config{f64, f32, hss, nosym} {
		h, _ := compressGauss(f, 128, cfg)
		if _, err := h.CompilePlan(); err != nil {
			f.Fatal(err)
		}
		sections, err := h.storeSections()
		if err != nil {
			f.Fatal(err)
		}
		images = append(images, sections)
	}
	kinds := []store.SectionKind{store.SecMeta, store.SecTopo, store.SecPlan}
	W := linalg.GaussianMatrix(rand.New(rand.NewSource(32)), 128, 2)

	f.Add(uint8(0), uint8(2), uint8(0), uint32(9), []byte{0x01})    // flip a digest bit
	f.Add(uint8(1), uint8(1), uint8(1), uint32(400), []byte{})      // truncate the topo
	f.Add(uint8(2), uint8(1), uint8(2), uint32(8), []byte{0xff, 7}) // overwrite the matrix table
	f.Add(uint8(2), uint8(0), uint8(2), uint32(0), []byte{1})       // payload version 1
	f.Add(uint8(1), uint8(1), uint8(2), uint32(600), []byte{0xff})  // clobber a float32 ref list
	f.Add(uint8(3), uint8(1), uint8(0), uint32(900), []byte{0x01})  // flip an asymmetric list
	f.Fuzz(func(t *testing.T, image, section, mode uint8, pos uint32, data []byte) {
		sections := images[int(image)%len(images)]
		kind := kinds[int(section)%len(kinds)]
		var orig []byte
		for _, s := range sections {
			if s.Kind == kind {
				orig = s.Data
			}
		}
		mut := append([]byte(nil), orig...)
		at := int(pos % uint32(len(mut)+1))
		switch mode % 3 {
		case 0: // flip bits
			for i, b := range data {
				if at+i < len(mut) {
					mut[at+i] ^= b
				}
			}
		case 1: // truncate
			mut = mut[:at]
		case 2: // overwrite, growing the section if the bytes run past its end
			tail := mut[min(at+len(data), len(mut)):]
			mut = append(append(append([]byte(nil), mut[:at]...), data...), tail...)
		}

		h, err := ReadStore(bytes.NewReader(withSection(t, sections, kind, mut)), nil)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("load failed with %v, want ErrBadFormat", err)
			}
			return
		}
		ctx := context.Background()
		for _, eval := range []func(context.Context, *linalg.Matrix) (*linalg.Matrix, error){
			h.MatvecCtx, h.InterpMatvecCtx,
		} {
			var perr *resilience.PanicError
			if _, err := eval(ctx, W); errors.As(err, &perr) {
				t.Fatalf("loaded operator panicked: %v", perr)
			}
		}
	})
}
