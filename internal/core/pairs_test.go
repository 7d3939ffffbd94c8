package core

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/store"
)

// pairsConfig is a small operator with near and far pairs.
func pairsConfig() Config {
	return Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-6, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 17, CacheBlocks: true,
	}
}

// pairVariants are the cached operators of the ownership walls.
var pairVariants = []struct {
	name string
	mut  func(*Config)
}{
	{"f64", func(c *Config) {}},
	{"f32", func(c *Config) { c.CacheSingle = true }},
	{"nosym", func(c *Config) { c.NoSymmetrize = true }},
}

// TestPairsStoredOnce: every unordered near or far pair that any list
// names is stored exactly once, in whichever of its slots the ownership
// rule picks, and CompressedBytes equals a recount from the lists, the
// skeletons and the bases alone.
func TestPairsStoredOnce(t *testing.T) {
	for _, v := range pairVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := pairsConfig()
			v.mut(&cfg)
			h, _ := compressGauss(t, 384, cfg)
			prec := int64(8)
			if cfg.CacheSingle {
				prec = 4
			}
			var want int64
			mirrored := 0
			for _, kind := range []listKind{nearList, farList} {
				stored := map[[2]int]int{}
				named := map[[2]int]bool{}
				for id := range h.nodes {
					lst, cache := h.list(kind, id)
					for k, alpha := range lst {
						key := [2]int{min(id, alpha), max(id, alpha)}
						if !named[key] {
							named[key] = true
							// A pair's block is K(owner, partner): its rows
							// and columns are the two nodes' index sets (or
							// skeletons), whichever node owns it.
							want += prec * int64(h.pairDim(kind, id)) * int64(h.pairDim(kind, alpha))
						}
						if (*cache)[k].ok() {
							stored[key]++
						}
						if _, _, trans := h.slotOwner(kind, id, k); trans {
							mirrored++
						}
					}
				}
				for key := range named {
					if stored[key] != 1 {
						t.Fatalf("kind %d pair %v stored %d times, want once", kind, key, stored[key])
					}
				}
			}
			if !cfg.NoSymmetrize && mirrored == 0 {
				t.Fatal("no mirrored slot: the fixture exercises nothing")
			}
			for id := range h.nodes {
				nd := &h.nodes[id]
				want += int64(len(nd.skel)+len(nd.near)+len(nd.far)) * 8
				if rows, cols := nd.proj.dims(); nd.proj.ok() {
					want += prec * int64(rows) * int64(cols)
					if cfg.CacheSingle != (nd.proj.m32 != nil) {
						t.Fatalf("node %d basis precision does not follow CacheSingle", id)
					}
				}
			}
			want += int64(h.N()) * 16
			if got := h.CompressedBytes(); got != want {
				t.Fatalf("CompressedBytes = %d, recount %d", got, want)
			}
		})
	}
}

// pairDim is a pair block's extent on node id's side: the leaf size for a
// near pair, the skeleton size for a far one.
func (h *Hierarchical) pairDim(kind listKind, id int) int {
	if kind == nearList {
		return h.Tree.Nodes[id].Size()
	}
	return len(h.nodes[id].skel)
}

// TestCachedOperatorSymmetric: with one stored block per pair, a cached
// K̃ is symmetric to rounding: xᵀ(K̃y) and yᵀ(K̃x) agree to 1e-13 relative,
// through the plan at two widths and through the interpreter.
func TestCachedOperatorSymmetric(t *testing.T) {
	const n = 384
	for _, single := range []bool{false, true} {
		cfg := pairsConfig()
		cfg.CacheSingle = single
		h, _ := compressGauss(t, n, cfg)
		rng := rand.New(rand.NewSource(5))
		X := linalg.GaussianMatrix(rng, n, 5)
		check := func(path string, apply func(*linalg.Matrix) (*linalg.Matrix, error)) {
			t.Helper()
			KX, err := apply(X)
			if err != nil {
				t.Fatal(err)
			}
			for a := 0; a < X.Cols; a++ {
				for b := a + 1; b < X.Cols; b++ {
					xy := linalg.Dot(X.Col(a), KX.Col(b))
					yx := linalg.Dot(X.Col(b), KX.Col(a))
					scale := linalg.Nrm2(X.Col(a)) * linalg.Nrm2(KX.Col(b))
					if d := math.Abs(xy - yx); d > 1e-13*scale {
						t.Fatalf("single=%v %s: xᵀK̃y − yᵀK̃x = %g (scale %g)", single, path, d, scale)
					}
				}
			}
		}
		ctx := context.Background()
		check("interpreter", func(W *linalg.Matrix) (*linalg.Matrix, error) { return h.InterpMatmatCtx(ctx, W) })
		if _, err := h.CompilePlan(); err != nil {
			t.Fatal(err)
		}
		check("plan r=5", func(W *linalg.Matrix) (*linalg.Matrix, error) { return h.MatmatCtx(ctx, W) })
		check("plan r=1", func(W *linalg.Matrix) (*linalg.Matrix, error) {
			U := linalg.NewMatrix(n, W.Cols)
			for j := 0; j < W.Cols; j++ {
				u, err := h.MatvecCtx(ctx, linalg.FromColumnMajor(n, 1, W.Col(j)))
				if err != nil {
					return nil, err
				}
				copy(U.Col(j), u.Col(0))
			}
			return U, nil
		})
	}
}

// TestStoreV3RoundTrip: a compiled float64-cached, float32-cached and
// NoSymmetrize operator each reload through SaveTo → LoadFrom, mapped and
// portable, to the same plan digest and bit-identical replays at r = 1
// and r = 16.
func TestStoreV3RoundTrip(t *testing.T) {
	for _, v := range pairVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := pairsConfig()
			v.mut(&cfg)
			h, _ := compressGauss(t, 384, cfg)
			if _, err := h.CompilePlan(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "op.store")
			if _, err := h.SaveTo(path); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			ctx := context.Background()
			for _, mm := range []bool{false, true} {
				h2, info, err := LoadFrom(path, LoadOptions{Mmap: mm})
				if err != nil {
					t.Fatalf("mmap=%v: %v", mm, err)
				}
				if info.PlanDigest != h.Plan().DigestHex() {
					t.Fatalf("mmap=%v: digest %s, want %s", mm, info.PlanDigest, h.Plan().DigestHex())
				}
				for _, r := range []int{1, 16} {
					W := linalg.GaussianMatrix(rng, 384, r)
					want, err := h.MatmatCtx(ctx, W)
					if err != nil {
						t.Fatal(err)
					}
					got, err := h2.MatmatCtx(ctx, W)
					if err != nil {
						t.Fatal(err)
					}
					if !linalg.EqualApprox(want, got, 0) {
						t.Fatalf("mmap=%v r=%d: replay not bit-identical (max |Δ| = %g)", mm, r, maxAbsDiff(want, got))
					}
				}
				if err := h2.ReleaseStore(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// topoRefOffsets walks a topo payload and returns, per node, the byte
// offsets of its near and far ref entries (nil for an absent list).
func topoRefOffsets(t *testing.T, topo []byte) [][2][]int {
	t.Helper()
	off := 0
	next := func() int {
		v := int(int64(binary.LittleEndian.Uint64(topo[off:])))
		off += 8
		return v
	}
	skip := func(size int) {
		count := next()
		off += size * count
	}
	skip(32) // matrix table
	skip(8)  // permutation
	out := make([][2][]int, next())
	for id := range out {
		skip(8)  // skeleton
		off += 8 // basis ref
		nearLen := next()
		off += 8 * nearLen
		farLen := next()
		off += 8 * farLen
		off++ // denseFallback
		for i, count := range []int{nearLen, farLen} {
			present := topo[off] == 1
			off++
			if !present {
				continue
			}
			for k := 0; k < count; k++ {
				out[id][i] = append(out[id][i], off)
				off += 8
			}
		}
	}
	if off != len(topo) {
		t.Fatalf("topo walk ended at %d of %d bytes", off, len(topo))
	}
	return out
}

// TestStoreV3RejectsOldAndMisownedPayloads: a payload of an older version,
// a ref list that stores a block its partner owns and a ref list that
// omits a block its node owns each fail with ErrBadFormat.
func TestStoreV3RejectsOldAndMisownedPayloads(t *testing.T) {
	f := newPayloadFixture(t, payloadConfig, false)
	f.requireBadPayload(t, "v2 payload", store.SecMeta, patch64(f.meta, 0, 2))

	var partner, owned int
	for _, node := range topoRefOffsets(t, f.topo) {
		for _, offs := range node {
			for _, off := range offs {
				if int64(binary.LittleEndian.Uint64(f.topo[off:])) == -1 {
					partner = off
				} else {
					owned = off
				}
			}
		}
	}
	if partner == 0 || owned == 0 {
		t.Fatal("fixture has no partner-owned or no owned slot")
	}
	for _, c := range []struct {
		name, msg string
		off       int
		v         int64
	}{
		{"partner-owned block stored", "partner owns", partner, 0},
		{"owned block omitted", "lacks an owned block", owned, -1},
	} {
		err := f.requireBadPayload(t, c.name, store.SecTopo, patch64(f.topo, c.off, uint64(c.v)))
		if err != nil && !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: got %v, want the ownership check", c.name, err)
		}
	}
}
