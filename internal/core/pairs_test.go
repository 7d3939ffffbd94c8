package core

import (
	"context"
	"encoding/binary"
	"fmt"
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
				want += int64(len(nd.skel)+len(nd.pos)+len(nd.near)+len(nd.far)) * 8
				if rows, cols := nd.coef.dims(); nd.coef.ok() {
					want += prec * int64(rows) * int64(cols)
					if cfg.CacheSingle != (nd.coef.m32 != nil) {
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

// TestStoreV4RoundTrip: a float64-cached, float32-cached and NoSymmetrize
// operator, each saved once cached but uncompiled and once compiled,
// reload through SaveTo → LoadFrom, mapped and portable, compiled to the
// compiled operator's plan digest and replaying it bit for bit at r = 1
// and r = 16.
func TestStoreV4RoundTrip(t *testing.T) {
	for _, v := range pairVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := pairsConfig()
			v.mut(&cfg)
			h, _ := compressGauss(t, 384, cfg)
			dir := t.TempDir()
			cached := filepath.Join(dir, "cached.store")
			if _, err := h.SaveTo(cached); err != nil {
				t.Fatal(err)
			}
			if _, err := h.CompilePlan(); err != nil {
				t.Fatal(err)
			}
			compiled := filepath.Join(dir, "compiled.store")
			if _, err := h.SaveTo(compiled); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			ctx := context.Background()
			for _, path := range []string{cached, compiled} {
				for _, mm := range []bool{false, true} {
					name := fmt.Sprintf("%s mmap=%v", filepath.Base(path), mm)
					h2, info, err := LoadFrom(path, LoadOptions{Mmap: mm})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					switch {
					case h2.Plan() == nil:
						t.Fatalf("%s: loaded uncompiled", name)
					case h2.Plan().DigestHex() != h.Plan().DigestHex():
						t.Fatalf("%s: digest %s, want %s", name, h2.Plan().DigestHex(), h.Plan().DigestHex())
					case !mm && info.Mapped:
						t.Fatalf("%s: the portable load reports a mapping", name)
					case mm && !info.Mapped:
						t.Logf("%s: mmap load fell back to the portable path on this platform", name)
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
							t.Fatalf("%s r=%d: replay not bit-identical (max |Δ| = %g)", name, r, maxAbsDiff(want, got))
						}
					}
					if err := h2.ReleaseStore(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// topoNode holds the byte offsets of one node's fields in a topo payload:
// its skeleton entries, its T ref, and its near and far ref entries (nil
// for an absent list).
type topoNode struct {
	skel []int
	coef int
	refs [2][]int
}

// topoNodes walks a topo payload and returns every node's field offsets.
func topoNodes(t testing.TB, topo []byte) []topoNode {
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
	out := make([]topoNode, next())
	for id := range out {
		for k := next(); k > 0; k-- {
			out[id].skel = append(out[id].skel, off)
			off += 8
		}
		out[id].coef = off
		off += 8
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
				out[id].refs[i] = append(out[id].refs[i], off)
				off += 8
			}
		}
	}
	if off != len(topo) {
		t.Fatalf("topo walk ended at %d of %d bytes", off, len(topo))
	}
	return out
}

// TestStoreV3RejectsOldAndMisownedPayloads: a payload of an older version
// (4, which pinned the plan digest, 3, whose bases held their identity
// columns, 2 or 1), a ref list that stores a block its partner owns and a
// ref list that omits a block its node owns each fail with ErrBadFormat.
func TestStoreV3RejectsOldAndMisownedPayloads(t *testing.T) {
	f := newPayloadFixture(t, payloadConfig, false)
	for _, v := range []uint64{1, 2, 3, 4} {
		f.requireBadPayload(t, fmt.Sprintf("v%d payload", v), store.SecMeta, patch64(f.meta, 0, v))
	}

	var partner, owned int
	for _, node := range topoNodes(t, f.topo) {
		for _, offs := range node.refs {
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

// TestStoreRejectsBadBases: the loader derives each basis's column order
// from its skeleton, so a skeleton index outside the node's candidates, a
// repeated skeleton index, a T block that is not s×(c−s) and a missing T
// each fail with ErrBadFormat. The cases edit node 1, a child of the root: no other
// node's candidates hold its skeleton, so only its own check can fire.
func TestStoreRejectsBadBases(t *testing.T) {
	f := newPayloadFixture(t, payloadConfig, false)
	nd := &f.h.nodes[1]
	node := topoNodes(t, f.topo)[1]
	if f.h.Tree.IsLeaf(1) || len(nd.skel) < 2 || !nd.coef.ok() {
		t.Fatal("fixture's node 1 is not an interior node with rank ≥ 2 and a T block")
	}
	// An index of the right half of the tree, which node 1 does not hold.
	outside := f.h.Tree.Perm[f.h.Tree.Nodes[2].Lo]
	rec := int(binary.LittleEndian.Uint64(f.topo[node.coef:]))
	colsOff := 8 + 32*rec + 16 // the cols field of node 1's T record
	rows, cols := nd.coef.dims()
	if got := binary.LittleEndian.Uint64(f.topo[colsOff:]); got != uint64(cols) || rows != len(nd.skel) {
		t.Fatalf("node 1's T record reads %d columns, want %d", got, cols)
	}
	for _, c := range []struct {
		name, msg string
		off       int
		v         uint64
	}{
		{"skeleton index outside the candidates", "outside the node's candidates", node.skel[0], uint64(outside)},
		{"repeated skeleton index", "repeats", node.skel[1], uint64(nd.skel[0])},
		{"mis-shaped T", "interpolation block", colsOff, uint64(cols - 1)},
		{"missing T", "interpolation block", node.coef, math.MaxUint64},
	} {
		err := f.requireBadPayload(t, c.name, store.SecTopo, patch64(f.topo, c.off, c.v))
		if err != nil && !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: got %v, want the basis check", c.name, err)
		}
	}
}
