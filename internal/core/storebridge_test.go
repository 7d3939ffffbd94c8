package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/store"
)

// The store round-trip property: across distances, tolerance regimes and
// cache precisions, SaveTo → LoadFrom (both the portable and the mmap path)
// reproduces the in-memory operator bit for bit — identical Matvec and
// Matmat results, identical plan digest of the plan the load lowers — with
// no oracle attached to the loaded side. The uncached HSS variant is the
// operator a plan compiled by gathering: the store must carry the blocks
// the plan gathered, so the loaded side lowers, replays and interprets
// oracle-free.
// Its loaded interpreter applies each pair's stored block transposed where
// the in-memory one gathers K(β, α) afresh, so those two agree to rounding,
// and the two loads bit for bit.
func TestStoreRoundTripProperty(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	variants := []variant{
		{"angle-tol2-f64", Config{Distance: Angle, Tol: 1e-2, Budget: 0.1, CacheBlocks: true}},
		{"angle-tol5-f64", Config{Distance: Angle, Tol: 1e-5, Budget: 0.1, CacheBlocks: true}},
		{"kernel-tol2-f32", Config{Distance: Kernel, Tol: 1e-2, Budget: 0.1, CacheBlocks: true, CacheSingle: true}},
		{"kernel-tol5-f32", Config{Distance: Kernel, Tol: 1e-5, Budget: 0.1, CacheBlocks: true, CacheSingle: true}},
		// Fixed-rank regime: tolerance loose enough that MaxRank binds.
		{"angle-fixedrank-f64", Config{Distance: Angle, Tol: 1e-12, MaxRank: 12, Budget: 0.1, CacheBlocks: true}},
		{"kernel-fixedrank-f32", Config{Distance: Kernel, Tol: 1e-12, MaxRank: 12, Budget: 0.1, CacheBlocks: true, CacheSingle: true}},
		{"angle-hss-uncached", Config{Distance: Angle, Tol: 1e-5, Budget: 0, CacheBlocks: false}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg
			cfg.LeafSize = 32
			if cfg.MaxRank == 0 {
				cfg.MaxRank = 24
			}
			cfg.Kappa = 8
			cfg.Exec = Sequential
			cfg.Seed = 42
			h, _ := compressGauss(t, 300, cfg)
			if _, err := h.CompilePlan(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "op.store")
			sz, err := h.SaveTo(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != sz {
				t.Fatalf("SaveTo reported %d bytes, file has %d", sz, st.Size())
			}

			rng := rand.New(rand.NewSource(7))
			W1 := linalg.GaussianMatrix(rng, 300, 1)
			W4 := linalg.GaussianMatrix(rng, 300, 4)
			wantVec := h.Matvec(W1)
			wantMat := h.Matmat(W4)
			wantInterp, err := h.InterpMatvecCtx(context.Background(), W1)
			if err != nil {
				t.Fatal(err)
			}
			wantDigest := h.Plan().DigestHex()
			var loadedInterp *linalg.Matrix

			for _, mm := range []bool{false, true} {
				name := "open"
				if mm {
					name = "mmap"
				}
				h2, _, err := LoadFrom(path, LoadOptions{Mmap: mm})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if h2.HasOracle() {
					t.Fatalf("%s: loaded operator claims an oracle", name)
				}
				if h2.Plan() == nil {
					t.Fatalf("%s: loaded uncompiled", name)
				}
				if a, b := h2.Stats, h.Stats; a.AvgRank != b.AvgRank || a.MaxNear != b.MaxNear ||
					a.DirectFrac != b.DirectFrac || a.DenseFallbacks != b.DenseFallbacks {
					t.Fatalf("%s: loaded structure stats %+v, want %+v", name, a, b)
				}
				if got := h2.Plan().DigestHex(); got != wantDigest {
					t.Fatalf("%s: re-lowered plan digest %q, want %q", name, got, wantDigest)
				}
				gotVec, err := h2.MatvecCtx(context.Background(), W1)
				if err != nil {
					t.Fatalf("%s matvec: %v", name, err)
				}
				if !linalg.EqualApprox(wantVec, gotVec, 0) {
					t.Fatalf("%s: matvec not bit-identical (max |Δ| = %g)", name, maxAbsDiff(wantVec, gotVec))
				}
				gotMat, err := h2.MatmatCtx(context.Background(), W4)
				if err != nil {
					t.Fatalf("%s matmat: %v", name, err)
				}
				if !linalg.EqualApprox(wantMat, gotMat, 0) {
					t.Fatalf("%s: matmat not bit-identical (max |Δ| = %g)", name, maxAbsDiff(wantMat, gotMat))
				}
				// The interpreter path must agree too: the loaded caches are
				// complete, so it runs oracle-free.
				gotInterp, err := h2.InterpMatvecCtx(context.Background(), W1)
				if err != nil {
					t.Fatalf("%s interpret: %v", name, err)
				}
				switch {
				case loadedInterp != nil && !linalg.EqualApprox(loadedInterp, gotInterp, 0):
					t.Fatalf("%s: interpreted matvec differs from the other load's", name)
				case cfg.CacheBlocks && !linalg.EqualApprox(wantInterp, gotInterp, 0):
					t.Fatalf("%s: interpreted matvec differs", name)
				case linalg.RelFrobDiff(wantInterp, gotInterp) > 1e-13:
					t.Fatalf("%s: interpreted matvec differs by %g", name, linalg.RelFrobDiff(wantInterp, gotInterp))
				}
				loadedInterp = gotInterp
				if mm && !h2.StoreMapped() {
					t.Log("mmap load fell back to portable path on this platform")
				}
				if err := h2.ReleaseStore(); err != nil {
					t.Fatalf("%s release: %v", name, err)
				}
			}
		})
	}
}

// A loaded operator without caches for some blocks must refuse evaluation
// with ErrNoOracle rather than panic or fabricate entries.
func TestStoreLoadWithoutCachesNeedsOracle(t *testing.T) {
	h, K := compressGauss(t, 200, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-5, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 9, CacheBlocks: false,
	})
	path := filepath.Join(t.TempDir(), "nocache.store")
	if _, err := h.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	h2, _, err := LoadFrom(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.ReleaseStore()
	if _, err := h2.MatvecCtx(context.Background(), linalg.NewMatrix(200, 1)); !errors.Is(err, ErrNoOracle) {
		t.Fatalf("uncached matvec: got %v, want ErrNoOracle", err)
	}
	if _, err := h2.CompilePlanCtx(context.Background()); !errors.Is(err, ErrNoOracle) {
		t.Fatalf("plan compile: got %v, want ErrNoOracle", err)
	}
	// Attaching the oracle restores evaluation.
	if err := h2.AttachOracle(denseSPD{K}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	W := linalg.GaussianMatrix(rng, 200, 2)
	got, err := h2.MatvecCtx(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(h.Matvec(W), got, 0) {
		t.Fatal("post-attach matvec differs")
	}
}

// storeImage compresses a small operator and returns the image SaveTo
// would write, with the oracle it was compressed from.
func storeImage(t *testing.T, n int, cfg Config) (*Hierarchical, []byte, SPD) {
	t.Helper()
	h, K := compressGauss(t, n, cfg)
	return h, image(t, h), denseSPD{K}
}

// image returns the store image SaveTo would write for h.
func image(t testing.TB, h *Hierarchical) []byte {
	t.Helper()
	sections, err := h.storeSections()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := store.Write(&buf, sections); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readImage decodes a store image as LoadFrom decodes a file, on the
// Sequential executor, and attaches K when it is not nil.
func readImage(data []byte, K SPD) (*Hierarchical, error) {
	f, err := store.Decode(data)
	if err != nil {
		return nil, err
	}
	h, _, err := decodeStore(f, LoadOptions{Exec: Sequential})
	if err != nil {
		return nil, err
	}
	if K != nil {
		if err := h.AttachOracle(K); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// readStoreErr runs readImage on data and requires an error; a panic is
// converted into a test failure rather than crashing the suite.
func readStoreErr(t *testing.T, name string, data []byte, K SPD) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: decode panicked: %v", name, r)
			err = errors.New("panicked")
		}
	}()
	if _, err = readImage(data, K); err == nil {
		t.Errorf("%s: decode accepted a malformed store", name)
	}
	return err
}

// requireSameMatvec checks that two operators produce bit-identical
// products on a fixed random block.
func requireSameMatvec(t *testing.T, want, got *Hierarchical, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	W := linalg.GaussianMatrix(rng, want.N(), 3)
	U1 := want.Matvec(W)
	U2, err := got.MatvecCtx(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(U1, U2, 0) {
		t.Fatalf("round-trip matvec differs (max |Δ| = %g)", maxAbsDiff(U1, U2))
	}
}

// compileSource compiles the saved operator: a cached store loads
// compiled, so the source replays the same plan once it compiles too.
func compileSource(t *testing.T, h *Hierarchical) {
	t.Helper()
	if _, err := h.CompilePlan(); err != nil {
		t.Fatal(err)
	}
}

// A cached operator's image read back with its oracle evaluates
// bit-identically and keeps its structure.
func TestSerializeRoundTrip(t *testing.T) {
	h, data, K := storeImage(t, 300, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-6, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 101, CacheBlocks: true,
	})
	h2, err := readImage(data, K)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.HasOracle() {
		t.Fatal("the load dropped the oracle it was given")
	}
	compileSource(t, h)
	requireSameMatvec(t, h, h2, 102)
	for id := range h.nodes {
		if h.Rank(id) != h2.Rank(id) {
			t.Fatalf("rank mismatch at node %d", id)
		}
		if len(h.NearList(id)) != len(h2.NearList(id)) || len(h.FarList(id)) != len(h2.FarList(id)) {
			t.Fatalf("lists mismatch at node %d", id)
		}
	}
}

// An uncached operator loads uncompiled and needs its oracle back to
// evaluate: with K reattached, the products are bit-identical.
func TestSerializeWithoutCaches(t *testing.T) {
	h, data, K := storeImage(t, 200, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-6, Kappa: 8, Budget: 0.1,
		Distance: Angle, Exec: Sequential, Seed: 103, CacheBlocks: false,
	})
	h2, err := readImage(data, K)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Plan() != nil {
		t.Fatal("a store without blocks loaded compiled")
	}
	requireSameMatvec(t, h, h2, 104)
}

// The store persists fp32 caches as fp32, so a single-precision operator
// round-trips bit for bit.
func TestSerializeWithSingleCache(t *testing.T) {
	h, data, K := storeImage(t, 300, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-7, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 211, CacheBlocks: true,
		CacheSingle: true,
	})
	h2, err := readImage(data, K)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Cfg.CacheSingle {
		t.Fatal("CacheSingle lost in the round trip")
	}
	compileSource(t, h)
	requireSameMatvec(t, h, h2, 212)
}

// A load without an oracle (the serving workflow) must evaluate from the
// cached blocks and type-fail the oracle-requiring paths.
func TestReadFromNilOracle(t *testing.T) {
	h, data, _ := storeImage(t, 200, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-5, Kappa: 8, Budget: 0.1,
		Distance: Angle, Exec: Sequential, Seed: 11, CacheBlocks: true,
	})
	h2, err := readImage(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h2.HasOracle() {
		t.Fatal("nil-oracle load claims an oracle")
	}
	compileSource(t, h)
	requireSameMatvec(t, h, h2, 12)
	if err := h2.AttachOracle(nil); !errors.Is(err, ErrNoOracle) {
		t.Fatalf("AttachOracle(nil): got %v", err)
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	err := readStoreErr(t, "garbage", []byte("not a gofmm file at all"), nil)
	if !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("expected ErrInvalidInput, got %v", err)
	}
}

func TestReadFromTruncated(t *testing.T) {
	_, data, K := storeImage(t, 200, Config{
		LeafSize: 32, Kappa: 8, Budget: 0.1, Distance: Kernel,
		Exec: Sequential, Seed: 108, Tol: 1e-5,
	})
	err := readStoreErr(t, "truncated", data[:len(data)/2], K)
	if !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("expected ErrInvalidInput, got %v", err)
	}
}

func TestReadFromTruncationAtEveryBoundary(t *testing.T) {
	_, data, K := storeImage(t, 96, Config{
		LeafSize: 32, Kappa: 8, Budget: 0.1, Distance: Kernel,
		Exec: Sequential, Seed: 109, Tol: 1e-5,
	})
	// Every prefix through the header and section table, then a stride
	// through the payload.
	for cut := 0; cut < len(data); {
		readStoreErr(t, "truncated", data[:cut], K)
		if cut < 512 {
			cut++
		} else {
			cut += 137
		}
	}
}

// Random byte flips anywhere in a valid image: any outcome except a panic
// is acceptable (flips in alignment padding are not covered by checksums).
func TestReadFromRandomCorruption(t *testing.T) {
	_, data, K := storeImage(t, 96, Config{
		LeafSize: 32, Kappa: 8, Budget: 0.1, Distance: Kernel,
		Exec: Sequential, Seed: 111, Tol: 1e-5,
	})
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: decode panicked on a corrupted store: %v", trial, r)
				}
			}()
			_, _ = readImage(mut, K)
		}()
	}
}

// Byte offsets of the meta section fields (storeSections writes them in
// this order, every field an int64/float64 except the two trailing bools).
const (
	metaN    = 8
	metaLeaf = 16
	metaTol  = 64
)

// payloadFixture holds the decoded sections of a valid store, for tests that
// re-encode the meta and topo payloads with bad values.
type payloadFixture struct {
	h        *Hierarchical
	K        SPD
	sections []store.Section
	meta     []byte
	topo     []byte
	// The topo section opens with the matrix table (a count, then four
	// int64s per record) followed by the length-prefixed permutation.
	topoPermLen int
	topoPerm0   int
}

const payloadN = 96

// payloadConfig is the fixture operator: cached blocks and a sparse
// correction.
var payloadConfig = Config{
	LeafSize: 32, Kappa: 8, Budget: 0.1, Distance: Kernel,
	Exec: Sequential, Seed: 112, Tol: 1e-5, CacheBlocks: true,
}

// newPayloadFixture compresses a payloadN-point operator with cfg,
// compiles its plan when compiled is set, and splits its store sections.
func newPayloadFixture(t *testing.T, cfg Config, compiled bool) payloadFixture {
	t.Helper()
	h, K := compressGauss(t, payloadN, cfg)
	if compiled {
		if _, err := h.CompilePlan(); err != nil {
			t.Fatal(err)
		}
	}
	sections, err := h.storeSections()
	if err != nil {
		t.Fatal(err)
	}
	f := payloadFixture{h: h, K: denseSPD{K}, sections: sections}
	for _, s := range sections {
		switch s.Kind {
		case store.SecMeta:
			f.meta = s.Data
		case store.SecTopo:
			f.topo = s.Data
		}
	}
	numRecs := int(binary.LittleEndian.Uint64(f.topo))
	f.topoPermLen = 8 + 32*numRecs
	f.topoPerm0 = f.topoPermLen + 8
	return f
}

// patch64 returns a copy of src with the 8 bytes at off replaced by v.
func patch64(src []byte, off int, v uint64) []byte {
	out := append([]byte(nil), src...)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// withSection returns a store image of sections with data swapped in for
// the section of the given kind, written with fresh checksums so that only
// the payload parser can reject it.
func withSection(t testing.TB, sections []store.Section, kind store.SectionKind, data []byte) []byte {
	t.Helper()
	mutated := make([]store.Section, len(sections))
	for i, s := range sections {
		if s.Kind == kind {
			s.Data = data
		}
		mutated[i] = s
	}
	var buf bytes.Buffer
	if _, err := store.Write(&buf, mutated); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireBadPayload swaps data in for the section of the given kind,
// rewrites the container with fresh checksums, and requires ErrBadFormat
// without a panic. It returns the error for further checks.
func (f payloadFixture) requireBadPayload(t *testing.T, name string, kind store.SectionKind, data []byte) error {
	t.Helper()
	err := readStoreErr(t, name, withSection(t, f.sections, kind, data), f.K)
	if !errors.Is(err, ErrBadFormat) {
		t.Errorf("%s: got %v, want ErrBadFormat", name, err)
	}
	return err
}

// Out-of-range header fields and permutation lengths or entries in an
// otherwise valid store must fail with ErrBadFormat and never panic.
func TestReadFromAdversarialHeaders(t *testing.T) {
	f := newPayloadFixture(t, payloadConfig, false)
	i64 := func(v int64) uint64 { return uint64(v) }
	cases := []struct {
		name string
		kind store.SectionKind
		data []byte
	}{
		{"payload version", store.SecMeta, patch64(f.meta, 0, 99)},
		{"zero dimension", store.SecMeta, patch64(f.meta, metaN, 0)},
		{"negative dimension", store.SecMeta, patch64(f.meta, metaN, i64(-payloadN))},
		{"huge dimension", store.SecMeta, patch64(f.meta, metaN, 1<<40)},
		{"zero leaf", store.SecMeta, patch64(f.meta, metaLeaf, 0)},
		{"leaf exceeds n", store.SecMeta, patch64(f.meta, metaLeaf, payloadN+1)},
		{"NaN tolerance", store.SecMeta, patch64(f.meta, metaTol, math.Float64bits(math.NaN()))},
		{"Inf tolerance", store.SecMeta, patch64(f.meta, metaTol, math.Float64bits(math.Inf(1)))},
		{"short permutation", store.SecTopo, patch64(f.topo, f.topoPermLen, 3)},
		{"huge permutation", store.SecTopo, patch64(f.topo, f.topoPermLen, 1<<40)},
		{"negative permutation length", store.SecTopo, patch64(f.topo, f.topoPermLen, i64(-2))},
		{"perm entry out of range", store.SecTopo, patch64(f.topo, f.topoPerm0, payloadN)},
		{"negative perm entry", store.SecTopo, patch64(f.topo, f.topoPerm0, i64(-1))},
	}
	for _, tc := range cases {
		f.requireBadPayload(t, tc.name, tc.kind, tc.data)
	}
}

// A permutation whose entries are all in range but repeat one another is
// not a permutation.
func TestReadFromRejectsNonPermutation(t *testing.T) {
	f := newPayloadFixture(t, payloadConfig, false)
	perm0 := binary.LittleEndian.Uint64(f.topo[f.topoPerm0:])
	f.requireBadPayload(t, "duplicate perm entry", store.SecTopo, patch64(f.topo, f.topoPerm0+8, perm0))
}

// A matrix record claiming a 2^30×2^30 block must fail on the bound check
// instead of attempting the allocation. An empty record taller than the
// operator holds no data but is no constant of it either: lowering would
// size the plan arena from its rows.
func TestReadFromHugeMatrixClaim(t *testing.T) {
	f := newPayloadFixture(t, payloadConfig, false)
	f.requireBadPayload(t, "huge matrix record", store.SecTopo,
		patch64(patch64(f.topo, 16, 1<<30), 24, 1<<30))
	f.requireBadPayload(t, "empty matrix record taller than n", store.SecTopo,
		patch64(patch64(f.topo, 16, payloadN+1), 24, 0))
}

// A store carries the blocks of every contributing list, and loads
// compiled, or of none. A topo section with one leaf's ref lists removed
// is neither and fails with ErrBadFormat, not with ErrNoOracle. A store
// that still carries the plan section of payload versions up to 4 fails
// with ErrBadStore.
func TestStoreRejectsPartlyCarriedLists(t *testing.T) {
	f := newPayloadFixture(t, payloadConfig, false)
	leaf := f.h.Tree.Leaves()[0]
	refs := topoNodes(t, f.topo)[leaf].refs
	// The near list holds the leaf itself, so its ref list is present and
	// not empty; the far list's presence byte follows its last ref.
	near := refs[0]
	farFlag := near[len(near)-1] + 8
	topo := append(append(append([]byte(nil), f.topo[:near[0]-1]...), 0, 0),
		f.topo[farFlag+1+8*len(refs[1]):]...)
	err := f.requireBadPayload(t, "one leaf's ref lists removed", store.SecTopo, topo)
	if errors.Is(err, ErrNoOracle) || err != nil && !strings.Contains(err.Error(), "contributing lists") {
		t.Errorf("one leaf's ref lists removed: got %v, want the load rule's ErrBadFormat", err)
	}

	var buf bytes.Buffer
	if _, err := store.Write(&buf, append(f.sections[:len(f.sections):len(f.sections)],
		store.Section{Kind: 3, Data: make([]byte, 1+sha256.Size)})); err != nil {
		t.Fatal(err)
	}
	if err := readStoreErr(t, "plan section", buf.Bytes(), nil); !errors.Is(err, store.ErrBadStore) {
		t.Errorf("plan section: got %v, want ErrBadStore", err)
	}
}

// An oracle of the wrong dimension is rejected as invalid input.
func TestReadFromRejectsWrongDimension(t *testing.T) {
	_, data, _ := storeImage(t, 200, Config{
		LeafSize: 32, Kappa: 8, Budget: 0, Distance: Kernel,
		Exec: Sequential, Seed: 106, Tol: 1e-5,
	})
	rng := rand.New(rand.NewSource(107))
	wrong := linalg.RandomSPD(rng, 50, 10)
	if _, err := readImage(data, denseSPD{wrong}); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("wrong-dimension oracle: got %v, want ErrInvalidInput", err)
	}
}

// The per-node denseFallback degradation flag survives a store round trip;
// it is forced on one node so the field is exercised whether or not this
// problem naturally degrades.
func TestSerializeVersion2RoundTripsDenseFallback(t *testing.T) {
	h, K := compressGauss(t, 128, Config{
		LeafSize: 32, Kappa: 8, Budget: 0.1, Distance: Kernel,
		Exec: Sequential, Seed: 112, Tol: 1e-5,
	})
	h.nodes[1].denseFallback = true
	h2, err := readImage(image(t, h), denseSPD{K})
	if err != nil {
		t.Fatal(err)
	}
	for id := range h.nodes {
		if h.nodes[id].denseFallback != h2.nodes[id].denseFallback {
			t.Fatalf("denseFallback flag lost at node %d", id)
		}
	}
}

// Store files are untrusted input through the core bridge as well: payload
// corruption below the (checksummed) container layer must yield typed
// errors, never panics.
func TestStoreLoadRejectsCorruptPayload(t *testing.T) {
	h, _ := compressGauss(t, 200, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-4, Kappa: 8, Budget: 0.1,
		Distance: Angle, Exec: Sequential, Seed: 13, CacheBlocks: true,
	})
	if _, err := h.CompilePlan(); err != nil {
		t.Fatal(err)
	}
	sections, err := h.storeSections()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Mutate each payload section in turn and rewrite the container (with
	// fresh checksums, so only the core decoder can catch it).
	for _, target := range []store.SectionKind{store.SecMeta, store.SecTopo} {
		for _, cut := range []bool{false, true} {
			mutated := make([]store.Section, len(sections))
			copy(mutated, sections)
			for i, s := range mutated {
				if s.Kind != target {
					continue
				}
				data := append([]byte(nil), s.Data...)
				if cut {
					data = data[:len(data)/2]
				} else if len(data) > 16 {
					data[16] ^= 0xFF
				}
				mutated[i] = store.Section{Kind: s.Kind, Data: data}
			}
			path := filepath.Join(dir, "corrupt.store")
			if _, err := store.WriteFile(path, mutated); err != nil {
				t.Fatal(err)
			}
			if _, _, err := LoadFrom(path, LoadOptions{Mmap: true}); err == nil {
				t.Fatalf("corrupted %v (cut=%v) loaded successfully", target, cut)
			}
		}
	}
	// Dropping the arenas while the topo still references them must fail too.
	var noArena []store.Section
	for _, s := range sections {
		if s.Kind != store.SecArena64 && s.Kind != store.SecArena32 {
			noArena = append(noArena, s)
		}
	}
	path := filepath.Join(dir, "noarena.store")
	if _, err := store.WriteFile(path, noArena); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFrom(path, LoadOptions{}); err == nil {
		t.Fatal("store without arenas loaded successfully")
	}
}

// Saving must refuse an uncompressed operator instead of writing an empty
// container.
func TestSaveToRejectsUncompressed(t *testing.T) {
	h := &Hierarchical{K: noOracle{n: 10}}
	if _, err := h.SaveTo(filepath.Join(t.TempDir(), "x.store")); err == nil {
		t.Fatal("expected error saving uncompressed operator")
	}
}
