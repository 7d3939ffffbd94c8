package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gofmm/internal/linalg"
	"gofmm/internal/plan"
	"gofmm/internal/resilience"
	"gofmm/internal/store"
)

// Saving a compressed operator into the on-disk store (gofmm.store/v1),
// the one persisted form of an operator. The store packs every constant
// matrix — interpolation bases, cached near/far blocks in both precisions,
// and the compiled plan's gathered operands — into one contiguous
// 64-byte-aligned arena per precision, addressed by a flat table of
// (precision, rows, cols, offset) records. A loader can therefore map the
// file and bind matrix headers directly over the mapping: zero copies, no
// pointer fixups, first matvec bounded by page-cache faults rather than by
// decompression.

// storeAlign64 rounds n up to the store's 64-byte arena alignment.
func storeAlign64(n int64) int64 {
	return (n + store.Align - 1) &^ (store.Align - 1)
}

// matTable assigns every distinct constant matrix a record in the arena of
// its precision. Deduplication is by pointer: the compiled plan references
// the same cached blocks the nodes hold, and aliased operands must stay
// aliased after a round trip (one arena slot, many refs).
type matTable struct {
	recs  []matRec
	src64 []*linalg.Matrix   // parallel to recs; nil for f32 records
	src32 []*linalg.Matrix32 // parallel to recs; nil for f64 records
	idx64 map[*linalg.Matrix]int
	idx32 map[*linalg.Matrix32]int
	// Bytes used so far in each precision's arena.
	size64, size32 int64
}

func newMatTable() *matTable {
	return &matTable{
		idx64: make(map[*linalg.Matrix]int),
		idx32: make(map[*linalg.Matrix32]int),
	}
}

// ref64 returns the table index of m, adding a record on first sight.
// A nil matrix encodes as -1.
func (mt *matTable) ref64(m *linalg.Matrix) int64 {
	if m == nil {
		return -1
	}
	if i, ok := mt.idx64[m]; ok {
		return int64(i)
	}
	off := storeAlign64(mt.size64)
	mt.size64 = off + int64(m.Rows)*int64(m.Cols)*8
	i := len(mt.recs)
	mt.recs = append(mt.recs, matRec{prec: 8, rows: int64(m.Rows), cols: int64(m.Cols), off: off})
	mt.src64 = append(mt.src64, m)
	mt.src32 = append(mt.src32, nil)
	mt.idx64[m] = i
	return int64(i)
}

// ref32 is ref64 for single-precision matrices.
func (mt *matTable) ref32(m *linalg.Matrix32) int64 {
	if m == nil {
		return -1
	}
	if i, ok := mt.idx32[m]; ok {
		return int64(i)
	}
	off := storeAlign64(mt.size32)
	mt.size32 = off + int64(m.Rows)*int64(m.Cols)*4
	i := len(mt.recs)
	mt.recs = append(mt.recs, matRec{prec: 4, rows: int64(m.Rows), cols: int64(m.Cols), off: off})
	mt.src64 = append(mt.src64, nil)
	mt.src32 = append(mt.src32, m)
	mt.idx32[m] = i
	return int64(i)
}

// pack materializes the two arenas: little-endian column-major float data at
// each record's offset, zero padding in the alignment gaps.
func (mt *matTable) pack() (arena64, arena32 []byte) {
	arena64 = make([]byte, mt.size64)
	arena32 = make([]byte, mt.size32)
	for i, rec := range mt.recs {
		if m := mt.src64[i]; m != nil {
			out := arena64[rec.off:]
			k := 0
			for j := 0; j < m.Cols; j++ {
				for _, v := range m.Col(j) {
					binary.LittleEndian.PutUint64(out[k*8:], math.Float64bits(v))
					k++
				}
			}
		}
		if m := mt.src32[i]; m != nil {
			out := arena32[rec.off:]
			k := 0
			for j := 0; j < m.Cols; j++ {
				for _, v := range m.Col(j) {
					binary.LittleEndian.PutUint32(out[k*4:], math.Float32bits(v))
					k++
				}
			}
		}
	}
	return arena64, arena32
}

// sameIndexSlice reports whether a and b are the same backing slice (the
// compiled plan's gather/scatter index lists alias Tree.Perm/IPerm; the
// store records the aliasing instead of the list).
func sameIndexSlice(a, b []int) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// Index-list selectors for plan gather/scatter ops.
const (
	idxNone   = 0 // no index list
	idxPerm   = 1 // Tree.Perm
	idxIPerm  = 2 // Tree.IPerm
	idxInline = 3 // stored inline
)

// storeSections encodes the representation into the store's section set.
func (h *Hierarchical) storeSections() ([]store.Section, error) {
	if h.Tree == nil || len(h.nodes) == 0 {
		return nil, fmt.Errorf("%w: cannot save an uncompressed operator", resilience.ErrInvalidInput)
	}
	n := h.K.Dim()
	mt := newMatTable()

	// Walk nodes in id order so arena layout is deterministic: proj first,
	// then each cache list in near/far order, float64 before float32.
	type nodeRefs struct {
		proj                             int64
		near64, far64, near32f, far32f   []int64
		hasN64, hasF64, hasN32f, hasF32f bool
	}
	refs := make([]nodeRefs, len(h.nodes))
	for id := range h.nodes {
		nd := &h.nodes[id]
		r := &refs[id]
		r.proj = mt.ref64(nd.proj)
		if nd.cacheNear != nil {
			r.hasN64 = true
			for _, m := range nd.cacheNear {
				r.near64 = append(r.near64, mt.ref64(m))
			}
		}
		if nd.cacheFar != nil {
			r.hasF64 = true
			for _, m := range nd.cacheFar {
				r.far64 = append(r.far64, mt.ref64(m))
			}
		}
		if nd.cacheNear32 != nil {
			r.hasN32f = true
			for _, m := range nd.cacheNear32 {
				r.near32f = append(r.near32f, mt.ref32(m))
			}
		}
		if nd.cacheFar32 != nil {
			r.hasF32f = true
			for _, m := range nd.cacheFar32 {
				r.far32f = append(r.far32f, mt.ref32(m))
			}
		}
	}

	// Plan constants after node matrices (compile-time gathered operands that
	// never lived on a node get their slots here; shared ones dedupe away).
	p := h.evalPlan.Load()
	var opARefs, opA32Refs []int64
	if p != nil {
		for _, op := range p.Ops() {
			opARefs = append(opARefs, mt.ref64(op.A))
			opA32Refs = append(opA32Refs, mt.ref32(op.A32))
		}
	}

	// meta section.
	var meta secWriter
	c := h.Cfg
	meta.i64(storePayloadVersion)
	meta.i64(int64(n))
	meta.i64(int64(c.LeafSize))
	meta.i64(int64(c.MaxRank))
	meta.i64(int64(c.Kappa))
	meta.i64(int64(c.SampleRows))
	meta.i64(c.Seed)
	meta.i64(int64(c.Distance))
	meta.f64(c.Tol)
	meta.f64(c.Budget)
	meta.boolean(c.CacheBlocks)
	meta.boolean(c.CacheSingle)

	// topo section: matrix table, permutation, per-node lists and refs.
	var topo secWriter
	topo.i64(int64(len(mt.recs)))
	for _, rec := range mt.recs {
		topo.i64(rec.prec)
		topo.i64(rec.rows)
		topo.i64(rec.cols)
		topo.i64(rec.off)
	}
	topo.ints(h.Tree.Perm)
	topo.i64(int64(len(h.nodes)))
	writeRefList := func(has bool, list []int64) {
		topo.boolean(has)
		if has {
			for _, v := range list {
				topo.i64(v)
			}
		}
	}
	for id := range h.nodes {
		nd := &h.nodes[id]
		r := &refs[id]
		topo.ints(nd.skel)
		topo.i64(r.proj)
		topo.ints(nd.near)
		topo.ints(nd.far)
		topo.boolean(nd.denseFallback)
		writeRefList(r.hasN64, r.near64)
		writeRefList(r.hasF64, r.far64)
		writeRefList(r.hasN32f, r.near32f)
		writeRefList(r.hasF32f, r.far32f)
	}

	// plan section: op stream, stage schedule, digest.
	var ps secWriter
	ps.boolean(p != nil)
	if p != nil {
		ps.i64(int64(p.N()))
		ps.i64(int64(p.ArenaRows()))
		ops := p.Ops()
		ps.i64(int64(len(ops)))
		writeRef := func(f plan.Ref) {
			ps.i64(int64(f.Base))
			ps.i64(int64(f.Sub))
			ps.i64(int64(f.Rows))
			ps.i64(int64(f.Span))
		}
		for i, op := range ops {
			ps.i64(int64(op.Kind))
			ps.boolean(op.TransA)
			ps.f64(op.Beta)
			ps.i64(opARefs[i])
			ps.i64(opA32Refs[i])
			writeRef(op.B)
			writeRef(op.C)
			switch {
			case len(op.Idx) == 0:
				ps.i64(idxNone)
			case sameIndexSlice(op.Idx, h.Tree.Perm):
				ps.i64(idxPerm)
			case sameIndexSlice(op.Idx, h.Tree.IPerm):
				ps.i64(idxIPerm)
			default:
				ps.i64(idxInline)
				ps.ints(op.Idx)
			}
		}
		specs := p.StageSpecs()
		ps.i64(int64(len(specs)))
		for _, s := range specs {
			ps.blob([]byte(s.Name))
			ps.boolean(s.Parallel)
			ps.i64(int64(len(s.Tasks)))
			for _, t := range s.Tasks {
				ps.i64(int64(t[0]))
				ps.i64(int64(t[1]))
			}
		}
		d := p.Digest()
		ps.blob(d[:])
	}

	arena64, arena32 := mt.pack()
	return []store.Section{
		{Kind: store.SecMeta, Data: meta.b},
		{Kind: store.SecTopo, Data: topo.b},
		{Kind: store.SecPlan, Data: ps.b},
		{Kind: store.SecArena64, Data: arena64},
		{Kind: store.SecArena32, Data: arena32},
	}, nil
}

// WriteStore writes the operator in store format (gofmm.store/v1) to w:
// the compressed representation, both cache precisions and the installed
// compiled plan, but not the entry oracle. ReadStore reads it back from a
// stream; SaveTo/LoadFrom add atomic files and the zero-copy mmap load.
func (h *Hierarchical) WriteStore(w io.Writer) (int64, error) {
	sections, err := h.storeSections()
	if err != nil {
		return 0, err
	}
	return store.Write(w, sections)
}

// SaveTo atomically writes the operator to path in store format and returns
// the file size. See WriteStore for the format and LoadFrom for loading.
func (h *Hierarchical) SaveTo(path string) (int64, error) {
	sections, err := h.storeSections()
	if err != nil {
		return 0, err
	}
	return store.WriteFile(path, sections)
}
