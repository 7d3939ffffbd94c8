package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/store"
)

// Saving a compressed operator into the on-disk store (gofmm.store/v1),
// the one persisted form of an operator. The store packs every constant
// matrix — interpolation bases and cached near/far blocks in both
// precisions — into one contiguous 64-byte-aligned arena per precision,
// addressed by a flat table of (precision, rows, cols, offset) records. A
// loader can therefore map the file and bind matrix headers directly over
// the mapping: zero copies, no pointer fixups, first matvec bounded by
// page-cache faults rather than by decompression. A compiled plan is not
// persisted, only its digest: the loader lowers the decoded operator again
// and checks the digest, so the plan reads exactly the blocks saved here.

// storeAlign64 rounds n up to the store's 64-byte arena alignment.
func storeAlign64(n int64) int64 {
	return (n + store.Align - 1) &^ (store.Align - 1)
}

// matTable assigns every constant matrix a record in the arena of its
// precision.
type matTable struct {
	recs  []matRec
	src64 []*linalg.Matrix   // parallel to recs; nil for f32 records
	src32 []*linalg.Matrix32 // parallel to recs; nil for f64 records
	// Bytes used so far in each precision's arena.
	size64, size32 int64
}

// ref64 returns the table index of a new record for m. A nil matrix
// encodes as -1.
func (mt *matTable) ref64(m *linalg.Matrix) int64 {
	if m == nil {
		return -1
	}
	off := storeAlign64(mt.size64)
	mt.size64 = off + int64(m.Rows)*int64(m.Cols)*8
	mt.recs = append(mt.recs, matRec{prec: 8, rows: int64(m.Rows), cols: int64(m.Cols), off: off})
	mt.src64 = append(mt.src64, m)
	mt.src32 = append(mt.src32, nil)
	return int64(len(mt.recs) - 1)
}

// ref32 is ref64 for single-precision matrices.
func (mt *matTable) ref32(m *linalg.Matrix32) int64 {
	if m == nil {
		return -1
	}
	off := storeAlign64(mt.size32)
	mt.size32 = off + int64(m.Rows)*int64(m.Cols)*4
	mt.recs = append(mt.recs, matRec{prec: 4, rows: int64(m.Rows), cols: int64(m.Cols), off: off})
	mt.src64 = append(mt.src64, nil)
	mt.src32 = append(mt.src32, m)
	return int64(len(mt.recs) - 1)
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

// storeSections encodes the representation into the store's section set.
func (h *Hierarchical) storeSections() ([]store.Section, error) {
	if h.Tree == nil || len(h.nodes) == 0 {
		return nil, fmt.Errorf("%w: cannot save an uncompressed operator", resilience.ErrInvalidInput)
	}
	n := h.K.Dim()
	p := h.evalPlan.Load()
	// A compiled operator must reload oracle-free to the same plan, so it
	// persists every block list its plan reads. Lists the compression did
	// not cache were gathered for the plan alone; gather them again here,
	// in float64 as the plan holds them, into the saved lists only.
	var mt matTable

	// Walk nodes in id order so arena layout is deterministic: proj first,
	// then each cache list in near/far order, float64 before float32.
	refs64 := func(ms []*linalg.Matrix) []int64 {
		if ms == nil {
			return nil
		}
		out := make([]int64, len(ms))
		for k, m := range ms {
			out[k] = mt.ref64(m)
		}
		return out
	}
	refs32 := func(ms []*linalg.Matrix32) []int64 {
		if ms == nil {
			return nil
		}
		out := make([]int64, len(ms))
		for k, m := range ms {
			out[k] = mt.ref32(m)
		}
		return out
	}
	type nodeRefs struct {
		proj int64
		// near64, far64, near32, far32; nil when the node has no such list.
		lists [4][]int64
	}
	refs := make([]nodeRefs, len(h.nodes))
	for id := range h.nodes {
		nd := &h.nodes[id]
		near, far := nd.cacheNear, nd.cacheFar
		if p != nil && h.nearUncached(id) {
			near = make([]*linalg.Matrix, len(nd.near))
			for k, alpha := range nd.near {
				near[k] = h.nearBlock(id, alpha)
			}
		}
		if p != nil && h.farUncached(id) {
			far = make([]*linalg.Matrix, len(nd.far))
			for k, alpha := range nd.far {
				far[k] = h.farBlock(id, alpha)
			}
		}
		refs[id].proj = mt.ref64(nd.proj)
		refs[id].lists = [4][]int64{refs64(near), refs64(far), refs32(nd.cacheNear32), refs32(nd.cacheFar32)}
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
	for id := range h.nodes {
		nd := &h.nodes[id]
		topo.ints(nd.skel)
		topo.i64(refs[id].proj)
		topo.ints(nd.near)
		topo.ints(nd.far)
		topo.boolean(nd.denseFallback)
		for _, list := range refs[id].lists {
			topo.boolean(list != nil)
			for _, v := range list {
				topo.i64(v)
			}
		}
	}

	// plan section: the compiled flag and the plan digest.
	var ps secWriter
	ps.boolean(p != nil)
	if p != nil {
		d := p.Digest()
		ps.b = append(ps.b, d[:]...)
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
