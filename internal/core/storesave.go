package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gofmm/internal/resilience"
	"gofmm/internal/store"
)

// Saving a compressed operator into the on-disk store (gofmm.store/v1),
// the one persisted form of an operator. The store packs every constant
// matrix — interpolation bases and the owned near/far blocks, one per
// symmetric pair, in the precision each is stored in — into one contiguous
// 64-byte-aligned arena per precision,
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
	recs []matRec
	src  []block // parallel to recs
	// Bytes used so far in each precision's arena.
	size64, size32 int64
}

// ref returns the table index of a new record for b in the arena of its
// precision. An absent block encodes as -1.
func (mt *matTable) ref(b block) int64 {
	var prec int64
	var size *int64
	switch {
	case b.m != nil:
		prec, size = 8, &mt.size64
	case b.m32 != nil:
		prec, size = 4, &mt.size32
	default:
		return -1
	}
	rows, cols := b.dims()
	off := storeAlign64(*size)
	*size = off + int64(rows)*int64(cols)*prec
	mt.recs = append(mt.recs, matRec{prec: prec, rows: int64(rows), cols: int64(cols), off: off})
	mt.src = append(mt.src, b)
	return int64(len(mt.recs) - 1)
}

// pack materializes the two arenas: little-endian column-major float data at
// each record's offset, zero padding in the alignment gaps.
func (mt *matTable) pack() (arena64, arena32 []byte) {
	arena64 = make([]byte, mt.size64)
	arena32 = make([]byte, mt.size32)
	for i, rec := range mt.recs {
		if m := mt.src[i].m; m != nil {
			out := arena64[rec.off:]
			k := 0
			for j := 0; j < m.Cols; j++ {
				for _, v := range m.Col(j) {
					binary.LittleEndian.PutUint64(out[k*8:], math.Float64bits(v))
					k++
				}
			}
		}
		if m := mt.src[i].m32; m != nil {
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
	// persists every block its plan reads. Blocks the compression did not
	// cache were gathered for the plan alone; gather the owned ones again
	// here, in float64 as the plan holds them, into the saved lists only.
	var mt matTable

	// Walk nodes in id order so arena layout is deterministic: proj first,
	// then the near and the far list. A list holds one ref per slot: the
	// owned block, or -1 where the partner owns the block (see slotOwner).
	type nodeRefs struct {
		proj int64
		// near, far; nil when the node has no such list.
		lists [2][]int64
	}
	refs := make([]nodeRefs, len(h.nodes))
	for id := range h.nodes {
		refs[id].proj = mt.ref(h.nodes[id].proj)
		for i, kind := range []listKind{nearList, farList} {
			lst, cache := h.list(kind, id)
			blocks := *cache
			if blocks == nil && p != nil && len(lst) > 0 {
				blocks = h.ownedBlocks(kind, id, false)
			}
			if blocks == nil {
				continue
			}
			out := make([]int64, len(blocks))
			for k, blk := range blocks {
				out[k] = mt.ref(blk)
			}
			refs[id].lists[i] = out
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
// the compressed representation, its cached blocks and the installed
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
