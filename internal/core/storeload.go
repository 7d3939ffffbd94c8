package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"gofmm/internal/linalg"
	"gofmm/internal/store"
	"gofmm/internal/telemetry"
	"gofmm/internal/tree"
	"gofmm/internal/workspace"
)

// Loading a compressed operator from the on-disk store. LoadFrom's two
// paths share one validator and one payload parser (decodeStore):
//
//   - With Mmap it maps the file read-only and binds every constant
//     matrix as a column-major view straight into the mapping — zero copies
//     of arena data, first matvec limited by page faults, the mapping held
//     until ReleaseStore. Any mmap failure (unsupported platform, filesystem
//     without mmap, misaligned file) falls back to the portable path.
//   - The portable path reads the file into memory and, when the host can
//     reinterpret little-endian IEEE floats in place, still binds views into
//     that buffer; otherwise (big-endian hosts) it decodes by copy.
//
// In both cases the container is validated section-by-section (magic,
// bounds, alignment, SHA-256 digest trees) by internal/store before a byte of
// payload is parsed, and the payload parser treats its input as untrusted:
// every length is bounded by the bytes actually present, every index is
// range-checked, and the permutation is verified to be a permutation before
// the tree is rebuilt. The store holds no schedule: when it carries the
// blocks of every contributing list, the loader lowers the decoded
// operator with CompilePlan, so the Builder validates the schedule on the
// load path exactly as on the compile path. Malformed payloads yield
// ErrBadFormat, never a panic.

// LoadOptions configures LoadFrom. The zero value is a sequentialish
// portable load: no mmap, Dynamic executor with one worker, no telemetry.
type LoadOptions struct {
	// Mmap requests the zero-copy mapped load. On failure of any kind the
	// load silently falls back to the portable path; StoreInfo.Mapped reports
	// which one served.
	Mmap bool
	// Exec and NumWorkers seed the returned operator's executor config.
	Exec       ExecMode
	NumWorkers int
	// Workspace is Config.Workspace of the loaded operator. It stays only
	// for the benchmark's workspace.hit_frac and goes in the last step of
	// ROADMAP item 11.
	Workspace *workspace.Pool
	// Telemetry attaches the metrics recorder, as in Config.
	Telemetry *telemetry.Recorder
}

// StoreInfo describes how a load was served.
type StoreInfo struct {
	// Mapped is true when the operator evaluates out of a read-only mmap.
	Mapped bool
	// Bytes is the store file size.
	Bytes int64
}

// LoadFrom opens an operator store written by SaveTo and reconstructs the
// operator. The result carries no entry oracle (HasOracle is false). A
// store that carries the blocks of every contributing near and far list,
// as every compiled or cached operator's does, loads with its plan lowered
// and evaluates at once; one that carries none evaluates after
// AttachOracle provides the entries to gather. Paths that must sample
// fresh entries return ErrNoOracle until then. Close the returned
// operator's backing file with ReleaseStore when it leaves service.
func LoadFrom(path string, opts LoadOptions) (*Hierarchical, *StoreInfo, error) {
	var f *store.File
	var err error
	if opts.Mmap {
		f, err = store.OpenMmap(path)
		if err != nil {
			f, err = store.Open(path)
		}
	} else {
		f, err = store.Open(path)
	}
	if err != nil {
		return nil, nil, err
	}
	h, info, err := decodeStore(f, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	opts.Telemetry.Counter("store.loads").Add(1)
	if info.Mapped {
		opts.Telemetry.Counter("store.mmap_hits").Add(1)
	}
	return h, info, nil
}

// arenaFloats64 views (or on big-endian hosts decodes) a float64 arena
// section. copied reports whether the data was copied out of the section.
func arenaFloats64(b []byte) ([]float64, bool, error) {
	if len(b)%8 != 0 {
		return nil, false, fmt.Errorf("%w: f64 arena length %d", ErrBadFormat, len(b))
	}
	if len(b) == 0 {
		return nil, false, nil
	}
	if v, err := store.Float64s(b); err == nil {
		//gofmmlint:ignore mmaplife sanctioned ownership transfer: the caller stores the view behind Hierarchical.backing, which keeps the mapping open until ReleaseStore
		return v, false, nil
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, true, nil
}

// arenaFloats32 is arenaFloats64 for the single-precision arena.
func arenaFloats32(b []byte) ([]float32, bool, error) {
	if len(b)%4 != 0 {
		return nil, false, fmt.Errorf("%w: f32 arena length %d", ErrBadFormat, len(b))
	}
	if len(b) == 0 {
		return nil, false, nil
	}
	if v, err := store.Float32s(b); err == nil {
		//gofmmlint:ignore mmaplife sanctioned ownership transfer: the caller stores the view behind Hierarchical.backing, which keeps the mapping open until ReleaseStore
		return v, false, nil
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, true, nil
}

// increasing reports whether xs is strictly increasing, as every
// interaction list is: ownership looks partners up by binary search.
func increasing(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// basisOrder derives node id's basis column order Π from its skeleton:
// the candidate position of each skeleton index (its row among the leaf's
// indices, or in [l̃; r̃]), then the remaining positions ascending. It
// fails on a skeleton index outside the candidates or repeated, a root
// with a basis, and a stored T that is not s×(c−s), present where no
// column is redundant or missing where one is. where is n-length scratch
// shared across nodes: an interior node writes 1 + the candidate position
// of each index of [l̃; r̃] into it and zeroes them again before returning.
func (h *Hierarchical) basisOrder(id int, where []int) ([]int, error) {
	t := h.Tree
	nd := &h.nodes[id]
	s := len(nd.skel)
	if id == 0 {
		if s > 0 || nd.coef.ok() {
			return nil, fmt.Errorf("the root carries a basis")
		}
		return nil, nil
	}
	var c int
	var at func(x int) (int, bool) // candidate position of index x
	if t.IsLeaf(id) {
		tn := &t.Nodes[id]
		c = tn.Size()
		at = func(x int) (int, bool) {
			p := t.IPerm[x] - tn.Lo
			return p, p >= 0 && p < c
		}
	} else {
		kids := [2][]int{h.nodes[t.Left(id)].skel, h.nodes[t.Right(id)].skel}
		for _, skel := range kids {
			for _, x := range skel {
				c++
				where[x] = c
			}
		}
		defer func() {
			for _, skel := range kids {
				for _, x := range skel {
					where[x] = 0
				}
			}
		}()
		at = func(x int) (int, bool) {
			return where[x] - 1, where[x] > 0
		}
	}
	var pos []int
	if c > 0 {
		pos = make([]int, 0, c)
	}
	taken := make([]bool, c)
	for _, x := range nd.skel {
		p, ok := at(x)
		switch {
		case !ok:
			return nil, fmt.Errorf("skeleton index %d outside the node's candidates", x)
		case taken[p]:
			return nil, fmt.Errorf("skeleton index %d repeats", x)
		}
		taken[p] = true
		pos = append(pos, p)
	}
	for p, in := range taken {
		if !in {
			pos = append(pos, p)
		}
	}
	want := s > 0 && c > s
	if rows, cols := nd.coef.dims(); nd.coef.ok() != want || want && (rows != s || cols != c-s) {
		return nil, fmt.Errorf("interpolation block %d×%d for rank %d of %d candidates", rows, cols, s, c)
	}
	return pos, nil
}

// decodeStore parses a validated store container into an operator.
func decodeStore(f *store.File, opts LoadOptions) (*Hierarchical, *StoreInfo, error) {
	metab, ok := f.Section(store.SecMeta)
	if !ok {
		return nil, nil, fmt.Errorf("%w: store missing meta section", ErrBadFormat)
	}
	topob, ok := f.Section(store.SecTopo)
	if !ok {
		return nil, nil, fmt.Errorf("%w: store missing topo section", ErrBadFormat)
	}
	a64b, _ := f.Section(store.SecArena64)
	a32b, _ := f.Section(store.SecArena32)

	// --- meta ---
	mr := newSecReader("meta", metab)
	if v := mr.i64(); mr.err() == nil && v != storePayloadVersion {
		return nil, nil, fmt.Errorf("%w: store payload version %d (want %d)", ErrBadFormat, v, storePayloadVersion)
	}
	n := mr.dim()
	leaf := mr.dim()
	maxRank := mr.dim()
	kappa := mr.dim()
	sampleRows := mr.dim()
	seed := mr.i64()
	dist := mr.i64()
	tol := mr.f64()
	budget := mr.f64()
	cacheBlocks := mr.boolean()
	cacheSingle := mr.boolean()
	if err := mr.finish(); err != nil {
		return nil, nil, err
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("%w: dimension %d", ErrBadFormat, n)
	}
	if leaf < 1 || leaf > n {
		return nil, nil, fmt.Errorf("%w: leaf size %d for dimension %d", ErrBadFormat, leaf, n)
	}
	if dist < 0 || dist > int64(RandomPerm) {
		return nil, nil, fmt.Errorf("%w: distance %d", ErrBadFormat, dist)
	}
	if math.IsNaN(tol) || math.IsInf(tol, 0) || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, nil, fmt.Errorf("%w: non-finite tolerance or budget", ErrBadFormat)
	}

	// --- arenas ---
	f64, cp64, err := arenaFloats64(a64b)
	if err != nil {
		return nil, nil, err
	}
	f32, cp32, err := arenaFloats32(a32b)
	if err != nil {
		return nil, nil, err
	}
	mapped := f.Mapped() && !cp64 && !cp32

	// --- topo: matrix table ---
	tr := newSecReader("topo", topob)
	numRecs := tr.dim()
	if tr.err() == nil && (numRecs < 0 || numRecs > tr.remaining()/32) {
		return nil, nil, fmt.Errorf("%w: matrix table of %d records in %d bytes", ErrBadFormat, numRecs, tr.remaining())
	}
	mats64 := make([]*linalg.Matrix, numRecs)
	mats32 := make([]*linalg.Matrix32, numRecs)
	for i := 0; i < numRecs && tr.err() == nil; i++ {
		prec, rows, cols, off := tr.i64(), tr.i64(), tr.i64(), tr.i64()
		if tr.err() != nil {
			break
		}
		// No constant of an operator of dimension n exceeds n×n, which also
		// bounds the plan arena a re-lowering can size from these shapes.
		if rows < 0 || rows > int64(n) || cols < 0 || cols > int64(n) || off < 0 {
			return nil, nil, fmt.Errorf("%w: matrix record %d: %d×%d at %d", ErrBadFormat, i, rows, cols, off)
		}
		elems := rows * cols // ≤ 2^62, no overflow
		switch prec {
		case 8:
			if off%8 != 0 || off/8+elems > int64(len(f64)) {
				return nil, nil, fmt.Errorf("%w: matrix record %d overruns f64 arena", ErrBadFormat, i)
			}
			if elems == 0 {
				mats64[i] = linalg.NewMatrix(int(rows), int(cols))
			} else {
				mats64[i] = linalg.FromColumnMajor(int(rows), int(cols), f64[off/8:off/8+elems])
			}
		case 4:
			if off%4 != 0 || off/4+elems > int64(len(f32)) {
				return nil, nil, fmt.Errorf("%w: matrix record %d overruns f32 arena", ErrBadFormat, i)
			}
			if elems == 0 {
				mats32[i] = linalg.NewMatrix32(int(rows), int(cols))
			} else {
				mats32[i] = linalg.FromColumnMajor32(int(rows), int(cols), f32[off/4:off/4+elems])
			}
		default:
			return nil, nil, fmt.Errorf("%w: matrix record %d precision %d", ErrBadFormat, i, prec)
		}
	}
	// refBlock resolves a matrix ref: -1 is absent, anything else must
	// name a record of either precision.
	refBlock := func(v int64) block {
		if v == -1 {
			return block{}
		}
		if v < 0 || v >= int64(numRecs) {
			tr.failf("matrix ref %d invalid", v)
			return block{}
		}
		return block{m: mats64[v], m32: mats32[v]}
	}

	// --- topo: permutation and tree ---
	perm := tr.ints(n)
	if err := tr.err(); err != nil {
		return nil, nil, err
	}
	if len(perm) != n {
		return nil, nil, fmt.Errorf("%w: permutation length %d for dimension %d", ErrBadFormat, len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if seen[p] {
			return nil, nil, fmt.Errorf("%w: duplicate index %d in permutation", ErrBadFormat, p)
		}
		seen[p] = true
	}
	t := tree.FromPermutation(perm, leaf)
	numNodes := tr.dim()
	if tr.err() == nil && numNodes != len(t.Nodes) {
		return nil, nil, fmt.Errorf("%w: %d nodes for tree of %d", ErrBadFormat, numNodes, len(t.Nodes))
	}

	// --- topo: per-node state ---
	h := &Hierarchical{
		K: noOracle{n: n},
		Cfg: Config{
			LeafSize: leaf, MaxRank: maxRank, Tol: tol, Kappa: kappa,
			Budget: budget, Distance: Distance(dist), CacheBlocks: cacheBlocks,
			CacheSingle: cacheSingle, SampleRows: sampleRows, Seed: seed,
			Exec: opts.Exec, NumWorkers: max(opts.NumWorkers, 1),
			Workspace: opts.Workspace, Telemetry: opts.Telemetry,
		},
		Tree: t,
	}
	h.nodes = make([]node, len(t.Nodes))
	// readRefs reads one list's presence flag and its per-slot refs.
	readRefs := func(count int) []int64 {
		if !tr.boolean() || tr.err() != nil {
			return nil
		}
		if count > tr.remaining()/8 {
			tr.failf("ref list of %d entries in %d remaining bytes", count, tr.remaining())
			return nil
		}
		out := make([]int64, count)
		for k := range out {
			out[k] = tr.i64()
		}
		return out
	}
	lists := make([][2][]int64, len(h.nodes))
	for id := range h.nodes {
		if tr.err() != nil {
			break
		}
		nd := &h.nodes[id]
		nd.skel = tr.ints(n)
		nd.coef = refBlock(tr.i64())
		nd.near = tr.ints(len(t.Nodes))
		nd.far = tr.ints(len(t.Nodes))
		nd.denseFallback = tr.boolean()
		lists[id] = [2][]int64{readRefs(len(nd.near)), readRefs(len(nd.far))}
		if !increasing(nd.near) || !increasing(nd.far) {
			tr.failf("node %d: interaction list not strictly increasing", id)
		}
		if len(nd.near) > 0 && !t.IsLeaf(id) {
			tr.failf("node %d: near list on an interior node", id)
		}
		for _, alpha := range nd.near {
			if !t.IsLeaf(alpha) {
				tr.failf("node %d: near list holds interior node %d", id, alpha)
			}
		}
	}
	// Ownership depends on every node's lists, so the caches resolve once
	// they are all read: a ref list must hold exactly the blocks its node
	// owns.
	for id := range h.nodes {
		for i, kind := range []listKind{nearList, farList} {
			refs := lists[id][i]
			if refs == nil || tr.err() != nil {
				continue
			}
			cache := make([]block, len(refs))
			for k, v := range refs {
				_, _, trans := h.slotOwner(kind, id, k)
				switch {
				case trans && v != -1:
					tr.failf("node %d: ref list stores a block its partner owns (slot %d)", id, k)
				case !trans && v == -1:
					tr.failf("node %d: ref list lacks an owned block (slot %d)", id, k)
				}
				cache[k] = refBlock(v)
			}
			_, dst := h.list(kind, id)
			*dst = cache
		}
	}
	// The bases' column order is derived, not stored, and checked against
	// the stored T blocks.
	where := make([]int, n)
	for id := range h.nodes {
		if tr.err() != nil {
			break
		}
		pos, err := h.basisOrder(id, where)
		if err != nil {
			tr.failf("node %d: %v", id, err)
		}
		h.nodes[id].pos = pos
	}
	if err := tr.finish(); err != nil {
		return nil, nil, err
	}

	// A store carries the blocks of every contributing list, as a compiled
	// or cached operator saves them, and loads compiled; or of none, and
	// waits for AttachOracle. No operator saves a store between the two.
	var carried, bare int
	for id := range h.nodes {
		for i, kind := range []listKind{nearList, farList} {
			if lst, _ := h.list(kind, id); len(lst) == 0 || !h.contributes(kind, id) {
				continue
			}
			if lists[id][i] != nil {
				carried++
			} else {
				bare++
			}
		}
	}
	if carried > 0 && bare > 0 {
		return nil, nil, fmt.Errorf("%w: store carries the blocks of %d of %d contributing lists",
			ErrBadFormat, carried, carried+bare)
	}
	if bare == 0 {
		if _, err := h.CompilePlan(); err != nil {
			return nil, nil, fmt.Errorf("%w: stored operator does not lower: %v", ErrBadFormat, err)
		}
	}

	h.backing = f
	h.finishStats()
	return h, &StoreInfo{Mapped: mapped, Bytes: f.Size()}, nil
}
