// Package plan compiles the four-pass GOFMM evaluation traversal
// (N2S/S2S/S2N/L2L) into a flat, replayable execution plan: an ordered
// slice of op records with pre-resolved offsets into one contiguous
// workspace arena, grouped into barrier-separated stages whose tasks are
// output-disjoint by construction. Compiling once at compress time and
// replaying per evaluation removes the per-matvec tree walk, the task-DAG
// rebuild and the per-node scratch churn of the interpreter — the
// model-based-execution split of MatRox and PBBFMM3D applied to GOFMM.
//
// The package is deliberately oblivious to trees and kernels: internal/core
// lowers its traversal through the Builder, and the plan only knows about
// arena regions, constant operands (interpolation bases and cached blocks)
// and GEMM shapes. The tree interpreter in internal/core remains the
// reference path and the test oracle for every compiled plan.
//
// Replay guarantees:
//
//   - Every task writes a region no other task of its stage touches
//     (checked by Build), and stages are separated by barriers, so
//     parallel replay is race-free and bit-identical to sequential replay
//     for any worker count.
//   - Every arena row is written before it is read, by an earlier stage or
//     earlier in the reading task (the builder's lowering discipline,
//     checked by Build), so the arena is never zeroed between replays.
package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
)

// Ref locates a buffer inside the plan's arena. The arena is a single
// []float64 holding column-major regions that all share the replay's RHS
// count r: a region of Span rows starts at float offset Base·r and holds
// Span·r floats. A Ref addresses the Rows-row slice starting Sub rows into
// that region (stride Span), which lets sibling skeleton-weight buffers
// alias the parent's stacked N2S input without any copy op.
type Ref struct {
	Base int // row offset of the enclosing region within the arena
	Sub  int // row offset of the view within the region
	Rows int // rows of the view
	Span int // total rows of the region (the view's column stride)
}

// External stands for the replay's external n×r operands in OpGather
// records: the input W as a source, the output U as a destination. It
// addresses no arena rows.
var External = Ref{Base: -1}

// valid reports whether the ref addresses a well-formed slice of an arena
// with arenaRows total rows.
func (f Ref) valid(arenaRows int) bool {
	return f.Base >= 0 && f.Sub >= 0 && f.Rows >= 0 && f.Span >= f.Sub+f.Rows &&
		f.Base+f.Span <= arenaRows
}

// first returns the arena row of the view's first row.
func (f Ref) first() int { return f.Base + f.Sub }

// OpKind enumerates the replayable operation records.
type OpKind uint8

const (
	// OpGather copies rows by index: dst[k,:] = src[Idx[k],:], where src is
	// arena region B, or the external input W when B is External, and dst
	// is arena region C, or the external output U when C is External.
	OpGather OpKind = iota
	// OpGemm is C = A·B + Beta·C with A a constant operand (an
	// interpolation basis or a cached kernel block, optionally float32) and
	// B, C arena regions. Beta is 0 (overwrite) or 1 (accumulate).
	OpGemm
	// OpCopy overwrites arena region C with arena region B.
	OpCopy
	// OpAdd accumulates arena region B into arena region C.
	OpAdd
	// OpZero clears arena region C.
	OpZero
	// OpScatter copies the rows of arena region B to the rows of arena
	// region C that Idx names: C[Idx[k],:] = B[k,:]. Idx holds no index
	// twice.
	OpScatter
)

func (k OpKind) String() string {
	switch k {
	case OpGather:
		return "gather"
	case OpGemm:
		return "gemm"
	case OpCopy:
		return "copy"
	case OpAdd:
		return "add"
	case OpZero:
		return "zero"
	case OpScatter:
		return "scatter"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one replayable operation record. Exactly one of A/A32 is set for
// OpGemm; Idx is set for OpGather/OpScatter.
type Op struct {
	Kind   OpKind
	TransA bool
	Beta   float64
	A      *linalg.Matrix   // constant float64 operand (OpGemm)
	A32    *linalg.Matrix32 // constant float32 operand (OpGemm, mixed precision)
	B, C   Ref
	Idx    []int // row indices (OpGather/OpScatter)
}

// flopsPerCol returns the op's flop cost per RHS column, matching the
// interpreter's accounting (2·m·k per GEMM column; moves are free).
func (o *Op) flopsPerCol() float64 {
	if o.Kind != OpGemm {
		return 0
	}
	if o.A32 != nil {
		return 2 * float64(o.A32.Rows) * float64(o.A32.Cols)
	}
	return 2 * float64(o.A.Rows) * float64(o.A.Cols)
}

// task is a contiguous op range [Lo, Hi) executed in order by one worker.
type task struct {
	Lo, Hi int
}

// Stage is a barrier-separated group of tasks. Tasks within a stage write
// disjoint arena regions (the builder's contract), so a parallel stage may
// run its tasks in any order or interleaving.
type Stage struct {
	Name     string
	Parallel bool
	tasks    []task
}

// NumTasks returns the stage's dispatch-unit count.
func (s *Stage) NumTasks() int { return len(s.tasks) }

// Builder assembles a Plan. The lowering in internal/core drives it:
// allocate regions, open stages, emit ops inside tasks, Build.
type Builder struct {
	n         int
	arenaRows int
	ops       []Op
	stages    []Stage
	inStage   bool
	taskLo    int // op index where the open task began, -1 when closed
	err       error
}

// NewBuilder starts a plan for an operator of dimension n (external input
// and output are n×r).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, taskLo: -1}
}

// Alloc reserves a region of rows arena rows and returns its row offset.
func (b *Builder) Alloc(rows int) int {
	if rows < 0 {
		b.fail("Alloc(%d)", rows)
		return 0
	}
	off := b.arenaRows
	b.arenaRows += rows
	return off
}

// Region is shorthand for a Ref covering a whole freshly allocated region.
func (b *Builder) Region(rows int) Ref {
	return Ref{Base: b.Alloc(rows), Sub: 0, Rows: rows, Span: rows}
}

// BeginStage opens a new barrier-separated stage. Parallel stages promise
// output-disjoint tasks.
func (b *Builder) BeginStage(name string, parallel bool) {
	b.closeTask()
	b.stages = append(b.stages, Stage{Name: name, Parallel: parallel})
	b.inStage = true
}

// BeginTask opens a new task in the current stage; ops emitted until the
// next BeginTask/BeginStage/Build belong to it.
func (b *Builder) BeginTask() {
	if !b.inStage {
		b.fail("BeginTask outside a stage")
		return
	}
	b.closeTask()
	b.taskLo = len(b.ops)
}

// closeTask files the open task, dropping empty ones.
func (b *Builder) closeTask() {
	if b.taskLo >= 0 && len(b.ops) > b.taskLo {
		st := &b.stages[len(b.stages)-1]
		st.tasks = append(st.tasks, task{Lo: b.taskLo, Hi: len(b.ops)})
	}
	b.taskLo = -1
}

// emit appends an op to the open task.
func (b *Builder) emit(op Op) {
	if b.taskLo < 0 {
		b.fail("op %s emitted outside a task", op.Kind)
		return
	}
	b.ops = append(b.ops, op)
}

// Gather emits dst = src[idx, :]: one index per row of dst, each
// addressing a row of src; an External src is the n-row input, an
// External dst the n-row output.
func (b *Builder) Gather(src Ref, idx []int, dst Ref) {
	if len(idx) != b.extent(dst) {
		b.fail("Gather: %d indices into %d rows", len(idx), b.extent(dst))
		return
	}
	if b.rowIndices("Gather", idx, b.extent(src), false) {
		b.emit(Op{Kind: OpGather, Idx: idx, B: src, C: dst})
	}
}

// Scatter emits dst[idx, :] = src between arena regions: one distinct
// index per row of src, each addressing a row of dst.
func (b *Builder) Scatter(src Ref, idx []int, dst Ref) {
	if src == External || dst == External || len(idx) != src.Rows {
		b.fail("Scatter: %d indices from %d rows", len(idx), src.Rows)
		return
	}
	if b.rowIndices("Scatter", idx, dst.Rows, true) {
		b.emit(Op{Kind: OpScatter, Idx: idx, B: src, C: dst})
	}
}

// extent returns the rows of a gather's operand: the view's, or n for the
// external input and output.
func (b *Builder) extent(f Ref) int {
	if f == External {
		return b.n
	}
	return f.Rows
}

// rowIndices reports whether every index lies in [0, rows) and, when
// distinct is set, none repeats; it records the failure when not.
func (b *Builder) rowIndices(op string, idx []int, rows int, distinct bool) bool {
	var seen []bool
	if distinct {
		seen = make([]bool, rows)
	}
	for _, v := range idx {
		if v < 0 || v >= rows {
			b.fail("%s: index %d outside %d rows", op, v, rows)
			return false
		}
		if distinct {
			if seen[v] {
				b.fail("%s: index %d repeats", op, v)
				return false
			}
			seen[v] = true
		}
	}
	return true
}

// Gemm emits arena[dst] = op(A)·arena[src] + beta·arena[dst] with a
// constant float64 operand. beta must be 0 or 1.
func (b *Builder) Gemm(transA bool, A *linalg.Matrix, src, dst Ref, beta float64) {
	if A == nil {
		b.fail("Gemm: nil constant operand")
		return
	}
	m, k := A.Rows, A.Cols
	if transA {
		m, k = k, m
	}
	if src.Rows != k || dst.Rows != m || (beta != 0 && beta != 1) {
		b.fail("Gemm: op(A %v) with B %d rows, C %d rows, beta %g", transA, src.Rows, dst.Rows, beta)
		return
	}
	b.emit(Op{Kind: OpGemm, TransA: transA, A: A, B: src, C: dst, Beta: beta})
}

// GemmMixed emits the float32-constant variant, C = op(A)·B + beta·C with
// A a single-precision basis or cached block. The transposed form serves
// S2N records and the mirror half of a stored near or far pair. Replay
// runs the record through linalg.GemmMixed, which picks the kernel from
// the orientation and the width alone.
func (b *Builder) GemmMixed(transA bool, A *linalg.Matrix32, src, dst Ref, beta float64) {
	if A == nil {
		b.fail("GemmMixed: nil constant operand")
		return
	}
	m, k := A.Rows, A.Cols
	if transA {
		m, k = k, m
	}
	if src.Rows != k || dst.Rows != m || (beta != 0 && beta != 1) {
		b.fail("GemmMixed: op(A %v) with B %d rows, C %d rows, beta %g", transA, src.Rows, dst.Rows, beta)
		return
	}
	b.emit(Op{Kind: OpGemm, TransA: transA, A32: A, B: src, C: dst, Beta: beta})
}

// Copy emits arena[dst] = arena[src].
func (b *Builder) Copy(src, dst Ref) {
	if src.Rows != dst.Rows {
		b.fail("Copy: %d rows into %d rows", src.Rows, dst.Rows)
		return
	}
	b.emit(Op{Kind: OpCopy, B: src, C: dst})
}

// Add emits arena[dst] += arena[src].
func (b *Builder) Add(src, dst Ref) {
	if src.Rows != dst.Rows {
		b.fail("Add: %d rows into %d rows", src.Rows, dst.Rows)
		return
	}
	b.emit(Op{Kind: OpAdd, B: src, C: dst})
}

// Zero emits arena[dst] = 0.
func (b *Builder) Zero(dst Ref) {
	b.emit(Op{Kind: OpZero, C: dst})
}

// fail records the first lowering error; Build reports it.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("%w: plan: %s", resilience.ErrInvalidInput, fmt.Sprintf(format, args...))
	}
}

// Build validates the lowered schedule, seals the digest and returns the
// immutable Plan.
func (b *Builder) Build() (*Plan, error) {
	b.closeTask()
	if b.err != nil {
		return nil, b.err
	}
	for i := range b.ops {
		op := &b.ops[i]
		needB := op.Kind != OpZero && !(op.Kind == OpGather && op.B == External)
		needC := !(op.Kind == OpGather && op.C == External)
		if needB && !op.B.valid(b.arenaRows) {
			return nil, fmt.Errorf("%w: plan: op %d (%s) reads invalid ref %+v",
				resilience.ErrInvalidInput, i, op.Kind, op.B)
		}
		if needC && !op.C.valid(b.arenaRows) {
			return nil, fmt.Errorf("%w: plan: op %d (%s) writes invalid ref %+v",
				resilience.ErrInvalidInput, i, op.Kind, op.C)
		}
	}
	if err := b.checkDataflow(); err != nil {
		return nil, err
	}
	p := &Plan{
		n:         b.n,
		arenaRows: b.arenaRows,
		ops:       b.ops,
		stages:    b.stages,
	}
	for i := range p.ops {
		p.flopsPerCol += p.ops[i].flopsPerCol()
	}
	p.digest = p.computeDigest()
	return p, nil
}

// checkDataflow sweeps the ops in schedule order and holds the lowering
// to the replay guarantees: every arena row an op reads (B, and C where it
// accumulates) was written by an earlier stage or earlier in the op's own
// task, and a row one task of a parallel stage writes is touched by no
// other task of that stage. A gather reads, and a scatter writes, only the
// rows its indices name.
func (b *Builder) checkDataflow() error {
	// For arena row x, rows[x].w is 1 + the schedule-order index of the
	// task that last wrote it, 0 while it is unwritten. Task indices grow
	// with the stage, so a writer below the stage's first task wrote in an
	// earlier stage. rows[x].r is, in the same numbering, the last task
	// that read it, or -first once two tasks of the stage starting at task
	// first have.
	rows := make([]struct{ w, r int32 }, b.arenaRows)
	var cur, first int32
	var st *Stage
	var i int
	read := func(x int) error {
		row := &rows[x]
		if row.w == 0 || (row.w >= first && row.w != cur) {
			return fmt.Errorf("%w: plan: op %d (%s) in stage %q reads arena row %d, which no earlier stage and no earlier op of its task wrote",
				resilience.ErrInvalidInput, i, b.ops[i].Kind, st.Name, x)
		}
		if row.r == -first || (row.r >= first && row.r != cur) {
			row.r = -first
		} else {
			row.r = cur
		}
		return nil
	}
	write := func(x int) error {
		row := &rows[x]
		if st.Parallel && ((row.w >= first && row.w != cur) || row.r == -first || (row.r >= first && row.r != cur)) {
			return fmt.Errorf("%w: plan: op %d (%s) writes arena row %d, which another task of parallel stage %q touches",
				resilience.ErrInvalidInput, i, b.ops[i].Kind, x, st.Name)
		}
		row.w = cur
		return nil
	}
	// visit applies fn to the rows of f, or to the rows idx names within
	// f when idx is set.
	visit := func(f Ref, idx []int, fn func(int) error) error {
		if f == External {
			return nil
		}
		if idx != nil {
			for _, k := range idx {
				if err := fn(f.first() + k); err != nil {
					return err
				}
			}
			return nil
		}
		for x := f.first(); x < f.first()+f.Rows; x++ {
			if err := fn(x); err != nil {
				return err
			}
		}
		return nil
	}
	for si := range b.stages {
		st = &b.stages[si]
		first = cur + 1
		for _, tk := range st.tasks {
			cur++
			for i = tk.Lo; i < tk.Hi; i++ {
				op := &b.ops[i]
				var readIdx, writeIdx []int // nil: the whole view
				switch op.Kind {
				case OpGather:
					readIdx = op.Idx
				case OpScatter:
					writeIdx = op.Idx
				}
				var err error
				if op.Kind != OpZero {
					err = visit(op.B, readIdx, read)
				}
				if err == nil && (op.Kind == OpAdd || (op.Kind == OpGemm && op.Beta != 0)) {
					err = visit(op.C, nil, read)
				}
				if err == nil {
					err = visit(op.C, writeIdx, write)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Plan is a compiled, immutable evaluation schedule. It is safe for
// concurrent replay from any number of goroutines: each Execute binds its
// own arena.
type Plan struct {
	n         int
	arenaRows int
	ops       []Op
	stages    []Stage

	flopsPerCol float64
	digest      [sha256.Size]byte

	// states caches replay bindings per RHS width (see replay.go).
	statesMu sync.Mutex
	states   map[int]*sync.Pool // guarded by statesMu
}

// N returns the operator dimension the plan evaluates.
func (p *Plan) N() int { return p.n }

// ArenaRows returns the arena height in rows; a replay with r right-hand
// sides binds ArenaRows·r floats.
func (p *Plan) ArenaRows() int { return p.arenaRows }

// ArenaFloats returns the arena size in floats for r right-hand sides.
func (p *Plan) ArenaFloats(r int) int { return p.arenaRows * r }

// NumOps returns the total op-record count.
func (p *Plan) NumOps() int { return len(p.ops) }

// NumStages returns the barrier count of the schedule.
func (p *Plan) NumStages() int { return len(p.stages) }

// NumTasks returns the total dispatch-unit count.
func (p *Plan) NumTasks() int {
	total := 0
	for i := range p.stages {
		total += len(p.stages[i].tasks)
	}
	return total
}

// BatchedGemms returns 0: a plan no longer folds GEMMs into batched
// dispatch units. It stays only for the benchmark's plan.batched_gemms and
// goes in the last step of ROADMAP item 11.
func (p *Plan) BatchedGemms() int { return 0 }

// FlopsPerCol returns the flop cost of one replay per RHS column.
func (p *Plan) FlopsPerCol() float64 { return p.flopsPerCol }

// Stages exposes the stage descriptors (read-only) for inspection.
func (p *Plan) Stages() []Stage { return p.stages }

// Ops exposes the op records (read-only) for inspection and tests.
func (p *Plan) Ops() []Op { return p.ops }

// Digest returns the SHA-256 over the plan's structure: op kinds, shapes,
// arena offsets, permutations, stage and task boundaries — everything that
// determines the replay schedule, and nothing that depends on block values.
// Two compressions with the same seed and configuration produce
// byte-identical digests.
func (p *Plan) Digest() [sha256.Size]byte { return p.digest }

// DigestHex returns Digest as a hex string.
func (p *Plan) DigestHex() string {
	d := p.digest
	return hex.EncodeToString(d[:])
}

// String summarizes the plan for logs and debug output.
func (p *Plan) String() string {
	return fmt.Sprintf("plan{n=%d ops=%d stages=%d tasks=%d arena=%d rows digest=%s}",
		p.n, len(p.ops), len(p.stages), p.NumTasks(), p.arenaRows, p.DigestHex()[:12])
}

// computeDigest hashes the structural schedule.
func (p *Plan) computeDigest() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	h.Write([]byte("gofmm-plan-v1"))
	wi(p.n)
	wi(p.arenaRows)
	wi(len(p.ops))
	for i := range p.ops {
		op := &p.ops[i]
		tag := int(op.Kind) << 3
		if op.TransA {
			tag |= 1
		}
		if op.A32 != nil {
			tag |= 2
		}
		if op.Beta != 0 {
			tag |= 4
		}
		wi(tag)
		switch {
		case op.A != nil:
			wi(op.A.Rows)
			wi(op.A.Cols)
		case op.A32 != nil:
			wi(op.A32.Rows)
			wi(op.A32.Cols)
		}
		wi(op.B.Base)
		wi(op.B.Sub)
		wi(op.B.Rows)
		wi(op.B.Span)
		wi(op.C.Base)
		wi(op.C.Sub)
		wi(op.C.Rows)
		wi(op.C.Span)
		wi(len(op.Idx))
		for _, v := range op.Idx {
			wi(v)
		}
	}
	wi(len(p.stages))
	for si := range p.stages {
		st := &p.stages[si]
		h.Write([]byte(st.Name))
		par := 0
		if st.Parallel {
			par = 1
		}
		wi(par)
		wi(len(st.tasks))
		for _, t := range st.tasks {
			wi(t.Lo)
			wi(t.Hi)
		}
	}
	wf(p.flopsPerCol)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
