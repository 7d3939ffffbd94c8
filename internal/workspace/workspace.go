// Package workspace provides a size-classed buffer pool so the hot
// evaluation paths (Matvec, HSS Factor/Solve) reuse their per-call scratch
// instead of reallocating it. Buffers are float64 slices handed out zeroed,
// filed into power-of-two size classes, and backed by sync.Pool per class
// so idle memory is still reclaimable by the GC. A nil *Pool is valid
// everywhere and degrades to plain allocation, which keeps pooling strictly
// opt-in.
package workspace

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
)

const (
	minClassBits = 8  // smallest pooled buffer: 256 floats (2 KiB)
	maxClassBits = 27 // largest pooled buffer: 128 Mi floats (1 GiB)
	numClasses   = maxClassBits - minClassBits + 1
)

// Pool is a size-classed free list of float64 buffers. The zero value is
// ready to use; so is a nil pointer (every method no-ops or allocates).
type Pool struct {
	classes [numClasses]sync.Pool // each stores *[]float64 with cap = 1<<(minClassBits+i)

	hits       atomic.Int64
	misses     atomic.Int64
	returns    atomic.Int64
	bytesReuse atomic.Int64

	// Telemetry counters cached at attach time so the hot path is a single
	// atomic add with no name lookup. All are nil-safe.
	cHits    atomic.Pointer[telemetry.Counter]
	cMisses  atomic.Pointer[telemetry.Counter]
	cReturns atomic.Pointer[telemetry.Counter]
	cBytes   atomic.Pointer[telemetry.Counter]
}

// Stats is a snapshot of pool traffic. BytesReused counts the capacity of
// every buffer served from the free lists (the allocations avoided).
type Stats struct {
	Hits, Misses, Returns int64
	BytesReused           int64
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// AttachTelemetry mirrors future pool traffic into rec's workspace.*
// counters (workspace.hits, workspace.misses, workspace.returns,
// workspace.bytes_reused). Counts accumulated before the call are carried
// over so snapshots always reflect pool lifetime totals.
func (p *Pool) AttachTelemetry(rec *telemetry.Recorder) {
	if p == nil || rec == nil {
		return
	}
	h := rec.Counter("workspace.hits")
	m := rec.Counter("workspace.misses")
	r := rec.Counter("workspace.returns")
	b := rec.Counter("workspace.bytes_reused")
	h.Add(p.hits.Load() - h.Value())
	m.Add(p.misses.Load() - m.Value())
	r.Add(p.returns.Load() - r.Value())
	b.Add(p.bytesReuse.Load() - b.Value())
	p.cHits.Store(h)
	p.cMisses.Store(m)
	p.cReturns.Store(r)
	p.cBytes.Store(b)
}

// class returns the index of the smallest class with capacity ≥ n, or -1 if
// n is outside the pooled range.
func class(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < minClassBits {
		b = minClassBits
	}
	if b > maxClassBits {
		return -1
	}
	return b - minClassBits
}

// Get returns a zeroed slice of length n. The buffer comes from the free
// list when one is available; either way the caller owns it until Put.
func (p *Pool) Get(n int) []float64 {
	if p == nil {
		return make([]float64, n)
	}
	ci := class(n)
	if ci < 0 {
		p.misses.Add(1)
		p.cMisses.Load().Add(1)
		return make([]float64, n)
	}
	if v := p.classes[ci].Get(); v != nil {
		buf := (*(v.(*[]float64)))[:n]
		for i := range buf {
			buf[i] = 0
		}
		p.hits.Add(1)
		p.bytesReuse.Add(int64(cap(buf)) * 8)
		p.cHits.Load().Add(1)
		p.cBytes.Load().Add(int64(cap(buf)) * 8)
		return buf
	}
	p.misses.Add(1)
	p.cMisses.Load().Add(1)
	return make([]float64, n, 1<<(minClassBits+ci))
}

// Put files buf back for reuse. Buffers of arbitrary capacity are accepted —
// they are filed under the largest class that fits inside cap(buf), so a
// later Get never receives a too-small buffer; capacities below the minimum
// class are dropped. The caller must not touch buf afterwards, and must
// never Put a slice that aliases memory it does not own (e.g. a matrix
// view's Data).
func (p *Pool) Put(buf []float64) {
	if p == nil || cap(buf) == 0 {
		return
	}
	b := bits.Len(uint(cap(buf))) - 1 // floor(log2 cap)
	if b < minClassBits {
		return
	}
	if b > maxClassBits {
		b = maxClassBits
	}
	full := buf[:1<<b]
	p.classes[b-minClassBits].Put(&full)
	p.returns.Add(1)
	p.cReturns.Load().Add(1)
}

// GetMatrix returns a zeroed r×c matrix whose backing array comes from the
// pool. Release it with PutMatrix — never PutMatrix a view of it.
func (p *Pool) GetMatrix(r, c int) *linalg.Matrix {
	if p == nil {
		return linalg.NewMatrix(r, c)
	}
	return linalg.FromColumnMajor(r, c, p.Get(r*c))
}

// PutMatrix returns a matrix obtained from GetMatrix to the pool. Matrices
// whose Data does not own its full backing buffer (views) must not be
// passed here; the matrix must not be used afterwards.
func (p *Pool) PutMatrix(M *linalg.Matrix) {
	if p == nil || M == nil {
		return
	}
	p.Put(M.Data)
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		Returns:     p.returns.Load(),
		BytesReused: p.bytesReuse.Load(),
	}
}

// Scope tracks a group of pooled matrices so a phase (an HSS factorization,
// one solve) can release everything it borrowed with a single
// Release call, including on error paths via defer.
type Scope struct {
	pool *Pool
	mats []*linalg.Matrix
}

// NewScope returns a scope drawing from p (p may be nil).
func (p *Pool) NewScope() *Scope { return &Scope{pool: p} }

// Matrix returns a zeroed r×c pooled matrix owned by the scope. The caller
// must not retain it past Release.
func (s *Scope) Matrix(r, c int) *linalg.Matrix {
	M := s.pool.GetMatrix(r, c)
	s.mats = append(s.mats, M)
	return M
}

// Keep removes M from the scope so Release will not reclaim it — used when
// a scratch matrix is promoted to a persistent result.
func (s *Scope) Keep(M *linalg.Matrix) {
	for i, v := range s.mats {
		if v == M {
			s.mats[i] = s.mats[len(s.mats)-1]
			s.mats = s.mats[:len(s.mats)-1]
			return
		}
	}
}

// Release returns every tracked matrix to the pool. The scope is reusable
// afterwards.
func (s *Scope) Release() {
	for _, M := range s.mats {
		s.pool.PutMatrix(M)
	}
	s.mats = s.mats[:0]
}
