// Package workspace counts the replay arenas a compiled plan binds. Every
// evaluation path owns its scratch: the replay keeps its bound arenas in
// the plan's per-width state cache, and the interpreter, the HSS solve
// and the batch flusher allocate. The package stays only because the
// benchmark reads Pool.Stats as workspace.hit_frac; the last step of
// ROADMAP item 11 deletes it once the benchmark drops that metric.
package workspace

import (
	"sync/atomic"

	"gofmm/internal/telemetry"
)

// Pool allocates replay arenas and counts them. The zero value is ready
// to use; so is a nil pointer, which allocates without counting.
type Pool struct {
	misses atomic.Int64
	// cMisses mirrors misses into a recorder once attached; nil-safe.
	cMisses atomic.Pointer[telemetry.Counter]
}

// Stats is a snapshot of pool traffic. Hits is always 0, since no buffer
// is reused; it stays for the benchmark's workspace.hit_frac until the
// last step of ROADMAP item 11.
type Stats struct {
	Hits, Misses int64
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// AttachTelemetry mirrors future allocations into rec's workspace.misses
// counter. Counts accumulated before the call are carried over, so
// snapshots always reflect pool lifetime totals.
func (p *Pool) AttachTelemetry(rec *telemetry.Recorder) {
	if p == nil || rec == nil {
		return
	}
	m := rec.Counter("workspace.misses")
	m.Add(p.misses.Load() - m.Value())
	p.cMisses.Store(m)
}

// Get returns a fresh zeroed slice of length n and counts it as a miss.
// The replay binds its arenas through it so that the benchmark's
// workspace.hit_frac stays defined; it goes in the last step of ROADMAP
// item 11.
func (p *Pool) Get(n int) []float64 {
	if p != nil {
		p.misses.Add(1)
		p.cMisses.Load().Add(1)
	}
	return make([]float64, n)
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{Misses: p.misses.Load()}
}
