package resilience

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"gofmm/internal/telemetry"
)

// ChaosConfig selects which faults to inject and how often. Zero values
// disable each fault class; a fully-zero config injects nothing.
type ChaosConfig struct {
	// Seed makes every injection decision deterministic.
	Seed int64
	// TaskFail is the probability that a scheduler task execution is failed
	// (the engine retries it, so execution still completes unless the retry
	// budget is exhausted).
	TaskFail float64
	// OraclePoison is the probability that an entry-oracle read returns a
	// poisoned (NaN) value — exercising the oracle-validation rejection path.
	OraclePoison float64
}

// Chaos is a deterministic fault-injection harness. A nil *Chaos is valid
// and injects nothing (every method no-ops), so instrumented code carries no
// conditionals. Decisions are drawn from per-site RNG streams keyed by
// (Seed, site): the k-th decision at a site is reproducible run-to-run, no
// matter how goroutines interleave across sites.
type Chaos struct {
	cfg ChaosConfig
	rec *telemetry.Recorder

	mu       sync.Mutex
	streams  map[string]*rand.Rand // guarded by mu
	injected map[string]int64      // guarded by mu
}

// NewChaos builds a harness. rec may be nil; when attached, every injection
// also bumps a "chaos.<kind>.injected" telemetry counter so chaos runs emit
// auditable counts.
func NewChaos(cfg ChaosConfig, rec *telemetry.Recorder) *Chaos {
	return &Chaos{
		cfg:      cfg,
		rec:      rec,
		streams:  map[string]*rand.Rand{},
		injected: map[string]int64{},
	}
}

// Enabled reports whether any fault class has a positive rate.
func (c *Chaos) Enabled() bool {
	if c == nil {
		return false
	}
	return c.cfg.TaskFail > 0 || c.cfg.OraclePoison > 0
}

// Config returns the harness configuration (zero on nil).
func (c *Chaos) Config() ChaosConfig {
	if c == nil {
		return ChaosConfig{}
	}
	return c.cfg
}

// roll draws the next decision for site with probability p, recording the
// injection under kind when it fires.
func (c *Chaos) roll(kind, site string, p float64) bool {
	if c == nil || p <= 0 {
		return false
	}
	c.mu.Lock()
	rng := c.streams[site]
	if rng == nil {
		h := fnv.New64a()
		h.Write([]byte(site))
		rng = rand.New(rand.NewSource(c.cfg.Seed ^ int64(h.Sum64())))
		c.streams[site] = rng
	}
	hit := rng.Float64() < p
	if hit {
		c.injected[kind]++
	}
	c.mu.Unlock()
	if hit && c.rec != nil {
		c.rec.Counter("chaos." + kind + ".injected").Add(1)
		if l := c.rec.Logger(); l != nil {
			l.Warn("chaos injection", "kind", kind, "site", site)
		}
	}
	return hit
}

// TaskFail decides whether the next execution attempt of the labelled task
// is failed.
func (c *Chaos) TaskFail(label string) bool {
	if c == nil {
		return false
	}
	return c.roll("task_fail", "task."+label, c.cfg.TaskFail)
}

// PoisonOracle decides whether an entry-oracle read at site is poisoned,
// returning the poisoned value when it fires. Unlike the TaskFail hook this
// decision is a pure hash of (seed, site) with no per-site stream: the
// same site is poisoned on every read (the model is a corrupted value in the
// backing store), and the per-entry site space can be huge without growing
// any state.
func (c *Chaos) PoisonOracle(site string) (float64, bool) {
	if c == nil || c.cfg.OraclePoison <= 0 {
		return 0, false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", c.cfg.Seed, site)
	if float64(h.Sum64()>>11)/float64(1<<53) >= c.cfg.OraclePoison {
		return 0, false
	}
	c.mu.Lock()
	c.injected["oracle_poison"]++
	c.mu.Unlock()
	if c.rec != nil {
		c.rec.Counter("chaos.oracle_poison.injected").Add(1)
		if l := c.rec.Logger(); l != nil {
			l.Warn("chaos injection", "kind", "oracle_poison", "site", site)
		}
	}
	return math.NaN(), true
}

// Injected returns a copy of the per-kind injection counts so far — the
// ground truth CI compares telemetry counters against.
func (c *Chaos) Injected() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.injected))
	for k, v := range c.injected {
		out[k] = v
	}
	return out
}
