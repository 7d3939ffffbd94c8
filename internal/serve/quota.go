package serve

import (
	"fmt"
	"sync"
	"time"

	"gofmm/internal/resilience"
)

// QuotaConfig is the per-tenant token-bucket policy. One bucket per tenant
// (the X-Tenant header at the HTTP layer); a request costs one token per
// right-hand-side column, so a 32-column Matmat spends 32× the budget of a
// single Matvec — quotas meter work, not requests.
type QuotaConfig struct {
	// RatePerSec is each tenant's sustained refill rate in columns/second.
	// Zero or negative disables quota enforcement entirely.
	RatePerSec float64
	// Burst is the bucket capacity (default max(RatePerSec, 1)): how many
	// columns a tenant may spend instantaneously after an idle period.
	Burst float64
}

// maxTenants bounds the bucket table. At the bound, the stalest bucket is
// evicted — a returning tenant restarts with a full bucket, which errs
// toward admission, never toward unbounded memory.
const maxTenants = 4096

func (c QuotaConfig) withDefaults() QuotaConfig {
	if c.Burst <= 0 {
		c.Burst = c.RatePerSec
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

type bucket struct {
	tokens float64
	last   time.Time
}

// quotas is the token-bucket table. The clock is injected so tests are
// deterministic: refill is computed lazily from elapsed time, there is no
// background goroutine to leak or to flake.
type quotas struct {
	cfg QuotaConfig
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket // guarded by mu
}

func newQuotas(cfg QuotaConfig, now func() time.Time) *quotas {
	if now == nil {
		now = time.Now
	}
	return &quotas{cfg: cfg.withDefaults(), now: now, buckets: map[string]*bucket{}}
}

// allow charges tenant cost tokens, or returns ErrQuotaExceeded with a
// Retry-After hint naming when the bucket will hold cost tokens again.
// A nil receiver or a disabled policy admits everything.
func (q *quotas) allow(tenant string, cost float64) error {
	if q == nil || q.cfg.RatePerSec <= 0 || cost <= 0 {
		return nil
	}
	if cost > q.cfg.Burst {
		// The request can never fit any bucket: reject with a permanent
		// taxonomy error rather than a retry hint that would lie.
		return fmt.Errorf("%w: request costs %g columns, tenant burst is %g",
			resilience.ErrInvalidInput, cost, q.cfg.Burst)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b := q.buckets[tenant]
	if b == nil {
		if len(q.buckets) >= maxTenants {
			q.evictStalest()
		}
		b = &bucket{tokens: q.cfg.Burst, last: now}
		q.buckets[tenant] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * q.cfg.RatePerSec
		if b.tokens > q.cfg.Burst {
			b.tokens = q.cfg.Burst
		}
		b.last = now
	}
	if b.tokens >= cost {
		b.tokens -= cost
		return nil
	}
	wait := time.Duration((cost - b.tokens) / q.cfg.RatePerSec * float64(time.Second))
	return resilience.WithRetryAfter(
		fmt.Errorf("%w: tenant %q needs %.3g more tokens", ErrQuotaExceeded,
			tenant, cost-b.tokens),
		wait)
}

// evictStalest removes the bucket with the oldest refill stamp. Linear
// scan: eviction only runs at the maxTenants bound.
// called with q.mu held.
func (q *quotas) evictStalest() {
	var stalest string
	var when time.Time
	first := true
	for tenant, b := range q.buckets {
		if first || b.last.Before(when) {
			stalest, when, first = tenant, b.last, false
		}
	}
	delete(q.buckets, stalest)
}

// tenants reports the bucket-table size for telemetry.
func (q *quotas) tenants() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buckets)
}
