package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gofmm/internal/resilience"
)

// fakeClock is a deterministic quota clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func TestQuotaBurstThenRefill(t *testing.T) {
	clk := newFakeClock()
	q := newQuotas(QuotaConfig{RatePerSec: 2, Burst: 4}, clk.now)

	// The burst admits 4 columns instantaneously.
	for i := 0; i < 4; i++ {
		if err := q.allow("alice", 1); err != nil {
			t.Fatalf("burst request %d rejected: %v", i, err)
		}
	}
	// The fifth is rejected with a hint of (1 token)/(2 tokens/s) = 500ms.
	err := q.allow("alice", 1)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want ErrQuotaExceeded, got %v", err)
	}
	hint, ok := resilience.RetryAfterHint(err)
	if !ok || hint != 500*time.Millisecond {
		t.Fatalf("refill hint = %v, %v; want 500ms", hint, ok)
	}
	// Another tenant is unaffected.
	if err := q.allow("bob", 4); err != nil {
		t.Fatalf("independent tenant throttled: %v", err)
	}
	// After one second, 2 tokens returned.
	clk.advance(time.Second)
	if err := q.allow("alice", 2); err != nil {
		t.Fatalf("refilled request rejected: %v", err)
	}
	if err := q.allow("alice", 1); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("bucket should be empty again, got %v", err)
	}
	// Refill caps at Burst no matter how long the idle period.
	clk.advance(time.Hour)
	if err := q.allow("alice", 4); err != nil {
		t.Fatalf("capped refill rejected: %v", err)
	}
	if err := q.allow("alice", 1); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("burst cap not enforced, got %v", err)
	}
}

// A request that cannot ever fit the bucket must be a permanent
// invalid-input error, not a retry hint that would lie.
func TestQuotaOversizedRequest(t *testing.T) {
	q := newQuotas(QuotaConfig{RatePerSec: 10, Burst: 8}, newFakeClock().now)
	err := q.allow("alice", 9)
	if !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("want ErrInvalidInput, got %v", err)
	}
	if _, ok := resilience.RetryAfterHint(err); ok {
		t.Fatalf("oversized request must not carry a retry hint")
	}
}

// The bucket table is bounded: tenant number maxTenants+1 evicts the
// stalest bucket rather than growing without limit.
func TestQuotaTenantTableBounded(t *testing.T) {
	clk := newFakeClock()
	q := newQuotas(QuotaConfig{RatePerSec: 1, Burst: 1}, clk.now)
	for i := 0; i < maxTenants+64; i++ {
		clk.advance(time.Millisecond) // distinct staleness stamps
		if err := q.allow(fmt.Sprintf("tenant-%d", i), 1); err != nil {
			t.Fatalf("tenant %d rejected: %v", i, err)
		}
	}
	if got := q.tenants(); got > maxTenants {
		t.Fatalf("bucket table grew to %d, bound is %d", got, maxTenants)
	}
}

// Disabled quotas and the nil table admit everything.
func TestQuotaDisabled(t *testing.T) {
	q := newQuotas(QuotaConfig{}, nil)
	for i := 0; i < 100; i++ {
		if err := q.allow("anyone", 100); err != nil {
			t.Fatalf("disabled quota rejected: %v", err)
		}
	}
	var nilQ *quotas
	if err := nilQ.allow("anyone", 1); err != nil {
		t.Fatalf("nil quotas rejected: %v", err)
	}
	if nilQ.tenants() != 0 {
		t.Fatalf("nil quotas report tenants")
	}
}
