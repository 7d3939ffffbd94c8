package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"gofmm/internal/telemetry"
)

func TestNilChaosIsInert(t *testing.T) {
	var c *Chaos
	if c.Enabled() {
		t.Fatal("nil chaos reports enabled")
	}
	if c.TaskFail("x") {
		t.Fatal("nil chaos injected a fault")
	}
	if _, ok := c.PoisonOracle("x"); ok {
		t.Fatal("nil chaos poisoned")
	}
	if c.Injected() != nil {
		t.Fatal("nil chaos has injections")
	}
}

func TestChaosDeterministicPerSite(t *testing.T) {
	draw := func() []bool {
		c := NewChaos(ChaosConfig{Seed: 42, TaskFail: 0.3}, nil)
		out := make([]bool, 0, 200)
		for i := 0; i < 100; i++ {
			out = append(out, c.TaskFail("a"))
		}
		for i := 0; i < 100; i++ {
			out = append(out, c.TaskFail("b"))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs", i)
		}
	}
	// Interleaving sites differently must not change per-site sequences.
	c := NewChaos(ChaosConfig{Seed: 42, TaskFail: 0.3}, nil)
	mixed := make(map[string][]bool)
	for i := 0; i < 100; i++ {
		mixed["a"] = append(mixed["a"], c.TaskFail("a"))
		mixed["b"] = append(mixed["b"], c.TaskFail("b"))
	}
	for i := 0; i < 100; i++ {
		if mixed["a"][i] != a[i] || mixed["b"][i] != a[100+i] {
			t.Fatalf("per-site stream %d depends on interleaving", i)
		}
	}
}

func TestChaosCountsAndTelemetry(t *testing.T) {
	rec := telemetry.New()
	c := NewChaos(ChaosConfig{Seed: 7, TaskFail: 0.5}, rec)
	hits := int64(0)
	for i := 0; i < 400; i++ {
		if c.TaskFail("up") {
			hits++
		}
	}
	if hits == 0 || hits == 400 {
		t.Fatalf("p=0.5 produced %d/400 failures", hits)
	}
	if got := c.Injected()["task_fail"]; got != hits {
		t.Fatalf("Injected()=%d, observed %d", got, hits)
	}
	if got := rec.Counter("chaos.task_fail.injected").Value(); got != hits {
		t.Fatalf("telemetry counter %d, observed %d", got, hits)
	}
}

func TestChaosConcurrentUse(t *testing.T) {
	rec := telemetry.New()
	c := NewChaos(ChaosConfig{Seed: 1, TaskFail: 0.2, OraclePoison: 0.2}, rec)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := fmt.Sprintf("w%d", w)
			for i := 0; i < 200; i++ {
				c.TaskFail(site)
				c.PoisonOracle(fmt.Sprintf("%s/%d", site, i))
			}
		}(w)
	}
	wg.Wait()
	for kind, n := range c.Injected() {
		if got := rec.Counter("chaos." + kind + ".injected").Value(); got != n {
			t.Fatalf("%s: telemetry counter %d, injector says %d", kind, got, n)
		}
	}
}

// PoisonOracle models a corrupted backing store: its decision is a pure
// hash of (seed, site), so a poisoned entry stays poisoned on every read,
// the read order is irrelevant, and no per-site state accumulates.
func TestPoisonOracleIsPureHashOfSeedAndSite(t *testing.T) {
	const sites, p = 10000, 0.1
	site := func(i int) string { return fmt.Sprintf("K[%d,%d]", i/100, i%100) }
	rec := telemetry.New()
	c := NewChaos(ChaosConfig{Seed: 5, OraclePoison: p}, rec)
	read := func(c *Chaos, i int) bool {
		v, ok := c.PoisonOracle(site(i))
		if ok != math.IsNaN(v) {
			t.Fatalf("site %d: poisoned=%v but value %v", i, ok, v)
		}
		return ok
	}

	forward := make([]bool, sites)
	poisoned, reads := 0, int64(0)
	for i := range forward {
		forward[i] = read(c, i)
		if again := read(c, i); again != forward[i] {
			t.Fatalf("site %d: re-read changed the answer", i)
		}
		if forward[i] {
			poisoned++
			reads += 2
		}
	}
	if frac := float64(poisoned) / sites; frac < 0.08 || frac > 0.12 {
		t.Fatalf("hit fraction %.4f at p=%g, want [0.08, 0.12]", frac, p)
	}
	if got := c.Injected()["oracle_poison"]; got != reads {
		t.Fatalf("Injected()=%d, observed %d poisoned reads", got, reads)
	}
	if got := rec.Counter("chaos.oracle_poison.injected").Value(); got != reads {
		t.Fatalf("telemetry counter %d, observed %d poisoned reads", got, reads)
	}

	reversed := NewChaos(ChaosConfig{Seed: 5, OraclePoison: p}, nil)
	for i := sites - 1; i >= 0; i-- {
		if read(reversed, i) != forward[i] {
			t.Fatalf("site %d: answer depends on read order", i)
		}
	}

	other := NewChaos(ChaosConfig{Seed: 6, OraclePoison: p}, nil)
	for i := range forward {
		if read(other, i) != forward[i] {
			return
		}
	}
	t.Fatal("seeds 5 and 6 poison exactly the same sites")
}

func TestFromContext(t *testing.T) {
	if err := FromContext(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := FromContext(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled: %v", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := FromContext(dctx); !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline: %v", err)
	}
}

func TestWithRetryAfterRoundTrip(t *testing.T) {
	base := errors.New("boom")
	err := WithRetryAfter(base, 30*time.Millisecond)
	if !errors.Is(err, base) {
		t.Fatalf("WithRetryAfter broke errors.Is chain")
	}
	hint, ok := RetryAfterHint(err)
	if !ok || hint != 30*time.Millisecond {
		t.Fatalf("RetryAfterHint = %v, %v; want 30ms, true", hint, ok)
	}
	// Hints survive further wrapping.
	wrapped := WithRetryAfter(base, 10*time.Millisecond)
	outer := errors.Join(errors.New("context"), wrapped)
	if hint, ok := RetryAfterHint(outer); !ok || hint != 10*time.Millisecond {
		t.Fatalf("hint lost through wrapping: %v, %v", hint, ok)
	}
	if WithRetryAfter(nil, time.Second) != nil {
		t.Fatalf("WithRetryAfter(nil) must stay nil")
	}
	if got := WithRetryAfter(base, 0); got != base {
		t.Fatalf("non-positive hint must return err unchanged")
	}
	if _, ok := RetryAfterHint(base); ok {
		t.Fatalf("hint reported on unhinted error")
	}
}

func TestPanicErrorMessage(t *testing.T) {
	e := &PanicError{Label: "SKEL(3)", Value: "boom"}
	if got := e.Error(); got == "" || !errors.As(error(e), new(*PanicError)) {
		t.Fatalf("bad PanicError: %q", got)
	}
}
