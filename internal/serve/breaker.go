package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gofmm/internal/resilience"
)

// BreakerConfig tunes one operator's circuit breaker. The breaker exists
// for the failure modes that poison every subsequent request — kernel
// panics (*resilience.PanicError) and scheduler stalls (ErrStalled) — not
// for per-request errors like cancellations or bad input, which say
// nothing about the operator's health.
type BreakerConfig struct {
	// Threshold is the number of consecutive trippable failures that opens
	// the breaker (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe (default 5s). One successful probe closes it again.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

// BreakerState is the coarse state exposed through the
// serve.breaker_state gauge.
type BreakerState int

const (
	// BreakerClosed: traffic flows normally.
	BreakerClosed BreakerState = 0
	// BreakerOpen: all traffic is rejected until the cooldown elapses.
	BreakerOpen BreakerState = 1
	// BreakerHalfOpen: one probe at a time is admitted; a success closes
	// the breaker, a trippable failure reopens it.
	BreakerHalfOpen BreakerState = 2
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-operator three-state circuit breaker. Callers pair every
// nil allow() with exactly one record(err) carrying the evaluation outcome;
// record with a non-evaluation error (shed, cancelled) is neutral in every
// state, so the pairing discipline is safe to apply unconditionally.
type breaker struct {
	cfg     BreakerConfig
	now     func() time.Time
	onState func(BreakerState) // telemetry hook, called outside mu

	mu          sync.Mutex
	state       BreakerState // guarded by mu
	consecFails int          // guarded by mu
	openedAt    time.Time    // guarded by mu
	probeBusy   bool         // guarded by mu
}

func newBreaker(cfg BreakerConfig, now func() time.Time, onState func(BreakerState)) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{cfg: cfg.withDefaults(), now: now, onState: onState}
}

// trippable reports whether err indicates operator poisoning rather than a
// per-request problem.
func trippable(err error) bool {
	if err == nil {
		return false
	}
	var pe *resilience.PanicError
	return errors.As(err, &pe) || errors.Is(err, resilience.ErrStalled)
}

// allow gates one request. In the open state it rejects with the remaining
// cooldown as the Retry-After hint; at cooldown expiry it transitions to
// half-open and admits a single probe at a time.
func (b *breaker) allow() error {
	b.mu.Lock()
	var notify func(BreakerState)
	var newState BreakerState
	defer func() {
		b.mu.Unlock()
		if notify != nil {
			notify(newState)
		}
	}()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		remaining := b.cfg.Cooldown - b.now().Sub(b.openedAt)
		if remaining > 0 {
			return resilience.WithRetryAfter(
				fmt.Errorf("%w: cooling down", ErrBreakerOpen), remaining)
		}
		b.state = BreakerHalfOpen
		b.probeBusy = false
		notify, newState = b.onState, b.state
		fallthrough
	default: // BreakerHalfOpen
		if b.probeBusy {
			return resilience.WithRetryAfter(
				fmt.Errorf("%w: half-open, probe in flight", ErrBreakerOpen),
				b.cfg.Cooldown)
		}
		b.probeBusy = true
		return nil
	}
}

// record reports the outcome of a request previously admitted by allow.
func (b *breaker) record(err error) {
	b.mu.Lock()
	var notify func(BreakerState)
	var newState BreakerState
	switch b.state {
	case BreakerClosed:
		switch {
		case trippable(err):
			b.consecFails++
			if b.consecFails >= b.cfg.Threshold {
				b.state = BreakerOpen
				b.openedAt = b.now()
				notify, newState = b.onState, b.state
			}
		case err == nil:
			b.consecFails = 0
		}
		// Non-trippable errors are neutral: a flood of client
		// cancellations must neither trip nor heal the breaker.
	case BreakerHalfOpen:
		if !b.probeBusy {
			// A straggler admitted before the trip finished late; its
			// verdict says nothing about the probe.
			break
		}
		b.probeBusy = false
		switch {
		case err == nil:
			b.state = BreakerClosed
			b.consecFails = 0
			notify, newState = b.onState, b.state
		case trippable(err):
			b.state = BreakerOpen
			b.openedAt = b.now()
			notify, newState = b.onState, b.state
		}
		// Neutral outcomes leave the probe slot free for the next request.
	case BreakerOpen:
		// Stragglers from before the trip; the cooldown clock governs.
	}
	b.mu.Unlock()
	if notify != nil {
		notify(newState)
	}
}

// current returns the state for inspection/telemetry.
func (b *breaker) current() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
