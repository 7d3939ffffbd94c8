// Package resilience is the cross-cutting fault-tolerance layer of the
// repository: a typed error taxonomy shared by every public entry point and
// a deterministic seedable fault-injection harness (chaos hooks) that makes
// recovery paths testable in CI.
//
// The paper's runtime (§2.3) assumes every task completes; a production
// GOFMM service cannot. The scheduler retries failed tasks, rank-revealing
// factorizations that miss tolerance degrade by policy, and oracle
// validation rejects poisoned entries; the chaos harness exists so those
// recovery paths run on every CI build rather than only on the bad day.
//
// Task-failure decisions are drawn from per-site deterministic RNG streams
// keyed by (seed, site), and oracle poisoning is a pure hash of (seed,
// site), so a chaos run is reproducible regardless of goroutine
// interleaving: the k-th decision at a given site is the same in every run
// with the same seed.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// The error taxonomy of the resilience layer. Every recovery path that gives
// up resolves to one of these sentinels (wrapped with context), so callers
// can dispatch with errors.Is instead of string matching.
var (
	// ErrCancelled is returned when a context is cancelled mid-operation.
	ErrCancelled = errors.New("resilience: operation cancelled")
	// ErrTimeout is returned when a context deadline expires mid-operation.
	ErrTimeout = errors.New("resilience: operation timed out")
	// ErrStalled is returned by the scheduler when DAG execution can make
	// no progress: a dependency cycle left tasks that can never become
	// ready.
	ErrStalled = errors.New("resilience: execution stalled")
	// ErrTaskFailed is returned when a task keeps failing after exhausting
	// its retry budget.
	ErrTaskFailed = errors.New("resilience: task failed after retries")
	// ErrTolerance is returned (in strict mode) when an interpolative
	// decomposition cannot reach the requested tolerance at MaxRank.
	ErrTolerance = errors.New("resilience: tolerance not reached at maximum rank")
	// ErrInvalidInput is returned for dimension mismatches and other caller
	// errors that previously panicked.
	ErrInvalidInput = errors.New("resilience: invalid input")
)

// retryAfterError decorates an error with a server-provided "try again in
// d" hint. It stays in the taxonomy: errors.Is/As see through it to the
// wrapped sentinel.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.err, e.after)
}

func (e *retryAfterError) Unwrap() error { return e.err }

// WithRetryAfter attaches a retry hint to err: the serving layer maps it to
// an HTTP Retry-After header. A nil err or non-positive hint returns err
// unchanged.
func WithRetryAfter(err error, after time.Duration) error {
	if err == nil || after <= 0 {
		return err
	}
	return &retryAfterError{err: err, after: after}
}

// RetryAfterHint extracts the innermost retry hint attached with
// WithRetryAfter anywhere in err's chain (0, false when there is none).
func RetryAfterHint(err error) (time.Duration, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}

// PanicError is a worker panic recovered into a typed error: the task label,
// the recovered value and the goroutine stack at the recovery point.
type PanicError struct {
	Label string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("resilience: panic in task %q: %v", e.Label, e.Value)
}

// FromContext translates a context's state into the taxonomy: nil when the
// context is live, ErrCancelled/ErrTimeout (wrapping the cause) otherwise.
func FromContext(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	switch err := ctx.Err(); err {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	default:
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
}
