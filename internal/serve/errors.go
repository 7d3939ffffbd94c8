// Package serve is the overload-hardened serving layer: it turns compressed
// operators into a long-running multi-tenant HTTP service (compress once,
// evaluate many times — the paper's economic argument, made to survive
// production traffic).
//
// The layer is built as a protection stack in front of the evaluation core:
//
//	quota (per-tenant token bucket)      → 429 Too Many Requests
//	circuit breaker (crash containment)  → 503 + Retry-After
//	admission (bounded queue + shedding) → 503 + Retry-After
//	panic-contained evaluation           → typed *resilience.PanicError
//
// Every rejection is a typed error from the taxonomy below, carrying a
// resilience.WithRetryAfter hint that the HTTP layer maps to a Retry-After
// header. Nothing in the stack queues unboundedly: a 4× overload flood
// sheds, it does not accumulate.
package serve

import (
	"errors"
	"net/http"

	"gofmm/internal/resilience"
)

// The serving-layer error taxonomy. Handlers and clients dispatch with
// errors.Is; the HTTP boundary maps each sentinel to exactly one status
// code (see HTTPStatus), so the overload-response contract — 429 for "you
// specifically are over quota", 503 for "the server as a whole cannot take
// more right now" — is enforced in one place.
var (
	// ErrOverloaded is returned when an operator's admission queue is full:
	// the request is shed immediately rather than queued unboundedly.
	// Mapped to 503 with a Retry-After hint.
	ErrOverloaded = errors.New("serve: operator overloaded, request shed")
	// ErrQuotaExceeded is returned when a tenant's token bucket is empty.
	// Mapped to 429 with a Retry-After hint naming the refill time.
	ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")
	// ErrBreakerOpen is returned while an operator's circuit breaker is
	// open after repeated panics/stalls, and while a half-open probe is
	// already in flight. Mapped to 503 with the remaining cooldown as the
	// Retry-After hint.
	ErrBreakerOpen = errors.New("serve: circuit breaker open")
	// ErrDraining is returned for requests arriving after graceful drain
	// began: the server stops admitting but answers everything already in
	// flight. Mapped to 503 (the load balancer should already have seen
	// /readyz flip).
	ErrDraining = errors.New("serve: server draining")
	// ErrUnknownOperator is returned for requests naming an operator that
	// is not registered. Mapped to 404.
	ErrUnknownOperator = errors.New("serve: unknown operator")
	// ErrUnsupported is returned when the named operator does not support
	// the requested operation (e.g. Solve on a non-HSS compression).
	// Mapped to 501.
	ErrUnsupported = errors.New("serve: operation not supported by operator")
)

// HTTPStatus maps a serving-path error onto the response-status taxonomy.
// The split that matters operationally: 429 means "this tenant should slow
// down", 503 means "the service is saturated or recovering — anyone may
// retry after the hint", 4xx means "the request itself is wrong and
// retrying it verbatim cannot help".
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrBreakerOpen), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownOperator):
		return http.StatusNotFound
	case errors.Is(err, ErrUnsupported):
		return http.StatusNotImplemented
	case errors.Is(err, resilience.ErrInvalidInput):
		return http.StatusBadRequest
	case errors.Is(err, resilience.ErrTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, resilience.ErrCancelled):
		// The client went away mid-request; nobody is listening, but access
		// logs and tests see nginx's de-facto "client closed request".
		return 499
	default:
		// Panics, stalls, and anything else the stack contained.
		return http.StatusInternalServerError
	}
}

// ErrKind names the taxonomy sentinel err resolves to — the stable string
// carried in JSON error responses so clients dispatch without parsing
// prose.
func ErrKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrQuotaExceeded):
		return "quota_exceeded"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrBreakerOpen):
		return "breaker_open"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrUnknownOperator):
		return "unknown_operator"
	case errors.Is(err, ErrUnsupported):
		return "unsupported"
	case errors.Is(err, resilience.ErrInvalidInput):
		return "invalid_input"
	case errors.Is(err, resilience.ErrTimeout):
		return "timeout"
	case errors.Is(err, resilience.ErrCancelled):
		return "cancelled"
	case errors.Is(err, resilience.ErrStalled):
		return "stalled"
	default:
		var pe *resilience.PanicError
		if errors.As(err, &pe) {
			return "panic"
		}
		return "internal"
	}
}
