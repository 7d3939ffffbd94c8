package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
)

// traceIDFallback numbers IDs when crypto/rand is unavailable.
var traceIDFallback atomic.Int64

// Trace IDs give every externally-initiated request (a Matvec call, a
// coalesced batch flush, a CLI run) a stable identity that survives
// coalescing, retries and goroutine hops. They travel in the context, are
// stamped onto spans as the "trace_id" attribute, and show up in slog
// records, /debug/spans NDJSON, and flight-recorder dumps — so a slow or
// crashed request can be traced from the caller's span to the flush span
// that actually executed it.

// AttrTraceID is the span-attribute key carrying the request trace ID.
const AttrTraceID = "trace_id"

// traceIDKey is the private context key type for trace IDs.
type traceIDKey struct{}

// ContextWithTraceID returns a context carrying the given trace ID. An
// empty id returns ctx unchanged, so call sites can propagate
// possibly-absent IDs without a conditional.
func ContextWithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the trace ID from the context ("" , false when none
// was attached).
func TraceIDFrom(ctx context.Context) (string, bool) {
	if ctx == nil {
		return "", false
	}
	id, ok := ctx.Value(traceIDKey{}).(string)
	return id, ok && id != ""
}

// NewTraceID returns a fresh 16-hex-digit random trace ID. It never fails:
// if the system entropy source is unavailable it falls back to a counter so
// IDs stay unique within the process.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := traceIDFallback.Add(1)
		for i := 0; i < 8; i++ {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}
