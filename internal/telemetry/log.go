package telemetry

import (
	"log/slog"
)

// Structured-logging bridge. A Recorder can carry one *slog.Logger; every
// subsystem that already holds the recorder (core, sched via SetLogger,
// resilience, the live debug server) emits leveled JSON records through it
// instead of inventing its own sink. Nothing is logged until SetLogger is
// called, so the default remains silent exactly like the nil-Recorder
// telemetry contract.

// SetLogger attaches a structured logger to the recorder. Subsequent span
// completions log at Debug; chaos injections and retries at Warn; crashes,
// stalls and deadlocks at Error. Passing nil detaches. No-op on a nil
// recorder.
func (r *Recorder) SetLogger(l *slog.Logger) {
	if r == nil {
		return
	}
	r.logger.Store(l)
}

// Logger returns the attached logger, or nil when none (or on a nil
// recorder). Callers must nil-check: the zero state is "no logging".
func (r *Recorder) Logger() *slog.Logger {
	if r == nil {
		return nil
	}
	return r.logger.Load()
}

// attachFlight wires a flight recorder so crash reports reach its ring.
func (r *Recorder) attachFlight(f *FlightRecorder) {
	if r == nil {
		return
	}
	r.flight.Store(f)
}

// Flight returns the attached flight recorder, or nil.
func (r *Recorder) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.flight.Load()
}

// ReportCrash is the single funnel for "this run just went badly wrong":
// recovered panics and provable deadlocks both land here. It logs at Error
// through the attached logger and forwards to the attached flight
// recorder, which records the error and — when a dump directory is
// configured — writes a post-mortem dump to disk. Nil-safe in every
// position (nil recorder, nil error, no logger, no flight recorder).
func (r *Recorder) ReportCrash(label, traceID string, err error) {
	if r == nil || err == nil {
		return
	}
	if l := r.Logger(); l != nil {
		l.Error("crash", "label", label, "trace_id", traceID, "err", err.Error())
	}
	if f := r.Flight(); f != nil {
		f.RecordError(label, traceID, err)
		f.autoDump(label)
	}
}
