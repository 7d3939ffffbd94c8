package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FlightRecorder keeps a bounded in-memory ring of the most recent span
// completions and errors so that when a run panics, stalls or deadlocks
// there is a post-mortem to read: the crash funnel (Recorder.ReportCrash)
// records the error and — when a dump directory is configured — writes the
// whole ring plus a metrics snapshot to disk as JSON. The live debug server
// also dumps on demand (POST /debug/flightrecord) and replays the ring on
// GET /debug/spans?replay=N.
//
// The recorder is cheap enough to leave on: recording a span is one mutex
// acquisition and a slot write, no allocation beyond the event itself.
type FlightRecorder struct {
	rec *Recorder

	// The rings and dump bookkeeping below are all guarded by mu.
	mu      sync.Mutex
	spans   []SpanEvent   // guarded by mu (circular, len == cap once full)
	next    int           // guarded by mu (next slot to overwrite)
	wrapped bool          // guarded by mu
	errs    []FlightError // guarded by mu (circular, same discipline)
	errNext int           // guarded by mu
	errWrap bool          // guarded by mu
	dumpDir string        // guarded by mu
	dumpSeq int           // guarded by mu
}

// flightErrKeep bounds the error ring (errors are rarer and more precious
// than spans, so the bound is fixed rather than configurable).
const flightErrKeep = 64

// FlightError is one recorded failure: a recovered panic, a provable
// deadlock, or anything else routed through ReportCrash.
type FlightError struct {
	Label     string  `json:"label"`
	TraceID   string  `json:"trace_id,omitempty"`
	Error     string  `json:"error"`
	AtSeconds float64 `json:"at_seconds"`
}

// FlightDumpSchema identifies the flight-recorder dump JSON layout.
const FlightDumpSchema = "gofmm.flight/v1"

// FlightDump is the serialized post-mortem: the span and error rings
// (oldest first) plus a full metrics snapshot taken at dump time.
type FlightDump struct {
	Schema string `json:"schema"`
	// Reason labels what triggered the dump ("panic", "manual", ...).
	Reason  string        `json:"reason,omitempty"`
	Spans   []SpanEvent   `json:"spans,omitempty"`
	Errors  []FlightError `json:"errors,omitempty"`
	Metrics Snapshot      `json:"metrics"`
}

// NewFlightRecorder creates a flight recorder retaining the last n span
// completions (n < 16 is raised to 16), subscribes it to the recorder's
// span-end feed, and attaches it so ReportCrash reaches it. Returns nil on
// a nil recorder — like every telemetry handle, a nil *FlightRecorder is a
// valid no-op.
func NewFlightRecorder(rec *Recorder, n int) *FlightRecorder {
	if rec == nil {
		return nil
	}
	if n < 16 {
		n = 16
	}
	f := &FlightRecorder{
		rec:   rec,
		spans: make([]SpanEvent, n),
		errs:  make([]FlightError, flightErrKeep),
	}
	rec.OnSpanEnd(f.recordSpan)
	rec.attachFlight(f)
	return f
}

// SetDumpDir enables automatic crash dumps into dir (created on first
// dump). Empty disables. Nil-safe.
func (f *FlightRecorder) SetDumpDir(dir string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.dumpDir = dir
	f.mu.Unlock()
}

// recordSpan appends a completed span to the ring (the OnSpanEnd observer).
func (f *FlightRecorder) recordSpan(ev SpanEvent) {
	f.mu.Lock()
	f.spans[f.next] = ev
	f.next++
	if f.next == len(f.spans) {
		f.next = 0
		f.wrapped = true
	}
	f.mu.Unlock()
}

// RecordError appends a failure to the error ring. Nil-safe.
func (f *FlightRecorder) RecordError(label, traceID string, err error) {
	if f == nil || err == nil {
		return
	}
	fe := FlightError{
		Label:     label,
		TraceID:   traceID,
		Error:     err.Error(),
		AtSeconds: f.rec.Since().Seconds(),
	}
	f.mu.Lock()
	f.errs[f.errNext] = fe
	f.errNext++
	if f.errNext == len(f.errs) {
		f.errNext = 0
		f.errWrap = true
	}
	f.mu.Unlock()
}

// RecentSpans returns up to n of the most recent span completions, oldest
// first (all of them when n ≤ 0). Nil-safe.
func (f *FlightRecorder) RecentSpans(n int) []SpanEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	all := ringSlice(f.spans, f.next, f.wrapped)
	f.mu.Unlock()
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Errors returns the recorded failures, oldest first. Nil-safe.
func (f *FlightRecorder) Errors() []FlightError {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return ringSlice(f.errs, f.errNext, f.errWrap)
}

// ringSlice linearizes a circular buffer into oldest-first order.
func ringSlice[T any](ring []T, next int, wrapped bool) []T {
	if !wrapped {
		return append([]T(nil), ring[:next]...)
	}
	out := make([]T, 0, len(ring))
	out = append(out, ring[next:]...)
	return append(out, ring[:next]...)
}

// Dump assembles the current post-mortem. Reason labels the trigger.
// Nil-safe (returns a schema-tagged empty dump).
func (f *FlightRecorder) Dump(reason string) FlightDump {
	d := FlightDump{Schema: FlightDumpSchema, Reason: reason}
	if f == nil {
		d.Metrics = (*Recorder)(nil).Snapshot()
		return d
	}
	d.Spans = f.RecentSpans(0)
	d.Errors = f.Errors()
	d.Metrics = f.rec.Snapshot()
	return d
}

// WriteDump writes the dump as indented JSON.
func (f *FlightRecorder) WriteDump(w io.Writer, reason string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f.Dump(reason)); err != nil {
		return fmt.Errorf("telemetry: encode flight dump: %w", err)
	}
	return nil
}

// DumpToFile writes the dump to path, creating parent directories.
func (f *FlightRecorder) DumpToFile(path, reason string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("telemetry: flight dump dir: %w", err)
	}
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: create flight dump: %w", err)
	}
	if err := f.WriteDump(file, reason); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("telemetry: close flight dump: %w", err)
	}
	return nil
}

// autoDump writes a crash dump when a dump directory is configured. Dump
// files are numbered within the process (flight-0001.panic.json, ...) so
// successive crashes never overwrite each other. Failures to write are
// reported through the logger (never panic inside the crash path).
func (f *FlightRecorder) autoDump(reason string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	dir := f.dumpDir
	f.dumpSeq++
	seq := f.dumpSeq
	f.mu.Unlock()
	if dir == "" {
		return
	}
	name := fmt.Sprintf("flight-%04d.%s.json", seq, SanitizeMetricName(reason))
	path := filepath.Join(dir, name)
	if err := f.DumpToFile(path, reason); err != nil {
		if l := f.rec.Logger(); l != nil {
			l.Error("flight dump failed", "path", path, "err", err.Error())
		}
		return
	}
	if l := f.rec.Logger(); l != nil {
		l.Error("flight dump written", "path", path, "reason", reason)
	}
}
