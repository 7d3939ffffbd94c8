package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlightRingRetainsMostRecent(t *testing.T) {
	rec := New()
	f := NewFlightRecorder(rec, 16)
	for i := 0; i < 40; i++ {
		rec.StartSpan(fmt.Sprintf("s%02d", i)).End()
	}
	got := f.RecentSpans(0)
	if len(got) != 16 {
		t.Fatalf("ring holds %d spans, want 16", len(got))
	}
	// Oldest-first linearization: the ring must hold exactly s24..s39.
	for i, ev := range got {
		if want := fmt.Sprintf("s%02d", 24+i); ev.Name != want {
			t.Fatalf("slot %d = %q, want %q", i, ev.Name, want)
		}
	}
	if tail := f.RecentSpans(3); len(tail) != 3 || tail[2].Name != "s39" {
		t.Fatalf("RecentSpans(3) = %v", tail)
	}
}

func TestFlightErrorRingAndDump(t *testing.T) {
	rec := New()
	f := NewFlightRecorder(rec, 0) // raised to the 16 minimum
	sp := rec.StartSpan("work")
	sp.SetAttr(AttrTraceID, "deadbeefcafef00d")
	sp.End()
	for i := 0; i < flightErrKeep+5; i++ {
		f.RecordError("task", fmt.Sprintf("tid%03d", i), errors.New("boom"))
	}
	errs := f.Errors()
	if len(errs) != flightErrKeep {
		t.Fatalf("error ring holds %d, want %d", len(errs), flightErrKeep)
	}
	if errs[len(errs)-1].TraceID != fmt.Sprintf("tid%03d", flightErrKeep+4) {
		t.Fatalf("newest error = %+v", errs[len(errs)-1])
	}

	d := f.Dump("manual")
	if d.Schema != FlightDumpSchema || d.Reason != "manual" {
		t.Fatalf("dump header = %q/%q", d.Schema, d.Reason)
	}
	if len(d.Spans) == 0 || d.Spans[0].TraceID != "deadbeefcafef00d" {
		t.Fatalf("dump spans = %+v", d.Spans)
	}
	var buf bytes.Buffer
	if err := f.WriteDump(&buf, "manual"); err != nil {
		t.Fatal(err)
	}
	var round FlightDump
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if round.Schema != FlightDumpSchema {
		t.Fatalf("round-tripped schema = %q", round.Schema)
	}
}

func TestFlightAutoDumpViaReportCrash(t *testing.T) {
	rec := New()
	f := NewFlightRecorder(rec, 32)
	dir := t.TempDir()
	f.SetDumpDir(dir)

	sp := rec.StartSpan("matvec")
	sp.SetAttr(AttrTraceID, "0123456789abcdef")
	sp.End()
	rec.ReportCrash("matvec", "0123456789abcdef", errors.New("injected panic"))

	matches, err := filepath.Glob(filepath.Join(dir, "flight-*.matvec.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("dump files = %v (err %v)", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("auto dump not valid JSON: %v", err)
	}
	if d.Schema != FlightDumpSchema {
		t.Fatalf("schema = %q", d.Schema)
	}
	if !strings.Contains(string(raw), "0123456789abcdef") {
		t.Fatal("dump does not contain the crashing trace ID")
	}
	if len(d.Errors) != 1 || d.Errors[0].Label != "matvec" {
		t.Fatalf("dump errors = %+v", d.Errors)
	}
	// A second crash must get its own numbered file, never overwrite.
	rec.ReportCrash("matvec", "feedfacefeedface", errors.New("again"))
	matches, _ = filepath.Glob(filepath.Join(dir, "flight-*.matvec.json"))
	if len(matches) != 2 {
		t.Fatalf("after second crash: %v", matches)
	}
}

func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.SetDumpDir("/nope")
	f.RecordError("x", "", errors.New("e"))
	if got := f.RecentSpans(5); got != nil {
		t.Fatalf("nil RecentSpans = %v", got)
	}
	if got := f.Errors(); got != nil {
		t.Fatalf("nil Errors = %v", got)
	}
	if d := f.Dump("r"); d.Schema != FlightDumpSchema {
		t.Fatalf("nil Dump schema = %q", d.Schema)
	}
	if NewFlightRecorder(nil, 8) != nil {
		t.Fatal("NewFlightRecorder(nil) must return nil")
	}
	var rec *Recorder
	rec.ReportCrash("x", "", errors.New("e")) // must not panic
}

func TestTraceIDContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if id, ok := TraceIDFrom(ctx); ok || id != "" {
		t.Fatalf("empty ctx yielded trace ID %q", id)
	}
	ctx = ContextWithTraceID(ctx, "abc123")
	if id, ok := TraceIDFrom(ctx); !ok || id != "abc123" {
		t.Fatalf("round trip = %q, %v", id, ok)
	}
	// Empty IDs do not overwrite.
	if id, _ := TraceIDFrom(ContextWithTraceID(ctx, "")); id != "abc123" {
		t.Fatalf("empty ID overwrote: %q", id)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q is not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestSpanEventObserverAndAttrs(t *testing.T) {
	rec := New()
	var events []SpanEvent
	rec.OnSpanEnd(func(ev SpanEvent) { events = append(events, ev) })

	ctx := ContextWithTraceID(context.Background(), "feedbeef00000001")
	root := rec.StartSpan("outer")
	root.SetTraceIDFromContext(ctx)
	child := root.StartSpan("inner")
	child.SetAttr("k", "v")
	child.End()
	root.End()
	root.End() // second End must not re-emit

	if len(events) != 2 {
		t.Fatalf("observer saw %d events, want 2", len(events))
	}
	if events[0].Name != "inner" || events[0].Parent != "outer" || events[0].Attrs["k"] != "v" {
		t.Fatalf("inner event = %+v", events[0])
	}
	if events[1].Name != "outer" || events[1].TraceID != "feedbeef00000001" {
		t.Fatalf("outer event = %+v", events[1])
	}
	if got := root.Attr(AttrTraceID); got != "feedbeef00000001" {
		t.Fatalf("Attr = %q", got)
	}
}
