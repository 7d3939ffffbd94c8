package workspace

import (
	"testing"

	"gofmm/internal/telemetry"
)

func TestGetZeroedAndSized(t *testing.T) {
	p := New()
	sizes := []int{1, 7, 255, 256, 257, 5000, 1 << 16}
	for _, n := range sizes {
		buf := p.Get(n)
		if len(buf) != n || cap(buf) != n {
			t.Fatalf("Get(%d) returned len %d cap %d", n, len(buf), cap(buf))
		}
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("Get(%d) buffer not zeroed at %d", n, i)
			}
		}
	}
	if st := p.Stats(); st != (Stats{Misses: int64(len(sizes))}) {
		t.Fatalf("stats = %+v, want %d misses and no hits", st, len(sizes))
	}
}

func TestNilPoolDegradesToAlloc(t *testing.T) {
	var p *Pool
	if buf := p.Get(100); len(buf) != 100 {
		t.Fatalf("nil pool Get broken")
	}
	p.AttachTelemetry(telemetry.New())
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("nil pool stats = %+v", st)
	}
}

func TestTelemetryCounters(t *testing.T) {
	p := New()
	p.Get(600) // traffic before attach must be carried over
	rec := telemetry.New()
	p.AttachTelemetry(rec)
	p.Get(600)
	if got := rec.Counter("workspace.misses").Value(); got != 2 || got != p.Stats().Misses {
		t.Fatalf("workspace.misses = %d, pool misses = %d, want 2", got, p.Stats().Misses)
	}
}
