package workspace

import (
	"testing"

	"gofmm/internal/telemetry"
)

func TestGetZeroedAndSized(t *testing.T) {
	p := New()
	for _, n := range []int{1, 7, 255, 256, 257, 5000, 1 << 16} {
		buf := p.Get(n)
		if len(buf) != n {
			t.Fatalf("Get(%d) returned len %d", n, len(buf))
		}
		for i := range buf {
			buf[i] = 1 // dirty it
		}
		p.Put(buf)
	}
	// Second round must come back zeroed despite the dirtying above.
	for _, n := range []int{1, 7, 255, 256, 257, 5000, 1 << 16} {
		buf := p.Get(n)
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("Get(%d) buffer not zeroed at %d", n, i)
			}
		}
	}
}

// A Put buffer comes back from the next Get of its size class. Under the
// race detector sync.Pool drops a share of Puts on purpose, so there the
// test asserts the pool's accounting and that a hit hands back the one
// buffer that was put, not that the hit happens.
func TestPoolReusesBuffers(t *testing.T) {
	p := New()
	a := p.Get(1000)
	p.Put(a)
	b := p.Get(900) // same class (1024): must be the recycled buffer
	st := p.Stats()
	if raceEnabled {
		if st.Hits+st.Misses != 2 || st.Returns != 1 || st.BytesReused != st.Hits*1024*8 {
			t.Fatalf("stats = %+v, want 2 gets, 1 return and 8192 bytes reused per hit", st)
		}
		if st.Hits == 1 && &a[0] != &b[0] {
			t.Fatalf("the hit handed back a buffer other than the one put")
		}
		return
	}
	if &a[0] != &b[0] {
		t.Fatalf("expected buffer reuse within a size class")
	}
	if st.Hits != 1 || st.Misses != 1 || st.Returns != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 return", st)
	}
	if st.BytesReused != 1024*8 {
		t.Fatalf("BytesReused = %d, want %d", st.BytesReused, 1024*8)
	}
}

func TestPutOddCapacityIsSafe(t *testing.T) {
	p := New()
	// A 1500-cap buffer files under the 1024 class; a later Get(1024) must
	// still have enough capacity.
	p.Put(make([]float64, 1500))
	buf := p.Get(1024)
	if len(buf) != 1024 {
		t.Fatalf("len = %d", len(buf))
	}
	// Tiny buffers are dropped, not filed.
	p.Put(make([]float64, 3))
	small := p.Get(3)
	if len(small) != 3 {
		t.Fatalf("len = %d", len(small))
	}
}

func TestNilPoolDegradesToAlloc(t *testing.T) {
	var p *Pool
	buf := p.Get(100)
	if len(buf) != 100 {
		t.Fatalf("nil pool Get broken")
	}
	p.Put(buf)
	M := p.GetMatrix(4, 5)
	if M.Rows != 4 || M.Cols != 5 {
		t.Fatalf("nil pool GetMatrix broken")
	}
	p.PutMatrix(M)
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("nil pool stats = %+v", st)
	}
	s := p.NewScope()
	if N := s.Matrix(2, 2); N.Rows != 2 {
		t.Fatalf("nil pool scope broken")
	}
	s.Release()
}

// Release hands back exactly the scope's unkept matrices. The assertions
// read the pool's own accounting rather than which buffer the next Get
// returns: sync.Pool may drop any put (the race detector drops a random
// share on purpose), so reuse of A is never promised.
func TestScopeReleaseAndKeep(t *testing.T) {
	p := New()
	s := p.NewScope()
	s.Matrix(40, 40) // A, released with the scope
	B := s.Matrix(40, 40)
	s.Keep(B)
	before := p.Stats().Returns
	s.Release()
	// Release returns A and only A.
	if got := p.Stats().Returns - before; got != 1 {
		t.Fatalf("release returned %d matrices, want 1 (A, not the kept B)", got)
	}
	// B was kept: no later Get may hand out its storage.
	for i := 0; i < 64; i++ {
		if C := p.GetMatrix(40, 40); &C.Data[0] == &B.Data[0] {
			t.Fatalf("kept matrix was recycled by Get %d", i)
		}
	}
}

func TestTelemetryCounters(t *testing.T) {
	p := New()
	pre := p.Get(600) // traffic before attach must be carried over
	p.Put(pre)
	rec := telemetry.New()
	p.AttachTelemetry(rec)
	buf := p.Get(600)
	p.Put(buf)
	if got := rec.Counter("workspace.hits").Value(); got != p.Stats().Hits {
		t.Fatalf("workspace.hits = %d, pool hits = %d", got, p.Stats().Hits)
	}
	if got := rec.Counter("workspace.misses").Value(); got != p.Stats().Misses {
		t.Fatalf("workspace.misses = %d, pool misses = %d", got, p.Stats().Misses)
	}
	if got := rec.Counter("workspace.returns").Value(); got != 2 {
		t.Fatalf("workspace.returns = %d, want 2", got)
	}
	if got := rec.Counter("workspace.bytes_reused").Value(); got != p.Stats().BytesReused {
		t.Fatalf("workspace.bytes_reused = %d, want %d", got, p.Stats().BytesReused)
	}
}
