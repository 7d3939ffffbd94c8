package gofmm

// Determinism golden test: the same seed and config must reproduce the
// compression byte-for-byte and the batched evaluation bit-for-bit — across
// repeated runs and across worker-pool sizes. This catches the classic
// nondeterminism leaks of a task-parallel tree code: map-iteration order
// sneaking into a traversal, floating-point reduction order depending on
// which worker finishes first, or a pooled buffer carrying state between
// runs. Evaluation must be bit-identical even across 1-vs-N workers because
// every task writes a disjoint buffer slice and accumulates its own inputs
// in a fixed order; the DAG only constrains *when* a task runs, never what
// it computes.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
)

func determinismConfig(workers int) Config {
	return Config{
		LeafSize: 32, MaxRank: 48, Tol: 1e-5, Kappa: 8, Budget: 0.05,
		Distance: core.Angle, Exec: core.Dynamic, NumWorkers: workers,
		Seed: 42, CacheBlocks: true,
	}
}

// serialize round-trips h through Save and returns the bytes.
func serialize(t *testing.T, h *Hierarchical) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(h, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bitIdentical reports whether two matrices are equal under ==, i.e. the
// exact same bit patterns (no tolerance).
func bitIdentical(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if ca[i] != cb[i] {
				return false
			}
		}
	}
	return true
}

func TestDeterminismGolden(t *testing.T) {
	const n, r = 384, 9
	K := randomSPD(n, 777)
	rng := rand.New(rand.NewSource(8))
	X := linalg.GaussianMatrix(rng, n, r)

	// Two independent compressions, same seed + config (4 workers each):
	// the serialized trees must be byte-identical.
	h1, err := Compress(NewDense(K), determinismConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Compress(NewDense(K), determinismConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := serialize(t, h1), serialize(t, h2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("serialized trees differ between two same-seed compressions (%d vs %d bytes)", len(b1), len(b2))
	}

	// Two batched evaluations on the same operator: bit-identical.
	U1 := h1.Matmat(X)
	U2 := h1.Matmat(X)
	if !bitIdentical(U1, U2) {
		t.Fatal("Matmat is not bit-identical across two runs on the same operator")
	}

	// The independently compressed operator must evaluate bit-identically
	// too (its structure is byte-identical, so any difference would come
	// from hidden state outside the serialized form).
	if U := h2.Matmat(X); !bitIdentical(U1, U) {
		t.Fatal("Matmat differs between two same-seed compressions")
	}

	// 1-vs-N workers: the task DAG constrains execution order, not results.
	// Evaluate the same compressed operator sequentially, with one worker,
	// and with eight workers; all must match bit-for-bit.
	for _, workers := range []int{1, 8} {
		hw, err := Compress(NewDense(K), determinismConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if bw := serialize(t, hw); !bytes.Equal(b1, bw) {
			t.Fatalf("serialized tree differs between 4 and %d workers", workers)
		}
		if U := hw.Matmat(X); !bitIdentical(U1, U) {
			t.Fatalf("Matmat differs between 4 and %d workers", workers)
		}
	}
	seq := determinismConfig(1)
	seq.Exec = core.Sequential
	hs, err := Compress(NewDense(K), seq)
	if err != nil {
		t.Fatal(err)
	}
	if U := hs.Matmat(X); !bitIdentical(U1, U) {
		t.Fatal("Matmat differs between dynamic and sequential executors")
	}
}

// TestPlanDeterminismGolden extends the golden determinism contract to
// compiled evaluation plans: for a fixed seed and config the lowered op
// sequence must be byte-stable (identical structural digests across
// independent compilations and across worker-pool sizes — lowering is a
// symbolic traversal, workers never touch it), and the replayed evaluation
// must be bit-identical across repeated replays, across independently
// compiled operators, across 1-vs-N replay workers, and against the
// sequential executor. Replay tasks write disjoint arena regions with a
// fixed per-task op order, so the stage barriers only constrain *when* an
// op runs, never what it computes.
func TestPlanDeterminismGolden(t *testing.T) {
	const n, r = 384, 3
	K := randomSPD(n, 777)
	rng := rand.New(rand.NewSource(13))
	X := linalg.GaussianMatrix(rng, n, r)
	x1 := linalg.GaussianMatrix(rng, n, 1)

	compile := func(workers int) *Hierarchical {
		t.Helper()
		h, err := Compress(NewDense(K), determinismConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.CompilePlan(); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h1 := compile(4)
	digest := h1.Plan().DigestHex()
	if len(digest) != 64 {
		t.Fatalf("plan digest %q is not a sha256 hex string", digest)
	}

	// Same seed, independent compression: byte-identical op-sequence digest.
	h2 := compile(4)
	if d := h2.Plan().DigestHex(); d != digest {
		t.Fatalf("plan digest differs between two same-seed compressions:\n%s\n%s", digest, d)
	}

	// Replays on one operator: bit-identical across runs, both widths.
	U1 := h1.Matmat(X)
	if U := h1.Matmat(X); !bitIdentical(U1, U) {
		t.Fatal("plan replay is not bit-identical across two runs")
	}
	u1 := h1.Matvec(x1)
	if u := h1.Matvec(x1); !bitIdentical(u1, u) {
		t.Fatal("width-1 plan replay is not bit-identical across two runs")
	}

	// The independently compiled operator replays bit-identically too.
	if U := h2.Matmat(X); !bitIdentical(U1, U) {
		t.Fatal("plan replay differs between two same-seed compressions")
	}

	// 1-vs-N replay workers: same digest, same bits.
	for _, workers := range []int{1, 8} {
		hw := compile(workers)
		if d := hw.Plan().DigestHex(); d != digest {
			t.Fatalf("plan digest differs between 4 and %d workers", workers)
		}
		if U := hw.Matmat(X); !bitIdentical(U1, U) {
			t.Fatalf("plan replay differs between 4 and %d workers", workers)
		}
		if u := hw.Matvec(x1); !bitIdentical(u1, u) {
			t.Fatalf("width-1 plan replay differs between 4 and %d workers", workers)
		}
	}

	// Sequential executor: the replay runs on the calling goroutine, the
	// bits must not notice.
	seq := determinismConfig(1)
	seq.Exec = core.Sequential
	hs, err := Compress(NewDense(K), seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.CompilePlan(); err != nil {
		t.Fatal(err)
	}
	if d := hs.Plan().DigestHex(); d != digest {
		t.Fatal("plan digest differs between dynamic and sequential executors")
	}
	if U := hs.Matmat(X); !bitIdentical(U1, U) {
		t.Fatal("plan replay differs between dynamic and sequential executors")
	}

	// And the compiled path tracks the interpreter to near-machine
	// precision (the wall in gofmm_plan_test.go sweeps this property; here
	// it pins the golden fixture).
	ref, err := h1.InterpMatmatCtx(context.Background(), X)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.RelFrobDiff(U1, ref); d > 1e-13 {
		t.Fatalf("golden fixture: plan vs interpreter differ by %.3e", d)
	}
}
