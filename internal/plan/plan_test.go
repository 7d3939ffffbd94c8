package plan

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
)

// buildDense lowers U = A·W for a constant n×n A as a three-stage plan
// (gather, one GEMM, scatter) — the smallest complete schedule.
func buildDense(t *testing.T, A *linalg.Matrix) *Plan {
	t.Helper()
	n := A.Rows
	b := NewBuilder(n)
	wt := b.Region(n)
	out := b.Region(n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	b.BeginStage("gather", false)
	b.BeginTask()
	b.Gather(External, perm, wt)
	b.BeginStage("compute", true)
	b.BeginTask()
	b.Gemm(false, A, wt, out, 0)
	b.BeginStage("finish", false)
	b.BeginTask()
	b.Gather(out, perm, External)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExecuteDensePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	A := linalg.GaussianMatrix(rng, 6, 6)
	p := buildDense(t, A)
	W := linalg.GaussianMatrix(rng, 6, 3)
	U := linalg.NewMatrix(6, 3)
	if err := p.Execute(context.Background(), W, U, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	want := linalg.MatMul(false, false, A, W)
	if d := linalg.RelFrobDiff(U, want); d > 1e-14 {
		t.Fatalf("dense plan replay off by %g", d)
	}
	if got := p.FlopsPerCol(); got != 2*6*6 {
		t.Fatalf("FlopsPerCol = %g, want 72", got)
	}
	if p.N() != 6 || p.NumOps() != 3 || p.NumStages() != 3 {
		t.Fatalf("unexpected structure: %s", p)
	}
}

// TestStackedRefAliasing exercises the Sub/Span view mechanism: two child
// GEMMs write the halves of one stacked region, a parent GEMM consumes the
// whole, replacing the interpreter's copy-based stacking.
func TestStackedRefAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// n = 4: children own rows [0,2) and [2,4); each maps its rows through a
	// 2×2 basis into its half of a 4-row stacked region; the parent applies
	// a 4×4 basis to the stack.
	Bl := linalg.GaussianMatrix(rng, 2, 2)
	Br := linalg.GaussianMatrix(rng, 2, 2)
	P := linalg.GaussianMatrix(rng, 4, 4)
	b := NewBuilder(4)
	wt := b.Region(4)
	base := b.Alloc(4)
	stacked := Ref{Base: base, Sub: 0, Rows: 4, Span: 4}
	top := Ref{Base: base, Sub: 0, Rows: 2, Span: 4}
	bot := Ref{Base: base, Sub: 2, Rows: 2, Span: 4}
	out := b.Region(4)
	perm := []int{0, 1, 2, 3}
	b.BeginStage("gather", false)
	b.BeginTask()
	b.Gather(External, perm, wt)
	b.BeginStage("children", true)
	b.BeginTask()
	b.Gemm(false, Bl, Ref{Base: wt.Base, Sub: 0, Rows: 2, Span: 4}, top, 0)
	b.BeginTask()
	b.Gemm(false, Br, Ref{Base: wt.Base, Sub: 2, Rows: 2, Span: 4}, bot, 0)
	b.BeginStage("parent", false)
	b.BeginTask()
	b.Gemm(false, P, stacked, out, 0)
	b.BeginStage("finish", false)
	b.BeginTask()
	b.Gather(out, perm, External)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	W := linalg.GaussianMatrix(rng, 4, 2)
	U := linalg.NewMatrix(4, 2)
	U2 := linalg.NewMatrix(4, 2)
	for _, out := range []*linalg.Matrix{U, U2} {
		if err := p.Execute(context.Background(), W, out, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Reference: stack the two child products, apply P.
	ref := linalg.NewMatrix(4, 2)
	ref.View(0, 0, 2, 2).CopyFrom(linalg.MatMul(false, false, Bl, W.View(0, 0, 2, 2)))
	ref.View(2, 0, 2, 2).CopyFrom(linalg.MatMul(false, false, Br, W.View(2, 0, 2, 2)))
	want := linalg.MatMul(false, false, P, ref)
	if d := linalg.RelFrobDiff(U, want); d > 1e-14 {
		t.Fatalf("aliased stacking replay off by %g", d)
	}
	// Replays through the pooled state must be bit-identical.
	for j := 0; j < U.Cols; j++ {
		a, c := U.Col(j), U2.Col(j)
		for i := range a {
			if a[i] != c[i] {
				t.Fatal("replay not bit-identical")
			}
		}
	}
}

// TestRowRecords replays gathers and scatters between arena regions, the
// records an interpolation basis lowers to: two gathers split the input's
// rows, a scatter pair writes them back to a region in a new order, and
// the output gather permutes that region into U.
func TestRowRecords(t *testing.T) {
	b := NewBuilder(4)
	wt, x, y, out := b.Region(4), b.Region(2), b.Region(2), b.Region(4)
	b.BeginStage("gather", false)
	b.BeginTask()
	b.Gather(External, []int{2, 0, 3, 1}, wt) // wt = W[2, 0, 3, 1]
	b.BeginStage("split", true)
	b.BeginTask()
	b.Gather(wt, []int{3, 0}, x) // x = W[1, 2]
	b.BeginTask()
	b.Gather(wt, []int{1, 2}, y) // y = W[0, 3]
	b.BeginStage("merge", false)
	b.BeginTask()
	b.Scatter(x, []int{0, 3}, out) // out = W[1, 3, 0, 2]
	b.Scatter(y, []int{2, 1}, out)
	b.Gather(out, []int{2, 0, 3, 1}, External) // U = W
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	W := linalg.GaussianMatrix(rand.New(rand.NewSource(9)), 4, 3)
	U := linalg.NewMatrix(4, 3)
	for _, workers := range []int{1, 2} {
		if err := p.Execute(context.Background(), W, U, ExecOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if !linalg.EqualApprox(U, W, 0) {
			t.Fatalf("workers=%d: row records did not round-trip the input", workers)
		}
	}
}

// buildSameShape lowers a parallel stage of `tasks` single-GEMM tasks with
// identical 2×2 shapes over disjoint regions.
func buildSameShape(t *testing.T, tasks int, A *linalg.Matrix) *Plan {
	t.Helper()
	n := 2 * tasks
	b := NewBuilder(n)
	wt := b.Region(n)
	out := b.Region(n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	b.BeginStage("gather", false)
	b.BeginTask()
	b.Gather(External, perm, wt)
	b.BeginStage("blocks", true)
	for k := 0; k < tasks; k++ {
		b.BeginTask()
		src := Ref{Base: wt.Base, Sub: 2 * k, Rows: 2, Span: n}
		dst := Ref{Base: out.Base, Sub: 2 * k, Rows: 2, Span: n}
		b.Gemm(false, A, src, dst, 0)
	}
	b.BeginStage("finish", false)
	b.BeginTask()
	b.Gather(out, perm, External)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGemmBatching replays a parallel stage of same-shape single-GEMM
// tasks on four workers: each task stays its own dispatch unit and every
// block lands in its own rows.
func TestGemmBatching(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	A := linalg.GaussianMatrix(rng, 2, 2)
	p := buildSameShape(t, 11, A)
	// gather + 11 GEMM tasks + scatter.
	if p.NumTasks() != 13 {
		t.Fatalf("NumTasks = %d, want 13", p.NumTasks())
	}
	W := linalg.GaussianMatrix(rng, 22, 2)
	U := linalg.NewMatrix(22, 2)
	if err := p.Execute(context.Background(), W, U, ExecOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 11; k++ {
		want := linalg.MatMul(false, false, A, W.View(2*k, 0, 2, 2))
		if d := linalg.RelFrobDiff(U.View(2*k, 0, 2, 2), want); d > 1e-14 {
			t.Fatalf("block %d off by %g", k, d)
		}
	}
}

func TestDigestStableAndStructureSensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	A := linalg.GaussianMatrix(rng, 5, 5)
	p1 := buildDense(t, A)
	p2 := buildDense(t, A)
	if p1.DigestHex() != p2.DigestHex() {
		t.Fatal("same lowering produced different digests")
	}
	if len(p1.DigestHex()) != 64 {
		t.Fatalf("DigestHex length %d", len(p1.DigestHex()))
	}
	// The digest covers structure, not block values: a different constant
	// with the same shape hashes identically...
	B := linalg.GaussianMatrix(rng, 5, 5)
	if p3 := buildDense(t, B); p3.DigestHex() != p1.DigestHex() {
		t.Fatal("digest depends on constant-block values")
	}
	// ...but a different shape does not.
	C := linalg.GaussianMatrix(rng, 6, 6)
	if p4 := buildDense(t, C); p4.DigestHex() == p1.DigestHex() {
		t.Fatal("digest insensitive to operand shapes")
	}
	if !strings.Contains(p1.String(), "ops=3") {
		t.Fatalf("String() = %q", p1.String())
	}
}

// TestDigestConcurrentFirstCalls: the digest is computed on the first
// DigestHex call, so goroutines racing to make it must all read the value
// of a plan whose digest was computed alone (run it with -race).
func TestDigestConcurrentFirstCalls(t *testing.T) {
	A := linalg.GaussianMatrix(rand.New(rand.NewSource(5)), 7, 7)
	want := buildDense(t, A).DigestHex()
	p := buildDense(t, A)
	got := make([]string, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = p.DigestHex()
		}()
	}
	close(start)
	wg.Wait()
	for g, d := range got {
		if d != want {
			t.Errorf("goroutine %d read digest %s, want %s", g, d, want)
		}
	}
}

func TestBuilderRejectsMalformedLowerings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	A := linalg.GaussianMatrix(rng, 2, 3)
	cases := []struct {
		name  string
		drive func(b *Builder)
	}{
		{"task outside stage", func(b *Builder) { b.BeginTask() }},
		{"op outside task", func(b *Builder) {
			b.BeginStage("s", false)
			b.Zero(b.Region(2))
		}},
		{"nil gemm operand", func(b *Builder) {
			b.BeginStage("s", false)
			b.BeginTask()
			b.Gemm(false, nil, b.Region(3), b.Region(2), 0)
		}},
		{"gemm shape mismatch", func(b *Builder) {
			b.BeginStage("s", false)
			b.BeginTask()
			b.Gemm(false, A, b.Region(4), b.Region(2), 0)
		}},
		{"gemm bad beta", func(b *Builder) {
			b.BeginStage("s", false)
			b.BeginTask()
			b.Gemm(false, A, b.Region(3), b.Region(2), 0.5)
		}},
		{"mixed nil operand", func(b *Builder) {
			b.BeginStage("s", false)
			b.BeginTask()
			b.GemmMixed(false, nil, b.Region(3), b.Region(2), 0)
		}},
		{"mixed transposed shape mismatch", func(b *Builder) {
			b.BeginStage("s", false)
			b.BeginTask()
			b.GemmMixed(true, linalg.ToMatrix32(A), b.Region(3), b.Region(2), 0)
		}},
		{"gather arity", func(b *Builder) {
			b.BeginStage("s", false)
			b.BeginTask()
			b.Gather(External, []int{0, 1}, b.Region(3))
		}},
		{"scatter arity", func(b *Builder) {
			b.BeginStage("s", false)
			b.BeginTask()
			b.Scatter(b.Region(3), []int{0}, b.Region(3))
		}},
		{"row index out of range", func(b *Builder) {
			// Index 2 of the two-row x is y's first row, which is written,
			// so only the index check can catch it.
			x, y, z := b.Region(2), b.Region(2), b.Region(2)
			b.BeginStage("s", false)
			b.BeginTask()
			b.Zero(x)
			b.Zero(y)
			b.Gather(x, []int{0, 2}, z)
		}},
		{"scatter repeats a row", func(b *Builder) {
			x, d := b.Region(2), b.Region(2)
			b.BeginStage("s", false)
			b.BeginTask()
			b.Zero(x)
			b.Scatter(x, []int{1, 1}, d)
		}},
		{"scatter pair leaves a row unwritten", func(b *Builder) {
			x, y, d, e := b.Region(2), b.Region(1), b.Region(4), b.Region(4)
			b.BeginStage("s", false)
			b.BeginTask()
			b.Zero(x)
			b.Zero(y)
			b.Scatter(x, []int{0, 2}, d)
			b.Scatter(y, []int{3}, d)
			b.Copy(d, e) // row 1 of d was never written
		}},
		{"two tasks of a parallel stage scatter into one region", func(b *Builder) {
			x, y, d := b.Region(2), b.Region(2), b.Region(3)
			b.BeginStage("init", false)
			b.BeginTask()
			b.Zero(x)
			b.Zero(y)
			b.BeginStage("s", true)
			b.BeginTask()
			b.Scatter(x, []int{0, 1}, d)
			b.BeginTask()
			b.Scatter(y, []int{2, 1}, d)
		}},
		{"copy mismatch", func(b *Builder) {
			b.BeginStage("s", false)
			b.BeginTask()
			b.Copy(b.Region(2), b.Region(3))
		}},
		{"add mismatch", func(b *Builder) {
			b.BeginStage("s", false)
			b.BeginTask()
			b.Add(b.Region(2), b.Region(3))
		}},
		{"negative alloc", func(b *Builder) { b.Alloc(-1) }},
		{"out of arena ref", func(b *Builder) {
			b.BeginStage("s", false)
			b.BeginTask()
			b.Zero(Ref{Base: 100, Sub: 0, Rows: 2, Span: 2})
		}},
		{"sub beyond span", func(b *Builder) {
			base := b.Alloc(4)
			b.BeginStage("s", false)
			b.BeginTask()
			b.Zero(Ref{Base: base, Sub: 3, Rows: 2, Span: 4})
		}},
		{"read of an unwritten row", func(b *Builder) {
			x, y := b.Region(2), b.Region(2)
			b.BeginStage("s", false)
			b.BeginTask()
			b.Zero(Ref{Base: x.Base, Sub: 0, Rows: 1, Span: 2})
			b.Copy(x, y)
		}},
		{"accumulate into an unwritten row", func(b *Builder) {
			x, y := b.Region(2), b.Region(2)
			b.BeginStage("s", false)
			b.BeginTask()
			b.Zero(x)
			b.Add(x, y)
		}},
		{"read of a row another task of the stage wrote", func(b *Builder) {
			x, y := b.Region(2), b.Region(2)
			b.BeginStage("s", true)
			b.BeginTask()
			b.Zero(x)
			b.BeginTask()
			b.Copy(x, y)
		}},
		{"write of a row another task of the stage reads", func(b *Builder) {
			x, y := b.Region(2), b.Region(2)
			b.BeginStage("init", false)
			b.BeginTask()
			b.Zero(x)
			b.BeginStage("s", true)
			b.BeginTask()
			b.Copy(x, y)
			b.BeginTask()
			b.Zero(Ref{Base: x.Base, Sub: 1, Rows: 1, Span: 2})
		}},
		{"two tasks of a parallel stage write one row", func(b *Builder) {
			x := b.Region(2)
			b.BeginStage("s", true)
			b.BeginTask()
			b.Zero(x)
			b.BeginTask()
			b.Zero(Ref{Base: x.Base, Sub: 1, Rows: 1, Span: 2})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(8)
			tc.drive(b)
			if _, err := b.Build(); !errors.Is(err, resilience.ErrInvalidInput) {
				t.Fatalf("Build() error = %v, want ErrInvalidInput", err)
			}
		})
	}
}

func TestExecuteValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := buildDense(t, linalg.GaussianMatrix(rng, 4, 4))
	W := linalg.NewMatrix(4, 1)
	U := linalg.NewMatrix(4, 1)
	if err := p.Execute(context.Background(), nil, U, ExecOptions{}); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("nil W: %v", err)
	}
	if err := p.Execute(context.Background(), W, nil, ExecOptions{}); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("nil U: %v", err)
	}
	bad := linalg.NewMatrix(5, 1)
	if err := p.Execute(context.Background(), bad, U, ExecOptions{}); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("wrong rows: %v", err)
	}
	if err := p.Execute(context.Background(), W, linalg.NewMatrix(4, 2), ExecOptions{}); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("mismatched cols: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Execute(ctx, W, U, ExecOptions{}); !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("cancelled ctx: %v", err)
	}
}

func TestInjectedReplayFaultPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := buildDense(t, linalg.GaussianMatrix(rng, 4, 4))
	W := linalg.NewMatrix(4, 1)
	U := linalg.NewMatrix(4, 1)
	var site string
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("injected fault did not panic")
		}
		if site != "plan.replay" {
			t.Fatalf("inject consulted site %q", site)
		}
	}()
	_ = p.Execute(context.Background(), W, U, ExecOptions{
		Inject: func(s string) bool { site = s; return true },
	})
}

// TestPooledStateReuse checks that repeated replays reuse the arena
// bindings of the plan's per-width state cache (the steady-state
// zero-allocation path) and stay correct when widths interleave.
func TestPooledStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	A := linalg.GaussianMatrix(rng, 8, 8)
	p := buildDense(t, A)
	for i := 0; i < 10; i++ {
		r := 1 + i%3
		W := linalg.GaussianMatrix(rng, 8, r)
		U := linalg.NewMatrix(8, r)
		if err := p.Execute(context.Background(), W, U, ExecOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		want := linalg.MatMul(false, false, A, W)
		if d := linalg.RelFrobDiff(U, want); d > 1e-14 {
			t.Fatalf("replay %d off by %g", i, d)
		}
	}
}
