package gofmm

// Concurrency wall for compiled plan replays. One compiled plan serves many
// in-flight requests at once — each replay checks a private arena binding
// out of a per-width pool — so the contract under fire is: concurrent
// replays through every public entry point (MatvecCtx, MatmatCtx, and the
// coalescing BatchEvaluator) return exactly the bits a quiet same-width
// replay returns (any cross-request arena aliasing would corrupt them;
// the batch lane, whose flush width is timing-dependent and width picks
// the kernel, gets the 1e-13 cross-width tolerance instead), a
// mid-flight cancellation surfaces as a typed error without poisoning the
// shared plan, an injected replay panic stays contained to its own
// request, and the storm leaves no goroutine behind. Run with -race; the
// schedule pressure of 64 goroutines against a handful of pooled arena
// bindings is the point.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/plan"
)

func TestPlanConcurrentReplayStorm(t *testing.T) {
	const (
		n          = 256
		goroutines = 64
		iters      = 6
		wide       = 4
	)
	K := randomSPD(n, 909)
	cfg := Config{
		LeafSize: 32, MaxRank: 48, Tol: 1e-5, Kappa: 8, Budget: 0.05,
		Distance: core.Angle, Exec: core.Dynamic, NumWorkers: 4, Seed: 11,
		CacheBlocks: true, Workspace: NewWorkspacePool(),
	}
	h, err := Compress(NewDense(K), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}

	// Distinct per-slot inputs with golden outputs taken before the storm;
	// replay is bit-deterministic, so every concurrent result must
	// reproduce its golden exactly — one arena slice shared between two
	// in-flight requests would trip this immediately.
	rng := rand.New(rand.NewSource(14))
	inputs := make([]*Matrix, goroutines)
	golden := make([]*Matrix, goroutines)
	for g := range inputs {
		inputs[g] = linalg.GaussianMatrix(rng, n, 1)
		u, err := h.MatvecCtx(context.Background(), inputs[g])
		if err != nil {
			t.Fatal(err)
		}
		golden[g] = u
	}
	X := linalg.GaussianMatrix(rng, n, wide)
	goldenWide, err := h.MatmatCtx(context.Background(), X)
	if err != nil {
		t.Fatal(err)
	}

	// The leak baseline is read after the goldens so any lazily started
	// executor machinery is already accounted for.
	before := runtime.NumGoroutine()
	be := h.NewBatchEvaluator(BatchOptions{})

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		failures  []string
		cancelled int
	)
	fail := func(msg string) {
		mu.Lock()
		failures = append(failures, msg)
		mu.Unlock()
	}

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 0 {
				// The injected-panic lane: one replay of the shared plan is
				// made to blow up through the chaos hook. The panic must
				// surface on this request alone — every other lane keeps
				// verifying golden bits against the same plan object.
				var site string
				func() {
					defer func() {
						if r := recover(); r == nil {
							fail("injected replay fault did not panic")
						}
					}()
					U := linalg.NewMatrix(n, 1)
					_ = p.Execute(context.Background(), inputs[0], U, plan.ExecOptions{
						Workers: 2,
						Inject:  func(s string) bool { site = s; return true },
					})
				}()
				if site != "plan.replay" {
					fail("inject consulted site " + site)
				}
				return
			}
			for it := 0; it < iters; it++ {
				switch g % 4 {
				case 1:
					// Direct batched path through the shared plan.
					U, err := h.MatmatCtx(context.Background(), X)
					if err != nil {
						fail("MatmatCtx: " + err.Error())
						return
					}
					if !bitIdentical(U, goldenWide) {
						fail("concurrent MatmatCtx diverged from golden bits")
						return
					}
				case 2:
					// Coalescing evaluator: requests from many goroutines
					// merge into Matmat flushes, each caller gets its column.
					// Flush width depends on arrival timing, and width picks
					// the kernel (fused GEMV at 1, GEMM otherwise), so the
					// contract here is cross-width agreement to 1e-13 — a
					// cross-request arena overlap would hand this caller some
					// other request's column and miss by many orders more.
					U, err := be.Matvec(context.Background(), inputs[g])
					if err != nil {
						fail("BatchEvaluator.Matvec: " + err.Error())
						return
					}
					scale := linalg.Nrm2(golden[g].Col(0)) + 1
					if d := maxAbsDiff(U.Col(0), golden[g].Col(0)); d > 1e-13*scale {
						fail("batched replay diverged from golden beyond cross-width tolerance")
						return
					}
				case 3:
					// Mid-flight cancellation: fire the context while the
					// replay runs. Either outcome is legal — a typed
					// cancellation, or a completed (then bit-exact) result —
					// but never a wrong answer and never a poisoned plan.
					ctx, cancel := context.WithCancel(context.Background())
					go func() {
						time.Sleep(time.Duration(50+g) * time.Microsecond)
						cancel()
					}()
					U, err := h.MatvecCtx(ctx, inputs[g])
					cancel()
					if err != nil {
						if !errors.Is(err, ErrCancelled) {
							fail("cancelled replay returned wrong taxonomy: " + err.Error())
							return
						}
						mu.Lock()
						cancelled++
						mu.Unlock()
					} else if !bitIdentical(U, golden[g]) {
						fail("replay that outran cancellation diverged from golden bits")
						return
					}
				default:
					U, err := h.MatvecCtx(context.Background(), inputs[g])
					if err != nil {
						fail("MatvecCtx: " + err.Error())
						return
					}
					if !bitIdentical(U, golden[g]) {
						fail("concurrent MatvecCtx diverged from golden bits")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	be.Close()

	for _, msg := range failures {
		t.Error(msg)
	}
	t.Logf("storm done: %d goroutines × %d iters, %d replays cancelled mid-flight", goroutines, iters, cancelled)

	// After a panic, cancellations and the storm, the plan must still
	// replay the golden bits on a quiet call.
	if U, err := h.MatvecCtx(context.Background(), inputs[1]); err != nil || !bitIdentical(U, golden[1]) {
		t.Fatalf("plan poisoned by the storm (err=%v)", err)
	}

	// Zero goroutine leaks: everything the storm and the evaluator spawned
	// must wind down (allow the runtime a moment to retire them).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before storm, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
