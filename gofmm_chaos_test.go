package gofmm

import (
	"context"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/testmat"
)

// End-to-end acceptance test for the resilience layer: with deterministic
// task-failure injection at 5% and a fixed seed, the full shared-memory
// pipeline — Compress and an interpreter MatvecCtx, both on the Dynamic
// executor — must complete, recover every injected failure with exactly
// one scheduler retry, account for it in telemetry, and reproduce the
// fault-free result bit for bit.
func TestChaosEndToEnd(t *testing.T) {
	p, err := testmat.Generate("K05", 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		LeafSize: 64, MaxRank: 64, Tol: 1e-5, Budget: 0.03,
		Distance: Angle, Exec: Dynamic, NumWorkers: 4, Seed: 17,
		CacheBlocks: true,
	}
	rng := rand.New(rand.NewSource(18))
	W := linalg.GaussianMatrix(rng, 1024, 4)
	ctx := context.Background()

	// Fault-free baseline.
	H0, err := Compress(p.K, base)
	if err != nil {
		t.Fatal(err)
	}
	U0, err := H0.MatvecCtx(ctx, W)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: same configuration plus injected task failures. The
	// operator is never compiled, so MatvecCtx runs the tree interpreter
	// through the same injector and recorder as the compression.
	rec := NewRecorder()
	chaos := NewChaos(ChaosConfig{Seed: 20, TaskFail: 0.05}, rec)
	cfg := base
	cfg.Chaos = chaos
	cfg.Telemetry = rec
	H1, err := Compress(p.K, cfg)
	if err != nil {
		t.Fatalf("Compress under fault injection: %v", err)
	}
	U1, err := H1.MatvecCtx(ctx, W)
	if err != nil {
		t.Fatalf("MatvecCtx under fault injection: %v", err)
	}

	// Every injected fault must be visible in telemetry, and every fault
	// must have been recovered by exactly one retry (exhaustion would have
	// failed the calls above).
	taskFails := chaos.Injected()["task_fail"]
	if taskFails == 0 {
		t.Fatal("no task failures injected at p=0.05 over a 1024-point compression and matvec")
	}
	if got := rec.Counter("chaos.task_fail.injected").Value(); got != taskFails {
		t.Fatalf("chaos.task_fail.injected=%d, injector says %d", got, taskFails)
	}
	if got := rec.Counter("sched.task_retries").Value(); got != taskFails {
		t.Fatalf("sched.task_retries=%d, want %d (one retry per injected failure)", got, taskFails)
	}

	// With retries hiding the faults completely, the chaos run is
	// bit-identical to the baseline.
	if !linalg.EqualApprox(U0, U1, 0) {
		t.Fatal("chaos run diverged from fault-free run")
	}
}

// TestChaosDisabledMatchesBaseline: a nil chaos injector must leave the
// pipeline untouched (guards against accidental overhead or perturbation
// when the harness is off).
func TestChaosDisabledMatchesBaseline(t *testing.T) {
	p, err := testmat.Generate("K05", 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		LeafSize: 64, MaxRank: 32, Tol: 1e-5, Budget: 0.03,
		Distance: Angle, Exec: Dynamic, NumWorkers: 2, Seed: 21,
		CacheBlocks: true,
	}
	H0, err := Compress(p.K, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = NewChaos(ChaosConfig{Seed: 22}, nil) // all probabilities zero
	H1, err := Compress(p.K, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	W := linalg.GaussianMatrix(rng, 512, 2)
	if !linalg.EqualApprox(H0.Matvec(W), H1.Matvec(W), 0) {
		t.Fatal("zero-probability chaos config changed the result")
	}
}
