package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/telemetry"
)

// --- validateOracle properties ------------------------------------------

type funcOracle struct {
	n int
	f func(i, j int) float64
}

func (o funcOracle) Dim() int            { return o.n }
func (o funcOracle) At(i, j int) float64 { return o.f(i, j) }

// TestValidateOraclePropertyBadMatrices: for every seed, each class of
// broken oracle — NaN entries, Inf entries, gross asymmetry, negative
// diagonals — must be rejected with ErrBadOracle.
func TestValidateOraclePropertyBadMatrices(t *testing.T) {
	classes := map[string]funcOracle{
		"nan": {64, func(i, j int) float64 {
			if i == j {
				return 1
			}
			return math.NaN()
		}},
		"inf": {64, func(i, j int) float64 {
			if i == j {
				return 1
			}
			return math.Inf(1)
		}},
		"asymmetric": {64, func(i, j int) float64 {
			if i == j {
				return 1
			}
			if i < j {
				return 1
			}
			return 2
		}},
		"negative diagonal": {64, func(i, j int) float64 {
			if i == j {
				return -1
			}
			return 0
		}},
	}
	for name, o := range classes {
		prop := func(seed int64) bool {
			err := validateOracle(o, seed)
			return errors.Is(err, ErrBadOracle)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s oracle: %v", name, err)
		}
	}
}

// TestValidateOraclePropertyGoodMatrices: genuine SPD matrices pass for
// every seed.
func TestValidateOraclePropertyGoodMatrices(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(56)
		K := linalg.RandomSPD(rng, n, 10)
		return validateOracle(denseSPD{K}, seed) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// --- chaos: oracle poisoning --------------------------------------------

func TestCompressPoisonedOracleRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	K := linalg.RandomSPD(rng, 128, 64)
	chaos := resilience.NewChaos(resilience.ChaosConfig{Seed: 7, OraclePoison: 0.5}, nil)
	_, err := Compress(denseSPD{K}, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-5, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 1, Chaos: chaos,
	})
	if !errors.Is(err, ErrBadOracle) {
		t.Fatalf("expected ErrBadOracle from a poisoned oracle, got %v", err)
	}
	if chaos.Injected()["oracle_poison"] == 0 {
		t.Fatal("no poison injections recorded")
	}
}

// --- chaos: task failure + retry through Compress ------------------------

func TestCompressWithTaskFailureInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	K := linalg.RandomSPD(rng, 256, 96)
	for _, exec := range []ExecMode{Dynamic, TaskDepend} {
		rec := telemetry.New()
		chaos := resilience.NewChaos(resilience.ChaosConfig{Seed: 3, TaskFail: 0.2}, rec)
		h, err := Compress(denseSPD{K}, Config{
			LeafSize: 32, MaxRank: 24, Tol: 1e-6, Budget: 0.1,
			Distance: Kernel, Exec: exec, NumWorkers: 4, Seed: 2,
			Chaos: chaos, Telemetry: rec, CacheBlocks: true,
		})
		if err != nil {
			t.Fatalf("exec %v: compression under 20%% task failure should recover: %v", exec, err)
		}
		injected := chaos.Injected()["task_fail"]
		if injected == 0 {
			t.Fatalf("exec %v: no task failures injected — chaos not wired in", exec)
		}
		retried := rec.Counter("sched.task_retries").Value()
		if retried != injected {
			t.Fatalf("exec %v: %d injected failures but %d recorded retries", exec, injected, retried)
		}
		// Injected failures are retried before the task body runs, so the
		// chaos run must produce the same compression as a clean run.
		clean, err := Compress(denseSPD{K}, Config{
			LeafSize: 32, MaxRank: 24, Tol: 1e-6, Budget: 0.1,
			Distance: Kernel, Exec: exec, NumWorkers: 4, Seed: 2,
			CacheBlocks: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		W := linalg.GaussianMatrix(rng, 256, 2)
		if !linalg.EqualApprox(h.Matvec(W), clean.Matvec(W), 0) {
			t.Fatalf("exec %v: chaos run diverged from the clean run", exec)
		}
	}
}

// --- graceful degradation -----------------------------------------------

// degradeConfig is a setup whose off-diagonal blocks are essentially
// full-rank, so MaxRank 8 cannot reach Tol 1e-12 and the degradation
// policy decides the outcome.
func degradeConfig(exec ExecMode, mode DegradeMode) Config {
	return Config{
		LeafSize: 32, MaxRank: 8, Tol: 1e-12, Budget: 0,
		Distance: Kernel, Exec: exec, Seed: 4, Degrade: mode,
	}
}

func TestDegradeDenseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	K := linalg.RandomSPD(rng, 128, 128)
	rec := telemetry.New()
	cfg := degradeConfig(Sequential, DegradeDense)
	cfg.Telemetry = rec
	h, err := Compress(denseSPD{K}, cfg)
	if err != nil {
		t.Fatalf("DegradeDense must not fail the compression: %v", err)
	}
	fb := h.DenseFallbacks()
	if len(fb) == 0 {
		t.Fatal("full-rank problem at MaxRank 8 should have produced dense fallbacks")
	}
	if h.Stats.DenseFallbacks != len(fb) {
		t.Fatalf("Stats.DenseFallbacks=%d but %d nodes flagged", h.Stats.DenseFallbacks, len(fb))
	}
	if got := rec.Counter("compress.dense_fallback").Value(); got != int64(len(fb)) {
		t.Fatalf("telemetry counter %d != %d flagged nodes", got, len(fb))
	}
	if !strings.Contains(h.StructureString(), "dense-fallback nodes:") {
		t.Fatal("StructureString does not flag the degraded nodes")
	}
	// The fallback stores the blocks exactly, so the result must be more
	// accurate than the truncating default.
	ht, err := Compress(denseSPD{K}, degradeConfig(Sequential, DegradeTruncate))
	if err != nil {
		t.Fatal(err)
	}
	W := linalg.GaussianMatrix(rng, 128, 2)
	exact := ExactMatvec(denseSPD{K}, W)
	errDense := linalg.RelFrobDiff(h.Matvec(W), exact)
	errTrunc := linalg.RelFrobDiff(ht.Matvec(W), exact)
	if errDense > errTrunc {
		t.Fatalf("dense fallback (%g) should not be less accurate than truncation (%g)", errDense, errTrunc)
	}
}

func TestDegradeStrictReturnsErrTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	K := linalg.RandomSPD(rng, 128, 128)
	for _, exec := range []ExecMode{Sequential, LevelByLevel, Dynamic} {
		cfg := degradeConfig(exec, DegradeStrict)
		cfg.NumWorkers = 2
		if _, err := Compress(denseSPD{K}, cfg); !errors.Is(err, resilience.ErrTolerance) {
			t.Fatalf("exec %v: expected ErrTolerance, got %v", exec, err)
		}
	}
}

// --- ctx-aware API boundary behavior ------------------------------------

func TestCompressCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	K := linalg.RandomSPD(rng, 128, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompressCtx(ctx, denseSPD{K}, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-5, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 5,
	})
	if !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("expected ErrCancelled, got %v", err)
	}
}

// A cancelled CompressCtx stops the neighbor search between leaf searches.
// The oracle (Dim and At only) cancels the context early in the search and
// then serves less than one search iteration, n·LeafSize entries.
func TestCompressCtxCancelStopsNeighborSearch(t *testing.T) {
	const n, leaf, cancelAfter = 2048, 64, 52148
	X := linalg.GaussianMatrix(rand.New(rand.NewSource(126)), 2, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var served atomic.Int64
	K := funcOracle{n: n, f: func(i, j int) float64 {
		if served.Add(1) == cancelAfter {
			cancel()
		}
		dx, dy := X.At(0, i)-X.At(0, j), X.At(1, i)-X.At(1, j)
		return math.Exp(-(dx*dx + dy*dy) / 2)
	}}
	_, err := CompressCtx(ctx, K, Config{LeafSize: leaf, MaxRank: 32, NumWorkers: 2, Seed: 7})
	if !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("CompressCtx = %v, want ErrCancelled", err)
	}
	after := served.Load() - cancelAfter
	t.Logf("%d entries served after the cancel", after)
	if after >= n*leaf {
		t.Fatalf("oracle served %d entries after the cancel, want fewer than %d", after, n*leaf)
	}
}

func TestMatvecCtxRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	K := linalg.RandomSPD(rng, 96, 48)
	h, err := Compress(denseSPD{K}, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-5, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.MatvecCtx(context.Background(), nil); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("nil W: expected ErrInvalidInput, got %v", err)
	}
	wrong := linalg.NewMatrix(95, 2)
	if _, err := h.MatvecCtx(context.Background(), wrong); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("wrong dims: expected ErrInvalidInput, got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	W := linalg.GaussianMatrix(rng, 96, 2)
	if _, err := h.MatvecCtx(ctx, W); !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("cancelled ctx: expected ErrCancelled, got %v", err)
	}
}

// TestCompressInvalidInputsNoPanic: nil and empty oracles come back as
// typed errors through the public entry point, never a panic.
func TestCompressInvalidInputsNoPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped Compress: %v", r)
		}
	}()
	if _, err := Compress(nil, Config{}); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("nil oracle: %v", err)
	}
	if _, err := Compress(funcOracle{0, nil}, Config{}); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("empty oracle: %v", err)
	}
}
