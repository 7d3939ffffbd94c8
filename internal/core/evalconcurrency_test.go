package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
)

// Concurrent evaluations of one uncompiled operator on the task runtime,
// with a recorder attached, share no per-call state: the test runs clean
// under -race, and every result has the bits of a serial evaluation.
func TestConcurrentTracedInterpreter(t *testing.T) {
	rec := telemetry.New()
	h, _ := compressGauss(t, 300, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-7, Kappa: 8, Budget: 0.05,
		Distance: Kernel, Exec: Dynamic, Seed: 5, NumWorkers: 2, Telemetry: rec,
	})
	W := linalg.GaussianMatrix(rand.New(rand.NewSource(7)), 300, 2)
	want := h.Matvec(W)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				U, err := h.MatvecCtx(context.Background(), W)
				if err != nil {
					t.Error(err)
					return
				}
				for k, v := range U.Data {
					if math.Float64bits(v) != math.Float64bits(want.Data[k]) {
						t.Errorf("goroutine %d call %d: entry %d is %v, serial %v", g, i, k, v, want.Data[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Each interpreter call counts its own flops: G·N concurrent calls add
// G·N times one call's count to matvec.flops, under the level-by-level and
// the task executors.
func TestInterpreterFlopsUnderConcurrency(t *testing.T) {
	const G, N = 4, 25
	for _, exec := range []ExecMode{LevelByLevel, Dynamic} {
		rec := telemetry.New()
		h, _ := compressGauss(t, 300, Config{
			LeafSize: 32, MaxRank: 32, Tol: 1e-7, Kappa: 8, Budget: 0.05,
			Distance: Kernel, Exec: exec, Seed: 5, NumWorkers: 2, Telemetry: rec,
		})
		W := linalg.GaussianMatrix(rand.New(rand.NewSource(7)), 300, 2)
		h.Matvec(W)
		_, one := h.LastEval()
		flops := rec.Counter("matvec.flops")
		before := flops.Value()
		var wg sync.WaitGroup
		for g := 0; g < G; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < N; i++ {
					if _, err := h.MatvecCtx(context.Background(), W); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got, want := flops.Value()-before, int64(G*N)*int64(one); got != want {
			t.Errorf("%v: %d concurrent calls counted %d flops, want %d (%+.1f%%)",
				exec, G*N, got, want, 100*float64(got-want)/float64(want))
		}
	}
}
