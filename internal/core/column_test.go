package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/metric"
	"gofmm/internal/resilience"
	"gofmm/internal/spdmat"
	"gofmm/internal/telemetry"
)

// atOnly is an oracle without a column read that counts its At calls.
type atOnly struct {
	K  SPD
	at *int64
}

func (a atOnly) Dim() int { return a.K.Dim() }
func (a atOnly) At(i, j int) float64 {
	atomic.AddInt64(a.at, 1)
	return a.K.At(i, j)
}
func (a atOnly) Submatrix(I, J []int, dst *linalg.Matrix) { a.K.(Bulk).Submatrix(I, J, dst) }

func smallK05(t *testing.T) SPD {
	t.Helper()
	p, err := spdmat.Generate("K05", 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p.K
}

// Column reads change how entries are fetched, not how many: a compression
// counts exactly the entries an At-only oracle serves, in CountingSPD and
// in the traced oracle.entries counter, while the traced At calls drop.
// The operators are the same.
func TestColumnReadsKeepEntryCounts(t *testing.T) {
	K := smallK05(t)
	cfg := Config{
		LeafSize: 64, MaxRank: 32, Tol: 1e-5, Kappa: 16, Budget: 0.03,
		Distance: Angle, Exec: Sequential, Seed: 1, CacheBlocks: true,
	}
	var refAt int64
	ref := NewCounting(atOnly{K, &refAt})
	hRef, err := Compress(atOnly{ref, new(int64)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cnt := NewCounting(K)
	hCnt, err := Compress(cnt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count() != ref.Count() {
		t.Fatalf("CountingSPD counts %d entries through Column, %d through At", cnt.Count(), ref.Count())
	}
	rec := telemetry.New()
	cfgT := cfg
	cfgT.Telemetry = rec
	hTr, err := Compress(K, cfgT)
	if err != nil {
		t.Fatal(err)
	}
	// The traced counters start after validateOracle's probe reads.
	probe := NewCounting(K)
	if err := validateOracle(probe, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	c := rec.Snapshot().Counters
	if want := ref.Count() - probe.Count(); c["oracle.entries"] != want {
		t.Fatalf("oracle.entries = %d, an At-only oracle serves %d", c["oracle.entries"], want)
	}
	if c["oracle.column.calls"] == 0 {
		t.Fatal("no column reads recorded")
	}
	if c["oracle.at.calls"] >= refAt {
		t.Fatalf("oracle.at.calls = %d, not below the At-only oracle's %d", c["oracle.at.calls"], refAt)
	}
	for _, h := range []*Hierarchical{hCnt, hTr} {
		if h.CompressedBytes() != hRef.CompressedBytes() {
			t.Fatalf("operator size %d, At-only oracle gives %d", h.CompressedBytes(), hRef.CompressedBytes())
		}
		if !slices.Equal(h.Neighbors.ID, hRef.Neighbors.ID) {
			t.Fatal("neighbor lists differ from the At-only run")
		}
	}
}

// The chaos wrapper has no column read, so the traced oracle's Column
// falls back to its At and every entry the neighbor search reads can be
// poisoned. Under this seed validateOracle's probe reads stay clean, so
// every injection comes from the compression's own reads; the compression
// may still end in the tree split's ErrBadOracle, which a poisoned column
// read causes.
func TestPoisonReachesColumnReads(t *testing.T) {
	K := smallK05(t)
	rec := telemetry.New()
	chaos := resilience.NewChaos(resilience.ChaosConfig{Seed: 2, OraclePoison: 1e-4}, rec)
	_, err := Compress(K, Config{
		LeafSize: 64, MaxRank: 32, Tol: 1e-5, Kappa: 16, Budget: 0.03,
		Distance: Angle, Exec: Sequential, Seed: 1, Chaos: chaos, Telemetry: rec,
	})
	if errors.Is(err, ErrBadOracle) && !errors.Is(err, metric.ErrNoFiniteSplit) {
		t.Fatalf("validateOracle saw a poisoned entry; pick another seed: %v", err)
	}
	c := rec.Snapshot().Counters
	if c["oracle.column.calls"] == 0 {
		t.Fatal("no column reads recorded")
	}
	if n := chaos.Injected()["oracle_poison"]; n == 0 {
		t.Fatal("no poison injected; column reads bypass the chaos wrapper")
	}
}

// A NaN that reaches the tree's ball split makes every centroid distance
// NaN. The compression must then fail with ErrBadOracle, never panic on
// the split's missing pivot, across poison seeds.
func TestPoisonedSplitIsBadOracle(t *testing.T) {
	K := smallK05(t)
	for seed := int64(1); seed <= 12; seed++ {
		chaos := resilience.NewChaos(resilience.ChaosConfig{Seed: seed, OraclePoison: 1e-4}, nil)
		_, err := Compress(K, Config{
			LeafSize: 64, MaxRank: 32, Tol: 1e-5, Kappa: 16, Budget: 0.03,
			Distance: Angle, Exec: Sequential, Seed: 1, Chaos: chaos,
		})
		var perr *resilience.PanicError
		if errors.As(err, &perr) {
			t.Fatalf("seed %d: compression panicked: %v", seed, perr.Value)
		}
		if err != nil && !errors.Is(err, ErrBadOracle) {
			t.Fatalf("seed %d: got %v, want ErrBadOracle", seed, err)
		}
	}
}
