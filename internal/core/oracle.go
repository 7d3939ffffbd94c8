package core

import (
	"errors"
	"fmt"

	"gofmm/internal/resilience"
)

// The nil-oracle contract. An operator loaded from the store (LoadFrom)
// has no oracle and serves evaluations from its persisted blocks alone:
// every store carries the block of every list slot an evaluation reads,
// so neither its compiled plan nor the interpreter touches K's entries.
// Paths that read fresh entries need the oracle back (AttachOracle): an
// HSS conversion fails fast with ErrNoOracle instead of computing
// garbage, serving offers a solve only with HasOracle, and the errors
// against K's rows read NaN (SampleRelErr, RelErr) or nil (EntryErrors)
// without it.

// ErrNoOracle is returned by oracle-requiring paths of an operator that was
// loaded without its entry oracle. Recompressing against a live SPD (or
// attaching one with AttachOracle) restores those paths.
var ErrNoOracle = errors.New("core: operation requires the entry oracle, operator was loaded without one")

// noOracle is the Dim-only SPD stand-in attached to loaded operators.
type noOracle struct{ n int }

func (o noOracle) Dim() int { return o.n }

// At is unreachable through evaluation, which reads stored blocks only,
// and through the paths that check HasOracle first. The panic is the
// backstop for code that bypasses those guards, and the eval entry points'
// recover would surface it as a typed *resilience.PanicError rather than
// crash.
func (o noOracle) At(i, j int) float64 {
	panic(fmt.Sprintf("core: entry oracle unavailable for K[%d,%d] (operator loaded from store)", i, j))
}

// HasOracle reports whether the operator carries a live entry oracle.
// Operators built by Compress always do; operators loaded by LoadFrom do
// not, until AttachOracle provides one.
func (h *Hierarchical) HasOracle() bool {
	_, bare := h.K.(noOracle)
	return !bare
}

// AttachOracle installs a live entry oracle on a loaded operator, restoring
// the paths that sample fresh entries (the sampled error, HSS
// factorization); evaluation needs none. The oracle's dimension must
// match; a mismatch wraps both resilience.ErrInvalidInput and ErrNoOracle.
func (h *Hierarchical) AttachOracle(K SPD) error {
	if K == nil {
		return fmt.Errorf("%w: nil oracle", ErrNoOracle)
	}
	if K.Dim() != h.N() {
		return fmt.Errorf("%w: core: oracle dimension %d does not match operator %d: %w",
			resilience.ErrInvalidInput, K.Dim(), h.N(), ErrNoOracle)
	}
	h.K = K
	return nil
}
