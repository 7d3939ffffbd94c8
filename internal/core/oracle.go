package core

import (
	"errors"
	"fmt"

	"gofmm/internal/resilience"
)

// The nil-oracle contract. An operator loaded from the store without an
// oracle (LoadFrom, or ReadStore with a nil K) serves evaluations from its
// persisted blocks alone: the compiled plan and the fully-cached
// interpreter never touch K's entries. Paths that must sample fresh entries — interpreting with
// uncached blocks, compiling a plan that would gather, building an HSS
// factorization — fail fast with ErrNoOracle instead of computing garbage.

// ErrNoOracle is returned by oracle-requiring paths of an operator that was
// loaded without its entry oracle. Recompressing against a live SPD (or
// attaching one with AttachOracle) restores those paths.
var ErrNoOracle = errors.New("core: operation requires the entry oracle, operator was loaded without one")

// noOracle is the Dim-only SPD stand-in attached to loaded operators.
type noOracle struct{ n int }

func (o noOracle) Dim() int { return o.n }

// At is unreachable through the public API: every oracle-requiring path
// checks HasOracle first and returns ErrNoOracle. The panic is the backstop
// for code that bypasses those guards, and the eval entry points' recover
// would surface it as a typed *resilience.PanicError rather than crash.
func (o noOracle) At(i, j int) float64 {
	panic(fmt.Sprintf("core: entry oracle unavailable for K[%d,%d] (operator loaded from store)", i, j))
}

// HasOracle reports whether the operator carries a live entry oracle.
// Operators built by Compress always do; operators loaded by LoadFrom (or
// ReadStore with a nil K) do not, until AttachOracle provides one.
func (h *Hierarchical) HasOracle() bool {
	_, bare := h.K.(noOracle)
	return !bare
}

// AttachOracle installs a live entry oracle on a loaded operator, restoring
// the oracle-requiring paths (uncached interpretation, plan compilation
// with gathering, HSS factorization). The oracle's dimension must match;
// a mismatch wraps both resilience.ErrInvalidInput and ErrNoOracle.
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

// interpNeedsOracle reports whether the tree interpreter would have to
// gather fresh entries for this operator: any contributing far block or
// near block without a cached copy (its own, or its owner's for a
// mirrored slot) forces a gather.
func (h *Hierarchical) interpNeedsOracle() bool {
	for id := range h.nodes {
		if h.uncached(farList, id) || h.uncached(nearList, id) {
			return true
		}
	}
	return false
}

// requireEvalOracle is the typed-error guard on the evaluation entry
// points: oracle-free operators may only be interpreted when fully cached.
func (h *Hierarchical) requireEvalOracle(op string) error {
	if !h.HasOracle() && h.interpNeedsOracle() {
		return fmt.Errorf("core: %s needs uncached blocks: %w", op, ErrNoOracle)
	}
	return nil
}
