package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"

	"gofmm/internal/core"
	"gofmm/internal/resilience"
)

// AdminConfig enables the store-backed operator administration endpoints:
//
//	POST   /admin/operators/{name}   load (or hot-swap) {name} from <StoreDir>/{name}.store
//	DELETE /admin/operators/{name}   deregister {name}
//
// Loads go through core.LoadFrom (mmap when Mmap is set, with transparent
// fallback) and install via Registry.SwapHierarchical, so a reload replaces
// a serving operator without failing a single in-flight request. Loading is
// restricted to StoreDir by construction: the operator name is validated as
// a bare file stem, never a path.
type AdminConfig struct {
	// StoreDir is the only directory operators may be loaded from (required).
	StoreDir string
	// Mmap requests zero-copy mapped loads (portable fallback on failure).
	Mmap bool
	// EvalCtx scopes the lifetime of swapped-in batch evaluators. It must
	// outlive individual requests — typically the daemon's evaluator
	// context, cancelled only at process exit (required).
	EvalCtx context.Context
	// Batch configures each swapped-in operator's BatchEvaluator.
	Batch core.BatchOptions
	// Limits is the protection stack for swapped-in operators.
	Limits Limits
	// NumWorkers seeds the loaded operator's evaluation config.
	NumWorkers int
}

// validOperatorName accepts bare file stems only — no separators, no dot
// prefixes — so the admin API cannot be steered outside StoreDir.
func validOperatorName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return !strings.Contains(name, "..")
}

// handleAdminLoad serves POST /admin/operators/{name}: load the operator's
// store file and hot-swap it into service.
func (s *Server) handleAdminLoad(w http.ResponseWriter, r *http.Request) {
	end, err := s.begin()
	if err != nil {
		s.writeError(w, r, err, "")
		return
	}
	defer end()
	name := r.PathValue("name")
	if !validOperatorName(name) {
		s.writeError(w, r, fmt.Errorf("%w: operator name %q is not a bare file stem",
			resilience.ErrInvalidInput, name), "")
		return
	}
	a := s.cfg.Admin
	path := filepath.Join(a.StoreDir, name+".store")
	h, info, err := core.LoadFrom(path, core.LoadOptions{
		Mmap:       a.Mmap,
		NumWorkers: a.NumWorkers,
		Telemetry:  s.rec,
	})
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			err = fmt.Errorf("%w: no store file for %q", ErrUnknownOperator, name)
		}
		s.writeError(w, r, err, "")
		return
	}
	op, err := s.reg.SwapHierarchical(a.EvalCtx, name, h, a.Batch, a.Limits)
	if err != nil {
		if rerr := h.ReleaseStore(); rerr != nil {
			s.logWriteErr(rerr)
		}
		s.writeError(w, r, err, "")
		return
	}
	if l := s.rec.Logger(); l != nil {
		l.Info("serve: operator loaded from store",
			"operator", name, "bytes", info.Bytes, "mapped", info.Mapped,
			"plan", info.HasPlan)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	resp := map[string]any{
		"operator":    name,
		"dim":         op.Dim(),
		"bytes":       info.Bytes,
		"mapped":      info.Mapped,
		"plan":        info.HasPlan,
		"plan_digest": info.PlanDigest,
		"solve":       op.CanSolve(),
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logWriteErr(err)
	}
}

// handleAdminDelete serves DELETE /admin/operators/{name}: remove the
// operator from service (in-flight evaluations finish first).
func (s *Server) handleAdminDelete(w http.ResponseWriter, r *http.Request) {
	end, err := s.begin()
	if err != nil {
		s.writeError(w, r, err, "")
		return
	}
	defer end()
	name := r.PathValue("name")
	if !validOperatorName(name) {
		s.writeError(w, r, fmt.Errorf("%w: operator name %q is not a bare file stem",
			resilience.ErrInvalidInput, name), "")
		return
	}
	if err := s.reg.Deregister(name); err != nil {
		s.writeError(w, r, err, "")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := json.NewEncoder(w).Encode(map[string]string{"deregistered": name}); err != nil {
		s.logWriteErr(err)
	}
}
