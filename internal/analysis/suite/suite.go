// Package suite is the registry the gofmmlint drivers share: which
// analyzers exist, which import paths each applies to, and how
// `//gofmmlint:ignore` suppressions are honored. Keeping this in one place
// means the standalone driver, the `go vet -vettool` unitchecker mode, and
// CI cannot drift apart on what "the lint suite" means.
package suite

import (
	"go/token"
	"sort"
	"strings"

	"gofmm/internal/analysis/ctxcheck"
	"gofmm/internal/analysis/detorder"
	"gofmm/internal/analysis/errtaxonomy"
	"gofmm/internal/analysis/framework"
	"gofmm/internal/analysis/load"
	"gofmm/internal/analysis/lockguard"
	"gofmm/internal/analysis/mmaplife"
	"gofmm/internal/analysis/refcount"
	"gofmm/internal/analysis/spancheck"
	"gofmm/internal/analysis/unsafeview"
)

// Entry pairs an analyzer with the import paths it is meant for.
type Entry struct {
	Analyzer  *framework.Analyzer
	AppliesTo func(importPath string) bool
}

// All returns the registered suite in stable order.
//
//   - spancheck: the span contract holds everywhere — including
//     internal/telemetry/live, whose HTTP handlers produce spans.
//   - ctxcheck: context discipline is an internal/ convention; cmd/ mains
//     legitimately start at context.Background. internal/telemetry/live is
//     covered: handlers must thread the request context (r.Context()) into
//     ctx-aware calls, never mint fresh roots. internal/serve likewise: the
//     deadline-propagation contract (X-Deadline-Ms → evaluation context)
//     only holds if no handler path mints a fresh root.
//   - detorder: bit-identical determinism is promised by the numeric
//     packages (core, linalg, hss, tree, plan — compiled replays must be
//     bit-identical across runs and worker counts — and spdmat, metric,
//     ann, whose generated matrices, distances and neighbor lists fix
//     every operator's bits), not by tooling or telemetry.
//   - errtaxonomy: internal/ except resilience (it defines the taxonomy),
//     telemetry proper (the import cycle resilience→telemetry forbids
//     wrapping), and analysis itself (lint infrastructure, not library
//     surface). internal/telemetry/live is carved back in: it sits outside
//     the cycle (live→resilience is fine) and its exported Start/Shutdown
//     return boundary errors that must carry the taxonomy. internal/serve
//     falls under the default internal/ rule: its 429-vs-503 status mapping
//     dispatches on errors.Is, so every error it returns must wrap a
//     sentinel.
//   - lockguard: `// guarded by` annotations are a repo-wide contract;
//     the analyzer is inert in packages that carry none.
//   - mmaplife: view-escape discipline applies everywhere except
//     internal/store itself, whose view constructors must hand the view
//     out (its callers own the mapping lifetime).
//   - refcount: the acquire/release protocols it understands live in
//     internal/serve; applying it there keeps golden-style stub types in
//     other packages from accidentally matching.
//   - unsafeview: the allowlist is the point — it must see every package.
func All() []Entry {
	return []Entry{
		{spancheck.Analyzer, everywhere},
		{ctxcheck.Analyzer, underAny("gofmm/internal/")},
		{detorder.Analyzer, underAny(
			"gofmm/internal/core", "gofmm/internal/linalg",
			"gofmm/internal/hss", "gofmm/internal/tree",
			"gofmm/internal/plan", "gofmm/internal/spdmat",
			"gofmm/internal/metric", "gofmm/internal/ann")},
		{errtaxonomy.Analyzer, func(path string) bool {
			if !strings.HasPrefix(path, "gofmm/internal/") {
				return false
			}
			if underAny("gofmm/internal/telemetry/live")(path) {
				return true
			}
			return !underAny("gofmm/internal/resilience", "gofmm/internal/telemetry",
				"gofmm/internal/analysis")(path)
		}},
		{lockguard.Analyzer, everywhere},
		{mmaplife.Analyzer, func(path string) bool {
			return path != "gofmm/internal/store"
		}},
		{refcount.Analyzer, underAny("gofmm/internal/serve")},
		{unsafeview.Analyzer, everywhere},
	}
}

func everywhere(string) bool { return true }

// underAny matches each prefix exactly or as a path parent.
func underAny(prefixes ...string) func(string) bool {
	return func(path string) bool {
		for _, p := range prefixes {
			if path == strings.TrimSuffix(p, "/") || strings.HasPrefix(path, strings.TrimSuffix(p, "/")+"/") {
				return true
			}
		}
		return false
	}
}

// A Finding is one diagnostic that survived filtering, located for output.
type Finding struct {
	Analyzer   string
	Position   token.Position
	Diagnostic framework.Diagnostic
}

// Run applies every registered analyzer whose filter accepts pkg and
// returns the surviving findings in file/line order. Diagnostics on a line
// carrying (or directly below) a matching `//gofmmlint:ignore <analyzer>
// <reason>` comment are dropped. The reason is mandatory: a directive
// without one suppresses nothing and is itself reported (analyzer
// "suppression") — an unexplained suppression is just a violation with
// better camouflage.
func Run(pkg *load.Package) ([]Finding, error) {
	ignores, out := ignoreIndex(pkg)
	for _, e := range All() {
		if !e.AppliesTo(pkg.ImportPath) {
			continue
		}
		pass := &framework.Pass{
			Analyzer:  e.Analyzer,
			Fset:      pkg.Fset,
			Syntax:    pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := e.Analyzer.Name
		pass.Report = func(d framework.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if ignores.suppressed(name, pos) {
				return
			}
			out = append(out, Finding{Analyzer: name, Position: pos, Diagnostic: d})
		}
		if err := e.Analyzer.Run(pass); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ignoreDirective is the `//gofmmlint:ignore <analyzer|all> <reason>` form.
const ignoreDirective = "//gofmmlint:ignore"

type ignoreSet map[string]map[int]map[string]bool // file → line → analyzers

// ignoreIndex collects the well-formed directives and, as findings, the
// malformed ones: a directive must name an analyzer (or `all`) AND give a
// non-empty reason to suppress anything.
func ignoreIndex(pkg *load.Package) (ignoreSet, []Finding) {
	set := ignoreSet{}
	var bad []Finding
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignoreDirective))
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Analyzer: "suppression",
						Position: pos,
						Diagnostic: framework.Diagnostic{
							Pos: c.Pos(),
							Message: "gofmmlint:ignore directive without a reason suppresses nothing; " +
								"write `//gofmmlint:ignore <analyzer> <why this is sanctioned>`",
						},
					})
					continue
				}
				if set[pos.Filename] == nil {
					set[pos.Filename] = map[int]map[string]bool{}
				}
				if set[pos.Filename][pos.Line] == nil {
					set[pos.Filename][pos.Line] = map[string]bool{}
				}
				set[pos.Filename][pos.Line][fields[0]] = true
			}
		}
	}
	return set, bad
}

// suppressed honors a directive on the diagnostic's own line (trailing
// comment) or the line directly above it.
func (s ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		if as := lines[l]; as != nil && (as[analyzer] || as["all"]) {
			return true
		}
	}
	return false
}
