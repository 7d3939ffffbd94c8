package suite_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"slices"
	"strings"
	"testing"

	"gofmm/internal/analysis/framework"
	"gofmm/internal/analysis/load"
	"gofmm/internal/analysis/suite"
)

const src = `package core

func collect(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

func collectIgnored(m map[int]int) []int {
	var out []int
	for k := range m {
		//gofmmlint:ignore detorder caller rehashes into a set
		out = append(out, k)
	}
	return out
}
`

func checkAs(t *testing.T, importPath string) []suite.Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "core.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := framework.NewInfo()
	conf := types.Config{}
	tpkg, err := conf.Check(importPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := suite.Run(&load.Package{
		ImportPath: importPath,
		Fset:       fset,
		Syntax:     []*ast.File{f},
		Types:      tpkg,
		TypesInfo:  info,
	})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// In a deterministic numeric package the un-ignored loop is flagged and the
// //gofmmlint:ignore directive suppresses the second.
func TestIgnoreDirective(t *testing.T) {
	findings := checkAs(t, "gofmm/internal/core")
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 (the ignored loop suppressed): %v", len(findings), findings)
	}
	if f := findings[0]; f.Analyzer != "detorder" || f.Position.Line != 6 {
		t.Fatalf("got %s at line %d, want detorder at line 6", f.Analyzer, f.Position.Line)
	}
}

const reasonlessSrc = `package core

func collect(m map[int]int) []int {
	var out []int
	for k := range m {
		//gofmmlint:ignore detorder
		out = append(out, k)
	}
	return out
}
`

// A directive without a reason suppresses nothing and is itself reported.
func TestReasonlessDirective(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "core.go", reasonlessSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := framework.NewInfo()
	tpkg, err := (&types.Config{}).Check("gofmm/internal/core", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := suite.Run(&load.Package{
		ImportPath: "gofmm/internal/core",
		Fset:       fset,
		Syntax:     []*ast.File{f},
		Types:      tpkg,
		TypesInfo:  info,
	})
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string]int{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	if byAnalyzer["suppression"] != 1 {
		t.Errorf("got %d suppression findings, want 1: %v", byAnalyzer["suppression"], findings)
	}
	if byAnalyzer["detorder"] != 1 {
		t.Errorf("got %d detorder findings, want 1 (reasonless directive must not suppress): %v",
			byAnalyzer["detorder"], findings)
	}
}

// Outside detorder's package set the same code is not checked at all.
func TestPathFilter(t *testing.T) {
	if findings := checkAs(t, "gofmm/cmd/gofmm"); len(findings) != 0 {
		t.Fatalf("detorder applied outside its package set: %v", findings)
	}
}

// The serving layer must sit inside both behavioral nets: ctxcheck (the
// X-Deadline-Ms contract only holds if no handler path mints a fresh
// context root) and errtaxonomy (the 429-vs-503 mapping dispatches on
// errors.Is, so every serve error must wrap a sentinel). This pins the
// path filters so a future carve-out cannot silently drop the package.
func TestServeInsideBehavioralAnalyzers(t *testing.T) {
	covered := map[string]bool{"ctxcheck": false, "errtaxonomy": false}
	for _, e := range suite.All() {
		if _, tracked := covered[e.Analyzer.Name]; tracked && e.AppliesTo("gofmm/internal/serve") {
			covered[e.Analyzer.Name] = true
		}
	}
	for name, ok := range covered {
		if !ok {
			t.Errorf("%s does not apply to gofmm/internal/serve", name)
		}
	}
}

// TestRegisteredAnalyzers holds suite.All to ci/analyzers.txt, the list CI's
// "Registered analyzer sanity" step checks gofmmlint's SARIF rules against:
// a dropped registration fails both.
func TestRegisteredAnalyzers(t *testing.T) {
	raw, err := os.ReadFile("../../../ci/analyzers.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	var got []string
	for _, e := range suite.All() {
		got = append(got, e.Analyzer.Name)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("suite.All registers %v, ci/analyzers.txt lists %v", got, want)
	}
}
