// Package analyzertest runs a framework.Analyzer over golden packages under
// a testdata directory and checks its diagnostics against `// want "regexp"`
// annotations, in the style of x/tools' analysistest. Golden packages live
// in testdata/src/<pkg>/*.go; imports between golden packages resolve from
// the same tree (so a stub `telemetry` package can mimic the real API), and
// standard-library imports resolve through export data from the local
// toolchain. When a file has an associated <file>.golden, the suggested
// fixes reported for that file are applied and the result must match.
package analyzertest

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gofmm/internal/analysis/framework"
	"gofmm/internal/analysis/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// stdExports caches stdlib export data lookups across all tests in the
// process ("go list -export" per distinct import path).
var stdExports = struct {
	sync.Mutex
	m map[string]string
}{m: map[string]string{}}

func stdExportFile(path string) (string, bool) {
	stdExports.Lock()
	defer stdExports.Unlock()
	if f, ok := stdExports.m[path]; ok {
		return f, f != ""
	}
	m, err := load.StdExports([]string{path})
	if err != nil {
		stdExports.m[path] = ""
		return "", false
	}
	for p, f := range m {
		stdExports.m[p] = f
	}
	f := stdExports.m[path]
	return f, f != ""
}

// testImporter resolves golden-tree packages from source and everything
// else from toolchain export data.
type testImporter struct {
	srcRoot string
	fset    *token.FileSet
	cache   map[string]*load.Package
	std     types.Importer
	loading map[string]bool
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.cache[path]; ok {
		return pkg.Types, nil
	}
	dir := filepath.Join(ti.srcRoot, path)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := ti.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ti.std.Import(path)
}

func (ti *testImporter) load(path string) (*load.Package, error) {
	if pkg, ok := ti.cache[path]; ok {
		return pkg, nil
	}
	if ti.loading[path] {
		return nil, fmt.Errorf("import cycle through %q in golden tree", path)
	}
	ti.loading[path] = true
	defer delete(ti.loading, path)
	dir := filepath.Join(ti.srcRoot, path)
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(matches) == 0 {
		return nil, fmt.Errorf("no Go files in golden package %q", path)
	}
	sort.Strings(matches)
	pkg, err := load.Check(ti.fset, ti, path, matches, "")
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	ti.cache[path] = pkg
	return pkg, nil
}

// Run loads each golden package and checks analyzer's diagnostics against
// its want annotations (and .golden files, when present).
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	ti := &testImporter{
		srcRoot: filepath.Join(testdata, "src"),
		fset:    fset,
		cache:   map[string]*load.Package{},
		std:     load.NewImporter(fset, stdExportFile),
		loading: map[string]bool{},
	}
	for _, path := range pkgs {
		pkg, err := ti.load(path)
		if err != nil {
			t.Errorf("loading golden package %q: %v", path, err)
			continue
		}
		var diags []framework.Diagnostic
		pass := &framework.Pass{
			Analyzer:  a,
			Fset:      fset,
			Syntax:    pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d framework.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Errorf("%s: analyzer %s: %v", path, a.Name, err)
			continue
		}
		checkDiagnostics(t, fset, pkg, diags)
		checkGoldenFixes(t, fset, pkg, diags)
	}
}

// want is one expected-diagnostic annotation.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// parseWants extracts `// want "re" "re"...` annotations from every file.
func parseWants(t *testing.T, fset *token.FileSet, pkg *load.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				posn := fset.Position(c.Pos())
				for _, raw := range splitQuoted(text) {
					pat, err := strconv.Unquote(raw)
					if err != nil {
						t.Errorf("%s: bad want pattern %s: %v", posn, raw, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", posn, pat, err)
						continue
					}
					wants = append(wants, &want{file: posn.Filename, line: posn.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

// splitQuoted splits a want payload into its Go-quoted segments.
func splitQuoted(s string) []string {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" || (s[0] != '"' && s[0] != '`') {
			return out
		}
		q := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == q && (q == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			return out
		}
		out = append(out, s[:end+1])
		s = s[end+1:]
	}
}

func checkDiagnostics(t *testing.T, fset *token.FileSet, pkg *load.Package, diags []framework.Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, pkg)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		var found bool
		for _, w := range wants {
			if !w.matched && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %s", w.file, w.line, w.raw)
		}
	}
}

// checkGoldenFixes applies every suggested fix to each file that has a
// sibling <name>.golden and compares the result.
func checkGoldenFixes(t *testing.T, fset *token.FileSet, pkg *load.Package, diags []framework.Diagnostic) {
	t.Helper()
	byFile := map[string][]framework.TextEdit{}
	for _, d := range diags {
		for _, fix := range d.SuggestedFixes {
			for _, e := range fix.TextEdits {
				name := fset.Position(e.Pos).Filename
				byFile[name] = append(byFile[name], e)
			}
		}
	}
	for _, name := range pkg.GoFiles {
		golden := name + ".golden"
		wantSrc, err := os.ReadFile(golden)
		if err != nil {
			continue // no golden: fixes (if any) are not checked for this file
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Errorf("reading %s: %v", name, err)
			continue
		}
		got, err := applyEdits(fset, src, byFile[name])
		if err != nil {
			t.Errorf("%s: applying fixes: %v", name, err)
			continue
		}
		if string(got) != string(wantSrc) {
			t.Errorf("%s: fixed output does not match %s:\n--- got ---\n%s\n--- want ---\n%s",
				name, filepath.Base(golden), got, wantSrc)
		}
	}
}

// applyEdits applies non-overlapping edits (sorted descending so offsets
// stay valid).
func applyEdits(fset *token.FileSet, src []byte, edits []framework.TextEdit) ([]byte, error) {
	sorted := make([]framework.TextEdit, len(edits))
	copy(sorted, edits)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Pos > sorted[j].Pos })
	out := src
	last := len(src) + 1
	for _, e := range sorted {
		start := fset.Position(e.Pos).Offset
		end := start
		if e.End.IsValid() {
			end = fset.Position(e.End).Offset
		}
		if start < 0 || end < start || end > len(src) || end > last {
			return nil, fmt.Errorf("edit [%d,%d) out of range or overlapping", start, end)
		}
		last = start
		out = append(out[:start], append([]byte(string(e.NewText)), out[end:]...)...)
	}
	return out, nil
}
