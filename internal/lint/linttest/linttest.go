// Package linttest runs one analyzer over a testdata package and
// checks its diagnostics against `// want "regexp"` comments, in the
// style of golang.org/x/tools' analysistest (which this module cannot
// depend on).
//
// A want comment names the diagnostics expected on its own line:
//
//	for k := range m { // want `nondeterministic order`
//
// Multiple quoted regexps expect multiple diagnostics on the line; a
// line with no want comment expects none. Diagnostics are matched
// after //lint:allow suppression, exactly as the cmd/tablint driver
// applies it — so testdata can assert both that a pattern is flagged
// and that the directive silences it.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Run analyzes the Go files under dir (a testdata package directory,
// relative to the test's working directory) with a and compares the
// surviving diagnostics against want comments. The package is
// type-checked for real: imports resolve to the standard library's
// export data via `go list`. A //lint:allow directive naming an
// analyzer the suite does not register fails the test — in testdata as
// in production, a typoed suppression must not pass silently.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	problems, err := check(a, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// check is Run's testable core: fatal setup failures come back as err,
// want-comment mismatches as problems.
func check(a *analysis.Analyzer, dir string) (problems []string, err error) {
	fset := token.NewFileSet()
	files, imports, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("linttest: no Go files in %s", dir)
	}
	// Allow directives must name analyzers that exist — with one
	// extension: the analyzer under test may be a fixture that is not
	// registered in the suite (linttest's own tests use one).
	known := lint.AnalyzerNames()
	if !known[a.Name] {
		known[a.Name] = true
	}
	allows := lint.CollectAllows(fset, files)
	for _, al := range allows {
		for _, name := range al.Analyzers {
			if !known[name] {
				return nil, fmt.Errorf("linttest: %s:%d: //lint:allow names unknown analyzer %q", al.File, al.Line, name)
			}
		}
	}
	packageFile, err := load.ExportData(dir, imports)
	if err != nil {
		return nil, err
	}
	// The import path is the analyzer's name so path-scoped analyzers
	// (ctxpoll) see their own testdata as in scope.
	pkg, err := load.CheckFiles(a.Name, fset, files, packageFile)
	if err != nil {
		return nil, err
	}
	if len(pkg.TypeErrors) > 0 {
		return nil, fmt.Errorf("linttest: testdata does not type-check: %v", pkg.TypeErrors)
	}

	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	diags := lint.Suppress(fset, allows, pass.Diagnostics())
	lint.Sort(fset, diags)
	return checkWants(fset, files, diags)
}

// parseDir parses every .go file in dir and collects the union of
// their import paths.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("linttest: %w", err)
	}
	var files []*ast.File
	seen := make(map[string]bool)
	var imports []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("linttest: %w", err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if !seen[p] {
				seen[p] = true
				imports = append(imports, p)
			}
		}
	}
	sort.Strings(imports)
	return files, imports, nil
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// checkWants matches diagnostics against want comments 1:1.
func checkWants(fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) (problems []string, err error) {
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				res, err := parsePatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, re := range res {
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("%s:%d: unexpected diagnostic [%s]: %s", pos.Filename, pos.Line, d.Analyzer, d.Message))
		}
	}
	for _, w := range wants {
		if !w.hit {
			problems = append(problems, fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re))
		}
	}
	return problems, nil
}

// parsePatterns reads a sequence of quoted regexps ("..." or `...`)
// from the text after the want keyword.
func parsePatterns(s string) ([]*regexp.Regexp, error) {
	var res []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var lit string
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '"' && s[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("linttest: unterminated want pattern %q", s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, fmt.Errorf("linttest: bad want pattern %q: %v", s[:end+1], err)
			}
			lit, s = unq, strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("linttest: unterminated want pattern %q", s)
			}
			lit, s = s[1:end+1], strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("linttest: want patterns must be quoted, got %q", s)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, fmt.Errorf("linttest: bad want regexp %q: %v", lit, err)
		}
		res = append(res, re)
	}
	return res, nil
}
