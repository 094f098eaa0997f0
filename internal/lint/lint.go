// Package lint is the tablint suite registry: the custom analyzers
// that machine-enforce this repository's determinism, cancellation and
// durability invariants, plus the //lint:allow suppression directive
// the cmd/tablint driver honors.
//
// See README.md in this directory for the invariant each analyzer
// encodes and the incident that motivated it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/atomicwrite"
	"repro/internal/lint/ctxpoll"
	"repro/internal/lint/errcmp"
	"repro/internal/lint/floatfold"
	"repro/internal/lint/goroleak"
	"repro/internal/lint/load"
	"repro/internal/lint/lockcheck"
	"repro/internal/lint/maporder"
	"repro/internal/lint/metriclabel"
)

// Suite returns the full tablint analyzer suite, in reporting order:
// the five intra-procedural analyzers, then the three that came later
// (lockcheck is the one built on internal/lint/cfg).
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		ctxpoll.Analyzer,
		errcmp.Analyzer,
		atomicwrite.Analyzer,
		floatfold.Analyzer,
		lockcheck.Analyzer,
		goroleak.Analyzer,
		metriclabel.Analyzer,
	}
}

// AnalyzerNames returns the set of registered analyzer names.
func AnalyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Suite() {
		names[a.Name] = true
	}
	return names
}

// Run executes every suite analyzer over one loaded package. It returns
// the findings no //lint:allow directive covers, followed by one finding
// for each way a directive has rotted (see ValidateAllows).
func Run(pkg *load.Package) ([]analysis.Diagnostic, error) {
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	var diags []analysis.Diagnostic
	for _, a := range Suite() {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
		diags = append(diags, pass.Diagnostics()...)
	}
	allows := CollectAllows(pkg.Fset, pkg.Files)
	return append(Suppress(pkg.Fset, allows, diags), ValidateAllows(pkg.Fset, allows, diags)...), nil
}

// allowDirective is the suppression marker: a comment of the form
//
//	//lint:allow maporder -- justification for the exception
//
// (one or more comma-separated analyzer names) placed on the flagged
// line or the line directly above it. The justification after " -- "
// is required (ValidateAllows reports a directive without one): whoever
// deletes the directive needs to know what it protected.
const allowDirective = "lint:allow"

// Allow is one parsed //lint:allow directive.
type Allow struct {
	// File and Line locate the directive comment.
	File string
	Line int
	// Pos is the comment's position in the fileset.
	Pos token.Pos
	// Analyzers lists the names the directive suppresses.
	Analyzers []string
	// Justification is the free text after " -- ", "" when omitted.
	Justification string
}

// CollectAllows parses every //lint:allow directive in files, in
// source order.
func CollectAllows(fset *token.FileSet, files []*ast.File) []Allow {
	var allows []Allow
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				names := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
				just := ""
				if i := strings.Index(names, "--"); i >= 0 {
					just = strings.TrimSpace(names[i+2:])
					names = names[:i]
				}
				pos := fset.Position(c.Pos())
				a := Allow{File: pos.Filename, Line: pos.Line, Pos: c.Pos(), Justification: just}
				for _, n := range strings.Split(names, ",") {
					if n = strings.TrimSpace(n); n != "" {
						a.Analyzers = append(a.Analyzers, n)
					}
				}
				if len(a.Analyzers) > 0 {
					allows = append(allows, a)
				}
			}
		}
	}
	return allows
}

// ValidateAllows checks every directive against the package's
// unsuppressed findings and reports, under the analyzer name "allow", a
// directive that names an analyzer the suite does not register (a typo
// like //lint:allow mapoder would otherwise suppress nothing), one whose
// analyzer no longer fires on the lines it covers, and one without a
// justification. Suppressions are debt; this keeps the ledger honest.
func ValidateAllows(fset *token.FileSet, allows []Allow, diags []analysis.Diagnostic) []analysis.Diagnostic {
	known := AnalyzerNames()
	var rot []analysis.Diagnostic
	report := func(a Allow, format string, args ...any) {
		rot = append(rot, analysis.Diagnostic{Pos: a.Pos, Analyzer: "allow", Message: fmt.Sprintf(format, args...)})
	}
	for _, a := range allows {
		for _, name := range a.Analyzers {
			one := a
			one.Analyzers = []string{name}
			switch {
			case !known[name]:
				report(a, "//lint:allow names unknown analyzer %q (known: %s)", name, strings.Join(slices.Sorted(maps.Keys(known)), ", "))
			case !slices.ContainsFunc(diags, func(d analysis.Diagnostic) bool { return Covers(fset, one, d) }):
				report(a, "stale //lint:allow: %s no longer fires here; delete the directive", name)
			}
		}
		if a.Justification == "" {
			report(a, "//lint:allow has no justification; append ` -- why`")
		}
	}
	return rot
}

// Suppress drops the diagnostics one of allows covers.
func Suppress(fset *token.FileSet, allows []Allow, diags []analysis.Diagnostic) []analysis.Diagnostic {
	var kept []analysis.Diagnostic
	for _, d := range diags {
		if !slices.ContainsFunc(allows, func(a Allow) bool { return Covers(fset, a, d) }) {
			kept = append(kept, d)
		}
	}
	return kept
}

// Covers reports whether allow a covers diagnostic d: same file, and d
// sits on the directive's line or the line directly below it.
func Covers(fset *token.FileSet, a Allow, d analysis.Diagnostic) bool {
	pos := fset.Position(d.Pos)
	if pos.Filename != a.File {
		return false
	}
	if pos.Line != a.Line && pos.Line != a.Line+1 {
		return false
	}
	return slices.Contains(a.Analyzers, d.Analyzer)
}

// Sort orders diagnostics by file, line and column for stable output.
func Sort(fset *token.FileSet, diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pa, pb := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		if pa.Line != pb.Line {
			return pa.Line < pb.Line
		}
		if pa.Column != pb.Column {
			return pa.Column < pb.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
