package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

func TestDiagnosticsInReportOrder(t *testing.T) {
	pass := &analysis.Pass{Analyzer: &analysis.Analyzer{Name: "fake"}}
	pass.Reportf(7, "second %d", 2)
	pass.Report(analysis.Diagnostic{Pos: 3, Analyzer: "other", Message: "first"})
	want := []analysis.Diagnostic{{7, "fake", "second 2"}, {3, "other", "first"}}
	if got := pass.Diagnostics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("diagnostics = %+v, want %+v", got, want)
	}
}

// TestIsPkgCall resolves selectors through the import table: an aliased
// import matches, a local variable spelled like the package does not.
func TestIsPkgCall(t *testing.T) {
	const src = `package p
import s "strings"
type T struct{}
func (T) ToUpper(string) string { return "" }
func f(strings T) { s.ToUpper("x"); strings.ToUpper("x"); s.ToLower("x") }`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	exports, err := load.ExportData(".", []string{"strings"})
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := load.CheckFiles("p", fset, []*ast.File{f}, exports)
	if err != nil {
		t.Fatal(err)
	}
	pass := &analysis.Pass{Fset: fset, Files: pkg.Files, Pkg: pkg.Pkg, TypesInfo: pkg.Info}
	var got []bool
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			got = append(got, pass.IsPkgCall(call, "strings", "ToUpper"))
		}
		return true
	})
	if want := []bool{true, false, false}; len(pkg.TypeErrors) > 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("IsPkgCall = %v, want %v (type errors: %v)", got, want, pkg.TypeErrors)
	}
}
