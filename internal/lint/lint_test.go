package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// diagAt fabricates a diagnostic at a given line of the fixture file.
func diagAt(fset *token.FileSet, files []*ast.File, line int, name string) analysis.Diagnostic {
	tf := fset.File(files[0].Pos())
	return analysis.Diagnostic{Pos: tf.LineStart(line), Analyzer: name, Message: "m"}
}

func TestSuiteHasEightNamedAnalyzers(t *testing.T) {
	want := map[string]bool{
		"maporder": true, "ctxpoll": true, "errcmp": true,
		"atomicwrite": true, "floatfold": true,
		"lockcheck": true, "goroleak": true, "metriclabel": true,
	}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for _, a := range suite {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
	names := lint.AnalyzerNames()
	for n := range want {
		if !names[n] {
			t.Errorf("AnalyzerNames missing %q", n)
		}
	}
}

func TestCollectAllows(t *testing.T) {
	src := `package p

func f() {
	//lint:allow maporder -- keys sorted by the collector downstream
	_ = 1
	_ = 2 //lint:allow errcmp, floatfold -- two at once
	//lint:allow ctxpoll
	_ = 3
}
`
	fset, files := parseSrc(t, src)
	allows := lint.CollectAllows(fset, files)
	if len(allows) != 3 {
		t.Fatalf("collected %d allows, want 3: %+v", len(allows), allows)
	}
	if allows[0].Line != 4 || allows[0].Justification != "keys sorted by the collector downstream" {
		t.Errorf("first allow wrong: %+v", allows[0])
	}
	if len(allows[1].Analyzers) != 2 || allows[1].Analyzers[0] != "errcmp" || allows[1].Analyzers[1] != "floatfold" {
		t.Errorf("second allow analyzers wrong: %+v", allows[1])
	}
	if allows[2].Justification != "" {
		t.Errorf("third allow should have empty justification: %+v", allows[2])
	}
}

func TestValidateAllowsRejectsUnknownNames(t *testing.T) {
	src := `package p

func f() {
	//lint:allow mapoder -- typo for maporder
	_ = 1
}
`
	fset, files := parseSrc(t, src)
	rot := lint.ValidateAllows(fset, lint.CollectAllows(fset, files), nil)
	if len(rot) != 1 {
		t.Fatalf("got %d findings, want 1 for the unknown name: %+v", len(rot), rot)
	}
	if pos := fset.Position(rot[0].Pos); rot[0].Analyzer != "allow" || pos.Line != 4 || !strings.Contains(rot[0].Message, `unknown analyzer "mapoder"`) {
		t.Errorf("finding should name the bad analyzer at the directive: %s %+v", pos, rot[0])
	}
}

func TestValidateAllowsAcceptsKnownNames(t *testing.T) {
	src := `package p

func f() {
	//lint:allow lockcheck, metriclabel -- both real
	_ = 1
}
`
	fset, files := parseSrc(t, src)
	live := []analysis.Diagnostic{diagAt(fset, files, 5, "lockcheck"), diagAt(fset, files, 5, "metriclabel")}
	if rot := lint.ValidateAllows(fset, lint.CollectAllows(fset, files), live); len(rot) != 0 {
		t.Fatalf("a known, live, justified directive was reported: %+v", rot)
	}
}

// TestValidateAllowsReportsRot: a name that no longer fires on the covered
// lines is stale, and a directive without " -- why" is unjustified; each is
// one finding, however many names the directive lists.
func TestValidateAllowsReportsRot(t *testing.T) {
	src := `package p

func f() {
	//lint:allow maporder, errcmp
	_ = 1
}
`
	fset, files := parseSrc(t, src)
	rot := lint.ValidateAllows(fset, lint.CollectAllows(fset, files), []analysis.Diagnostic{diagAt(fset, files, 5, "maporder")})
	var msgs []string
	for _, d := range rot {
		msgs = append(msgs, d.Message)
	}
	if len(rot) != 2 || !strings.Contains(msgs[0], "stale //lint:allow: errcmp") || !strings.Contains(msgs[1], "no justification") {
		t.Fatalf("want one stale errcmp finding and one unjustified finding, got %q", msgs)
	}
}

func TestCovers(t *testing.T) {
	src := `package p

func f() {
	//lint:allow maporder -- j
	_ = 1
}
`
	fset, files := parseSrc(t, src)
	allows := lint.CollectAllows(fset, files)
	if len(allows) != 1 {
		t.Fatalf("collected %d allows, want 1", len(allows))
	}
	a := allows[0]
	if !lint.Covers(fset, a, diagAt(fset, files, 4, "maporder")) {
		t.Errorf("allow should cover its own line")
	}
	if !lint.Covers(fset, a, diagAt(fset, files, 5, "maporder")) {
		t.Errorf("allow should cover the line below")
	}
	if lint.Covers(fset, a, diagAt(fset, files, 6, "maporder")) {
		t.Errorf("allow must not cover two lines below")
	}
	if lint.Covers(fset, a, diagAt(fset, files, 4, "errcmp")) {
		t.Errorf("allow must not cover other analyzers")
	}
}

func TestSuppressDirective(t *testing.T) {
	src := `package p

func f() {
	//lint:allow maporder -- justified
	_ = 1
	_ = 2 //lint:allow errcmp, floatfold -- two at once

	_ = 3
}
`
	fset, files := parseSrc(t, src)
	diags := []analysis.Diagnostic{
		diagAt(fset, files, 5, "maporder"),  // line under directive: suppressed
		diagAt(fset, files, 5, "ctxpoll"),   // same line, other analyzer: kept
		diagAt(fset, files, 6, "errcmp"),    // same-line directive: suppressed
		diagAt(fset, files, 6, "floatfold"), // second name in list: suppressed
		diagAt(fset, files, 8, "errcmp"),    // two lines below directive: kept
	}
	kept := lint.Suppress(fset, lint.CollectAllows(fset, files), diags)
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %+v", len(kept), kept)
	}
	if kept[0].Analyzer != "ctxpoll" || kept[1].Analyzer != "errcmp" {
		t.Errorf("kept wrong diagnostics: %+v", kept)
	}
	if fset.Position(kept[1].Pos).Line != 8 {
		t.Errorf("kept errcmp diagnostic at line %d, want 8", fset.Position(kept[1].Pos).Line)
	}
}

func TestSortOrdersByPosition(t *testing.T) {
	src := "package p\n\nvar a = 1\nvar b = 2\n"
	fset, files := parseSrc(t, src)
	diags := []analysis.Diagnostic{
		diagAt(fset, files, 4, "maporder"),
		diagAt(fset, files, 3, "floatfold"),
		diagAt(fset, files, 3, "ctxpoll"),
	}
	lint.Sort(fset, diags)
	got := []string{diags[0].Analyzer, diags[1].Analyzer, diags[2].Analyzer}
	want := []string{"ctxpoll", "floatfold", "maporder"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order %v, want %v", got, want)
		}
	}
}
