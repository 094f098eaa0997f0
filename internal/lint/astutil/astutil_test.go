package astutil_test

import (
	"go/ast"
	"go/parser"
	"reflect"
	"testing"

	"repro/internal/lint/astutil"
)

func TestFirstIdentAndRender(t *testing.T) {
	for _, c := range [][3]string{
		{"a[i].f", "a", "a[...].f"},
		{"(*p).x", "p", "*p.x"},
		{"&v.w", "v", "&v.w"},
		{"f(x).y", "", "f(...).y"},
		{"1 + 2", "", "expression"},
	} {
		e, err := parser.ParseExpr(c[0])
		if err != nil {
			t.Fatal(err)
		}
		first := ""
		if id := astutil.FirstIdent(e); id != nil {
			first = id.Name
		}
		if got := [3]string{c[0], first, astutil.Render(e)}; got != c {
			t.Errorf("expression, FirstIdent, Render = %q, want %q", got, c)
		}
	}
}

func TestLoopsAndShallowInspection(t *testing.T) {
	e, err := parser.ParseExpr(`func() { for {}; for range xs {}; if ok {}; go func() { inner() }() }`)
	if err != nil {
		t.Fatal(err)
	}
	lit := e.(*ast.FuncLit)
	for i, n := range astutil.FuncBody(lit).List {
		if want := i < 2; astutil.IsLoop(n) != want || (astutil.LoopBody(n) != nil) != want {
			t.Errorf("statement %d: IsLoop %v, LoopBody %v; want loop %v", i, astutil.IsLoop(n), astutil.LoopBody(n), want)
		}
	}
	var idents []string
	astutil.InspectShallow(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			idents = append(idents, id.Name)
		}
		return true
	})
	if want := []string{"xs", "ok"}; !reflect.DeepEqual(idents, want) {
		t.Fatalf("InspectShallow saw %v, want %v: the nested func is not entered", idents, want)
	}
}
