package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// build parses src (a file body with one func f) and returns f's graph.
func build(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[len(file.Decls)-1].(*ast.FuncDecl)
	return New(fn.Body)
}

// blockOf finds the block containing a call statement name().
func blockOf(t *testing.T, g *Graph, name string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				return b
			}
		}
	}
	t.Fatalf("no block contains %s()", name)
	return nil
}

func TestStraightLine(t *testing.T) {
	g := build(t, "a(); b()")
	if got := blockOf(t, g, "a"); got != blockOf(t, g, "b") {
		t.Errorf("a() and b() should share a block")
	}
	if len(g.Exit.Preds) != 1 {
		t.Errorf("Exit preds = %d, want 1", len(g.Exit.Preds))
	}
}

func TestIfDominance(t *testing.T) {
	g := build(t, `
		a()
		if cond() {
			b()
		}
		d()`)
	ba, bb, bd := blockOf(t, g, "a"), blockOf(t, g, "b"), blockOf(t, g, "d")
	if !dominates(g, ba, bd) {
		t.Errorf("a should dominate d")
	}
	if !dominates(g, ba, bb) {
		t.Errorf("a should dominate b")
	}
	if dominates(g, bb, bd) {
		t.Errorf("b (conditional) must not dominate d")
	}
	if !dominates(g, ba, g.Exit) {
		t.Errorf("a should dominate Exit")
	}
}

func TestIfElseJoin(t *testing.T) {
	g := build(t, `
		if cond() {
			b()
		} else {
			c()
		}
		d()`)
	bd := blockOf(t, g, "d")
	if len(bd.Preds) != 2 {
		t.Errorf("join block preds = %d, want 2", len(bd.Preds))
	}
	if dominates(g, blockOf(t, g, "b"), bd) || dominates(g, blockOf(t, g, "c"), bd) {
		t.Errorf("neither branch may dominate the join")
	}
}

func TestEarlyReturn(t *testing.T) {
	g := build(t, `
		if cond() {
			return
		}
		b()`)
	if len(g.Exit.Preds) != 2 {
		t.Errorf("Exit preds = %d, want 2 (return + fallthrough)", len(g.Exit.Preds))
	}
	if dominates(g, blockOf(t, g, "b"), g.Exit) {
		t.Errorf("b must not dominate Exit (return path bypasses it)")
	}
}

func TestLoopStructure(t *testing.T) {
	g := build(t, `
		for i := 0; i < 10; i++ {
			a()
		}
		b()`)
	ba, bb := blockOf(t, g, "a"), blockOf(t, g, "b")
	if dominates(g, ba, bb) {
		t.Errorf("loop body must not dominate code after the loop")
	}
	// The body must sit on a cycle: reachable from itself.
	if !onCycle(ba) {
		t.Errorf("loop body should be on a cycle")
	}
}

func TestRangeBreakContinue(t *testing.T) {
	g := build(t, `
		for range xs {
			if cond() {
				continue
			}
			if other() {
				break
			}
			a()
		}
		b()`)
	if dominates(g, blockOf(t, g, "a"), blockOf(t, g, "b")) {
		t.Errorf("a is conditional in the loop; must not dominate b")
	}
	if !onCycle(blockOf(t, g, "a")) {
		t.Errorf("loop body should be on a cycle")
	}
}

func TestLabeledBreak(t *testing.T) {
	g := build(t, `
	outer:
		for {
			for {
				if cond() {
					break outer
				}
				a()
			}
		}
		b()`)
	// b is reachable only via the labeled break.
	if len(blockOf(t, g, "b").Preds) == 0 {
		t.Errorf("labeled break should reach b")
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := build(t, `
		switch x() {
		case 1:
			a()
			fallthrough
		case 2:
			b()
		default:
			c()
		}
		d()`)
	ba, bb := blockOf(t, g, "a"), blockOf(t, g, "b")
	found := false
	for _, s := range ba.Succs {
		if s == bb {
			found = true
		}
	}
	if !found {
		t.Errorf("fallthrough should edge a's block to b's block")
	}
	if dominates(g, blockOf(t, g, "c"), blockOf(t, g, "d")) {
		t.Errorf("default body must not dominate code after the switch")
	}
}

func TestSelect(t *testing.T) {
	g := build(t, `
		select {
		case <-ch:
			a()
		default:
			b()
		}
		d()`)
	if len(blockOf(t, g, "d").Preds) != 2 {
		t.Errorf("after-select preds = %d, want 2", len(blockOf(t, g, "d").Preds))
	}
}

func TestGoto(t *testing.T) {
	g := build(t, `
		a()
		goto done
		b()
	done:
		c()`)
	bc := blockOf(t, g, "c")
	if len(bc.Preds) < 1 {
		t.Errorf("goto target should have the goto edge")
	}
	// b is unreachable: dominated only by itself.
	bb := blockOf(t, g, "b")
	if dominates(g, g.Entry, bb) {
		t.Errorf("unreachable b must not be dominated by Entry")
	}
}

func TestPanicTerminates(t *testing.T) {
	g := build(t, `
		if cond() {
			panic("boom")
		}
		b()`)
	if dominates(g, blockOf(t, g, "b"), g.Exit) {
		t.Errorf("panic path bypasses b; b must not dominate Exit")
	}
}

func TestDefersCollected(t *testing.T) {
	g := build(t, `
		defer a()
		if cond() {
			defer b()
		}
		c()`)
	if len(g.Defers) != 2 {
		t.Errorf("Defers = %d, want 2", len(g.Defers))
	}
}

// dominates reports whether every path from g.Entry to b passes
// through a, by searching for b from Entry with a taken out. A block
// dominates itself; one unreachable from Entry is dominated by no other.
func dominates(g *Graph, a, b *Block) bool {
	if a == b {
		return true
	}
	return reaches(g.Entry, b, nil) && !reaches(g.Entry, b, a)
}

// reaches reports whether a path leads from one block to another without
// entering without.
func reaches(from, to, without *Block) bool {
	seen := map[*Block]bool{without: true}
	var walk func(*Block) bool
	walk = func(x *Block) bool {
		if seen[x] {
			return false
		}
		seen[x] = true
		if x == to {
			return true
		}
		for _, s := range x.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// onCycle reports whether b can reach itself.
func onCycle(b *Block) bool {
	seen := map[*Block]bool{}
	var walk func(*Block) bool
	walk = func(x *Block) bool {
		for _, s := range x.Succs {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				if walk(s) {
					return true
				}
			}
		}
		return false
	}
	return walk(b)
}

// TestForward exercises both join modes on a gen/kill problem: fact "x"
// generated at a(), killed at b() (conditional).
//
//	a()            // gen x
//	if cond() { b() }  // kill x
//	d()
func TestForward(t *testing.T) {
	g := build(t, `
		a()
		if cond() {
			b()
		}
		d()`)
	transfer := func(b *Block, in Facts) Facts {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			switch id := call.Fun.(*ast.Ident); id.Name {
			case "a":
				in["x"] = true
			case "b":
				delete(in, "x")
			}
		}
		return in
	}
	universe := Facts{"x": true}

	may := g.Forward(Union, Facts{}, universe, transfer)
	if !may[blockOf(t, g, "d")]["x"] {
		t.Errorf("union: x may reach d via the else path")
	}
	if !may[g.Exit]["x"] {
		t.Errorf("union: x may reach Exit")
	}

	must := g.Forward(Intersect, Facts{}, universe, transfer)
	if must[blockOf(t, g, "d")]["x"] {
		t.Errorf("intersect: x is not held on every path into d")
	}
	if must[blockOf(t, g, "b")]["x"] != true {
		t.Errorf("intersect: x must be held entering b (a dominates)")
	}
}

// TestForwardLoop checks the solver reaches a fixpoint over a cycle.
func TestForwardLoop(t *testing.T) {
	g := build(t, `
		a()
		for i := 0; i < 10; i++ {
			b()
		}
		d()`)
	transfer := func(b *Block, in Facts) Facts {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			switch id := call.Fun.(*ast.Ident); id.Name {
			case "a":
				in["x"] = true
			case "b":
				in["y"] = true
			}
		}
		return in
	}
	universe := Facts{"x": true, "y": true}
	must := g.Forward(Intersect, Facts{}, universe, transfer)
	bd := blockOf(t, g, "d")
	if !must[bd]["x"] {
		t.Errorf("intersect: x set before the loop must survive it")
	}
	if must[bd]["y"] {
		t.Errorf("intersect: y only set inside the loop (zero-iteration path skips it)")
	}
}
