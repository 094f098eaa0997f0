// Package ctxpoll flags loop nests on the query/build path that cannot
// observe context cancellation.
//
// PR 5 fixed a cancellation-latency bug: one huge table inside a
// candidate scan delayed a deadline until the whole table finished,
// because the row loop never polled ctx.Err(). The repaired discipline
// — poll every rowCheckInterval rows of work, however many candidate
// pairs they span (see internal/search/exec.go) — is what this analyzer
// generalizes: inside a context-accepting function, a loop
// nest that can run row-scale work must reference the context
// somewhere in its body, either directly (ctx.Err(), ctx.Done(), a
// counter-gated poll) or by passing ctx to a callee that polls.
//
// The analyzer is scoped to the packages where row-scale loops live
// (Scope); elsewhere a loop over a handful of options polling nothing
// is fine. Within scope it flags the outermost loop containing another
// loop whose entire subtree never mentions a context.Context value.
// The counter-gated idiom passes because the poll mentions ctx; loops
// whose callees take ctx pass because the argument mentions ctx.
package ctxpoll

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astutil"
)

// Scope lists package-path substrings the analyzer applies to: the
// packages whose loops iterate corpus rows and posting lists. The
// "lint/ctxpoll" entry keeps the analyzer's own testdata in scope.
var Scope = []string{
	"internal/search", // also matches internal/searchidx
	"internal/segment",
	"internal/dist", // partial encode/decode and scatter loops run per-hit work
	"internal/core", // candidate generation probes the lemma index once per cell
	"lint/ctxpoll",
	"ctxpoll", // testdata package path
}

// Analyzer flags loop nests that cannot observe cancellation.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "flags row-scale loop nests in context-accepting functions that never poll the context",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			if !hasCtxParam(pass, fd) {
				return true
			}
			checkLoops(pass, fd.Body)
			return true
		})
	}
	return nil
}

func inScope(path string) bool {
	for _, s := range Scope {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

// hasCtxParam reports whether the function declares a context.Context
// parameter (the cancellation contract this analyzer enforces).
func hasCtxParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkLoops walks loops top-down. A loop whose subtree never touches
// a context value and contains a nested loop is reported once, at its
// head; its interior is not descended into (one report per nest).
// A loop that does touch the context is fine at its own level, but its
// nested loops are checked independently: a poll in the outer loop
// does not bound the latency of an unpolled inner scan.
func checkLoops(pass *analysis.Pass, body *ast.BlockStmt) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil || !astutil.IsLoop(n) {
			return true
		}
		if !touchesContext(pass, n) {
			if hasNestedLoop(n) {
				pass.Reportf(n.Pos(), "loop nest never polls the context: one oversized input delays cancellation until the nest finishes; poll ctx.Err() every N iterations (see rowCheckInterval in internal/search/exec.go) or annotate //lint:allow ctxpoll")
			}
			return false // one report per nest
		}
		// Polled at this level; check interior loops on their own.
		if lb := astutil.LoopBody(n); lb != nil {
			ast.Inspect(lb, walk)
		}
		return false
	}
	ast.Inspect(body, walk)
}

// touchesContext reports whether any identifier under n carries a
// context.Context value — a direct poll, a derived context, or passing
// ctx onward to a callee (which then owns the polling obligation).
func touchesContext(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.ObjectOf(id); obj != nil && isContextType(obj.Type()) {
			found = true
		}
		return !found
	})
	return found
}

// hasNestedLoop reports whether a loop contains another loop — the
// signal that its iteration space multiplies (pairs × rows) into
// row-scale work.
func hasNestedLoop(loop ast.Node) bool {
	body := astutil.LoopBody(loop)
	if body == nil {
		return false
	}
	nested := false
	ast.Inspect(body, func(n ast.Node) bool {
		if nested {
			return false
		}
		if n != nil && astutil.IsLoop(n) {
			nested = true
		}
		return !nested
	})
	return nested
}
