// Package maporder flags `range` over a map whose iterations feed an
// order-sensitive consumer — appends to a slice that outlives the loop,
// string accumulation, channel sends, or direct serialization — without
// an intervening sort.
//
// This is the repository's determinism killer: search results are
// promised byte-identical to a serial from-scratch scan at any
// shard count and any segment layout, pagination cursors compare
// float scores bit-exactly, and worldgen corpora must be reproducible
// from a seed. Go randomizes map iteration order per range statement,
// so any ordered output assembled from a raw map walk differs between
// two executions of the same query.
//
// The maps.Keys/Values/All iterators (Go 1.23) and slices.Collect of
// them iterate in the same randomized order as the map itself and are
// checked identically.
//
// Allowed idioms (not flagged):
//
//   - collect keys, sort, then range the sorted slice — including the
//     one-liner: for _, k := range slices.Sorted(maps.Keys(m));
//   - append-then-sort: the appended slice is passed to sort.*,
//     slices.*, or a local sort*/Sort* helper later in the same
//     function;
//   - writes keyed by the range variable (m2[k] = ..., or
//     posting[k] = append(posting[k], v)): each key's final state is
//     independent of visit order;
//   - order-insensitive folds: counters, min/max via comparison.
//     (Float sums are order-sensitive and belong to floatfold.)
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astutil"
)

// Analyzer flags order-sensitive consumption of map iteration.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags map iteration feeding ordered output (appends, serialization) without an intervening sort",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		var funcs []ast.Node // innermost-last stack of enclosing functions
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				funcs = append(funcs, n)
				ast.Inspect(n.Body, walk)
				funcs = funcs[:len(funcs)-1]
				return false
			case *ast.FuncLit:
				funcs = append(funcs, n)
				ast.Inspect(n.Body, walk)
				funcs = funcs[:len(funcs)-1]
				return false
			case *ast.RangeStmt:
				if len(funcs) > 0 && isMapRange(pass, n) {
					checkMapRange(pass, funcs[len(funcs)-1], n)
				}
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

// isMapRange reports whether rng iterates in map order: directly over
// a map, over a maps.Keys/Values/All iterator (Go 1.23 — same
// randomized order as ranging the map), or over the slice
// slices.Collect materializes from such an iterator. Ranging
// slices.Sorted(maps.Keys(m)) is NOT map-order iteration: Sorted
// establishes the order, so the modern one-liner replaces the older
// collect-keys-sort-range shape without tripping this analyzer.
func isMapRange(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	if t := pass.TypeOf(rng.X); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return true
		}
	}
	return isMapIterExpr(pass, rng.X)
}

// isMapIterExpr recognizes expressions that yield map-order sequences:
// maps.Keys/Values/All and slices.Collect of one.
func isMapIterExpr(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	for _, name := range [...]string{"Keys", "Values", "All"} {
		if pass.IsPkgCall(call, "maps", name) {
			return true
		}
	}
	if pass.IsPkgCall(call, "slices", "Collect") && len(call.Args) == 1 {
		return isMapIterExpr(pass, call.Args[0])
	}
	return false
}

// checkMapRange inspects one map-range body for order-sensitive sinks.
func checkMapRange(pass *analysis.Pass, fn ast.Node, rng *ast.RangeStmt) {
	keyObjs := rangeVarObjects(pass, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, fn, rng, keyObjs, n)
		case *ast.SendStmt:
			if !keyed(pass, n.Chan, keyObjs) && outlivesLoop(pass, n.Chan, rng) {
				pass.Reportf(n.Pos(), "send on %s inside map iteration publishes values in nondeterministic order; collect and sort first, or annotate //lint:allow maporder",
					astutil.Render(n.Chan))
			}
		case *ast.CallExpr:
			checkSerialize(pass, rng, keyObjs, n)
		}
		return true
	})
}

// rangeVarObjects returns the objects of the range statement's key and
// value variables (writes keyed by them are order-independent).
func rangeVarObjects(pass *analysis.Pass, rng *ast.RangeStmt) []types.Object {
	var objs []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := pass.ObjectOf(id); o != nil {
				objs = append(objs, o)
			}
		}
	}
	return objs
}

// checkAssign flags appends to slices that outlive the loop and string
// accumulation into outer variables.
func checkAssign(pass *analysis.Pass, fn ast.Node, rng *ast.RangeStmt, keyObjs []types.Object, as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		lhs := as.Lhs[0]
		if t := pass.TypeOf(lhs); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 &&
				!keyed(pass, lhs, keyObjs) && outlivesLoop(pass, lhs, rng) {
				pass.Reportf(as.Pos(), "string built up across map iterations of %s concatenates in nondeterministic order; sort the keys first, or annotate //lint:allow maporder",
					astutil.Render(rng.X))
			}
		}
		return
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	for i, rh := range as.Rhs {
		call, ok := rh.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
			continue
		}
		lhs := as.Lhs[i]
		if keyed(pass, lhs, keyObjs) || !outlivesLoop(pass, lhs, rng) {
			continue
		}
		if sortedAfter(pass, fn, rng, lhs) {
			continue
		}
		pass.Reportf(as.Pos(), "append to %s inside map iteration of %s accumulates in nondeterministic order; sort the keys before ranging, sort %s afterwards, or annotate //lint:allow maporder",
			astutil.Render(lhs), astutil.Render(rng.X), astutil.Render(lhs))
	}
}

// checkSerialize flags direct serialization inside map iteration:
// fmt.Fprint* to an outer writer, or Encode/Write* methods on an outer
// receiver — bytes leave the loop in nondeterministic order with no
// chance to sort afterwards.
func checkSerialize(pass *analysis.Pass, rng *ast.RangeStmt, keyObjs []types.Object, call *ast.CallExpr) {
	if len(call.Args) > 0 {
		for _, name := range [...]string{"Fprint", "Fprintf", "Fprintln"} {
			if pass.IsPkgCall(call, "fmt", name) {
				if !keyed(pass, call.Args[0], keyObjs) && outlivesLoop(pass, call.Args[0], rng) {
					pass.Reportf(call.Pos(), "fmt.%s inside map iteration serializes entries in nondeterministic order; sort the keys first, or annotate //lint:allow maporder", name)
				}
				return
			}
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Encode", "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return
	}
	// Only method calls (not package functions like binary.Write's
	// cousins resolved above) on receivers that outlive the loop.
	if _, isPkg := pass.ObjectOf(astutil.FirstIdent(sel.X)).(*types.PkgName); isPkg {
		return
	}
	if keyed(pass, sel.X, keyObjs) || !outlivesLoop(pass, sel.X, rng) {
		return
	}
	pass.Reportf(call.Pos(), "%s.%s inside map iteration serializes entries in nondeterministic order; sort the keys first, or annotate //lint:allow maporder",
		astutil.Render(sel.X), sel.Sel.Name)
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// keyed reports whether the expression is indexed or selected through
// the range key/value variables: per-key state is order-independent.
func keyed(pass *analysis.Pass, e ast.Expr, keyObjs []types.Object) bool {
	for _, o := range keyObjs {
		if pass.UsesObject(e, o) {
			return true
		}
	}
	return false
}

// outlivesLoop reports whether the expression's root variable is
// declared outside the range statement (so the accumulated order is
// observable after the loop).
func outlivesLoop(pass *analysis.Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	id := astutil.FirstIdent(e)
	if id == nil {
		return true // conservative: unknown roots are assumed to escape
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return true
	}
	return !analysis.DeclaredWithin(obj, rng)
}

// sortedAfter reports whether the target expression is handed to a
// sorting call after the range statement in the same function — the
// collect-then-sort idiom.
func sortedAfter(pass *analysis.Pass, fn ast.Node, rng *ast.RangeStmt, target ast.Expr) bool {
	obj := pass.ObjectOf(astutil.FirstIdent(target))
	targetStr := astutil.Render(target)
	found := false
	body := astutil.FuncBody(fn)
	if body == nil {
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if obj != nil && pass.UsesObject(arg, obj) {
				found = true
			} else if obj == nil && astutil.Render(arg) == targetStr {
				found = true
			}
		}
		return !found
	})
	return found
}

// isSortCall recognizes sorting calls: anything from package sort or
// slices, plus local helpers whose name starts with "sort"/"Sort"
// (sortRanked and friends) — a naming convention this analyzer
// promotes to a contract.
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		pn, ok := pass.ObjectOf(astutil.FirstIdent(fun.X)).(*types.PkgName)
		if !ok {
			return false
		}
		p := pn.Imported().Path()
		return p == "sort" || p == "slices"
	case *ast.Ident:
		return strings.HasPrefix(fun.Name, "sort") || strings.HasPrefix(fun.Name, "Sort")
	}
	return false
}
