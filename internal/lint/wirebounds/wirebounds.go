// Package wirebounds machine-enforces the ErrBadPartial decode
// contract: a count or length decoded from the wire must be validated
// against a bound before it reaches an allocation or slice operation.
//
// internal/dist/wire.go decodes attacker-shaped bytes (any shard can be
// stale, truncated, or corrupt); a count field taken at face value
// turns one flipped bit into a multi-gigabyte make(). The repaired
// discipline is partialReader.count(min), which compares the decoded
// count against the bytes remaining before returning it. This analyzer
// generalizes that rule flow-sensitively, in files named wire.go or
// stream.go (the wire-format boundary, where raw network bytes become Go
// values: a payload, or the frames of a stream that carry it):
//
//   - a variable assigned from a raw wire read — a reader method named
//     u8/u16/u32/u64/uvarint/varint, or encoding/binary's
//     BigEndian/LittleEndian Uint* — is tainted;
//   - using a tainted variable as a make() size/capacity or a slice
//     bound is reported unless a comparison against the variable sits
//     on a path that dominates the use (or appears earlier in the same
//     basic block);
//   - values returned by a method named count are trusted: the bounds
//     check is the method's contract.
//
// The dominance requirement is the point: a check in one branch does
// not protect a use after the join.
package wirebounds

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astutil"
	"repro/internal/lint/cfg"
)

// Analyzer enforces dominating bounds checks on wire-decoded lengths.
var Analyzer = &analysis.Analyzer{
	Name: "wirebounds",
	Doc:  "flags wire-decoded counts reaching make/slicing without a dominating bounds check",
	Run:  run,
}

// wireFiles are the file names the analyzer scopes itself to.
var wireFiles = map[string]bool{"wire.go": true, "stream.go": true}

// rawReads are the reader method names whose results are tainted.
var rawReads = map[string]bool{
	"u8": true, "u16": true, "u32": true, "u64": true,
	"uvarint": true, "varint": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if !wireFiles[filepath.Base(pass.Fset.Position(f.Pos()).Filename)] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if body := astutil.FuncBody(n); body != nil {
				checkFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

// site is a position within the graph: block plus node index, so
// same-block ordering is decidable.
type site struct {
	block *cfg.Block
	node  int
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)

	tainted := map[types.Object]bool{} // raw wire reads
	trusted := map[types.Object]bool{} // count()-style pre-checked reads
	guards := map[types.Object][]site{}
	type use struct {
		obj  types.Object
		s    site
		pos  token.Pos
		what string
	}
	var uses []use

	for _, b := range g.Blocks {
		for ni, n := range b.Nodes {
			// Taint sources and trusted reads.
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil {
						switch classifyRead(pass, as.Rhs[0]) {
						case readRaw:
							tainted[obj] = true
							delete(trusted, obj)
						case readTrusted:
							trusted[obj] = true
						}
					}
				}
			}
			// Guards: any comparison mentioning a variable counts.
			astutil.InspectShallow(n, func(m ast.Node) bool {
				be, ok := m.(*ast.BinaryExpr)
				if !ok || !isComparison(be.Op) {
					return true
				}
				for _, side := range []ast.Expr{be.X, be.Y} {
					ast.Inspect(side, func(x ast.Node) bool {
						if id, ok := x.(*ast.Ident); ok {
							if obj := pass.ObjectOf(id); obj != nil {
								guards[obj] = append(guards[obj], site{b, ni})
							}
						}
						return true
					})
				}
				return true
			})
			// Uses: make sizes and slice bounds.
			astutil.InspectShallow(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.CallExpr:
					if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "make" {
						for _, arg := range m.Args[1:] {
							for _, obj := range identsIn(pass, arg) {
								uses = append(uses, use{obj, site{b, ni}, arg.Pos(), "make"})
							}
						}
					}
				case *ast.SliceExpr:
					for _, bound := range []ast.Expr{m.Low, m.High, m.Max} {
						if bound == nil {
							continue
						}
						for _, obj := range identsIn(pass, bound) {
							uses = append(uses, use{obj, site{b, ni}, bound.Pos(), "slice bound"})
						}
					}
				}
				return true
			})
		}
	}

	for _, u := range uses {
		if !tainted[u.obj] || trusted[u.obj] {
			continue
		}
		if guarded(g, guards[u.obj], u.s) {
			continue
		}
		pass.Reportf(u.pos, "%s decoded from the wire reaches a %s without a dominating bounds check; compare it against the remaining input on every path first (see partialReader.count) or annotate //lint:allow wirebounds", u.obj.Name(), u.what)
	}
}

// guarded reports whether some guard site strictly precedes u: earlier
// in the same block, or in a distinct block dominating u's block.
func guarded(g *cfg.Graph, gs []site, u site) bool {
	for _, s := range gs {
		if s.block == u.block {
			if s.node < u.node {
				return true
			}
			continue
		}
		if g.Dominates(s.block, u.block) {
			return true
		}
	}
	return false
}

type readKind int

const (
	readNone readKind = iota
	readRaw
	readTrusted
)

// classifyRead inspects an assignment RHS (through conversions) for a
// wire read.
func classifyRead(pass *analysis.Pass, e ast.Expr) readKind {
	e = unwrapConversions(pass, e)
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return readNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return readNone
	}
	if sel.Sel.Name == "count" {
		return readTrusted
	}
	if rawReads[sel.Sel.Name] {
		return readRaw
	}
	// binary.BigEndian.Uint32(b) and friends.
	if strings.HasPrefix(sel.Sel.Name, "Uint") {
		if root := astutil.FirstIdent(sel.X); root != nil {
			if pn, ok := pass.ObjectOf(root).(*types.PkgName); ok && pn.Imported().Path() == "encoding/binary" {
				return readRaw
			}
		}
	}
	return readNone
}

// unwrapConversions strips type conversions like int(...) so the
// underlying call is classified.
func unwrapConversions(pass *analysis.Pass, e ast.Expr) ast.Expr {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			e = call.Args[0]
			continue
		}
		return e
	}
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// identsIn returns the distinct objects referenced under e.
func identsIn(pass *analysis.Pass, e ast.Expr) []types.Object {
	var objs []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil && !seen[obj] {
				seen[obj] = true
				objs = append(objs, obj)
			}
		}
		return true
	})
	return objs
}
