// Package atomicwrite enforces the durability discipline of
// cmdio.AtomicWriteFile: durable files are written to a temp file in the
// destination directory, Sync()ed, renamed into place, and the
// directory is synced. Two failure shapes are flagged:
//
//   - a function that calls os.Rename after creating a temp file but
//     never calls Sync on anything: the rename is atomic in the
//     namespace but the *contents* may still be in the page cache, so
//     a crash after rename leaves a complete-looking, empty-or-torn
//     file — the worst corruption, because nothing detects it until a
//     load fails a checksum;
//
//   - a function that opens a destination path for writing in place
//     (os.Create, os.WriteFile, os.OpenFile with O_CREATE) with no
//     rename at all: a crash mid-write leaves a truncated file at the
//     real path, destroying the previous good copy.
//
// Functions whose writes are not durability-relevant (test fixtures,
// stdout, caches that are rebuilt on miss) annotate //lint:allow
// atomicwrite; everything else goes through a temp+Sync+Rename helper
// such as cmdio.AtomicWriteFile.
package atomicwrite

import (
	"go/ast"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags durable-write sequences missing Sync-before-rename,
// and in-place destination writes that skip the temp+rename pattern.
var Analyzer = &analysis.Analyzer{
	Name: "atomicwrite",
	Doc:  "flags temp-file+rename without Sync, and in-place writes to destination paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// facts gathered from one function body.
type facts struct {
	creates    []*ast.CallExpr // os.Create / os.WriteFile / os.OpenFile(..., O_CREATE, ...)
	createTemp *ast.CallExpr   // os.CreateTemp
	rename     *ast.CallExpr   // os.Rename
	syncs      int             // .Sync() calls (file or dir)
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var fx facts
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case pass.IsPkgCall(call, "os", "CreateTemp"):
			fx.createTemp = call
		case pass.IsPkgCall(call, "os", "Rename"):
			fx.rename = call
		case pass.IsPkgCall(call, "os", "Create"), pass.IsPkgCall(call, "os", "WriteFile"):
			fx.creates = append(fx.creates, call)
		case pass.IsPkgCall(call, "os", "OpenFile"):
			if hasCreateFlag(call) {
				fx.creates = append(fx.creates, call)
			}
		default:
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" && len(call.Args) == 0 {
				fx.syncs++
			}
		}
		return true
	})

	if fx.rename != nil {
		if fx.createTemp != nil && fx.syncs == 0 {
			pass.Reportf(fx.rename.Pos(), "os.Rename without a preceding Sync: a crash after rename can leave a complete-looking but empty file; Sync the temp file (and the directory) first, or annotate //lint:allow atomicwrite")
		}
		return // temp+rename shape: in-place creates here are the temp file itself
	}
	for _, c := range fx.creates {
		pass.Reportf(c.Pos(), "destination file written in place: a crash mid-write destroys the previous good copy; write a temp file, Sync, then os.Rename (see cmdio.AtomicWriteFile), or annotate //lint:allow atomicwrite")
	}
}

// hasCreateFlag reports whether an os.OpenFile call's flag argument
// mentions O_CREATE. The flag is a constant expression; a syntactic
// scan over its identifiers is exact for every real call shape.
func hasCreateFlag(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	found := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.HasPrefix(id.Name, "O_CREATE") {
			found = true
		}
		return !found
	})
	return found
}
