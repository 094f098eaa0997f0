package load_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint/load"
)

// write puts each name's source in dir and returns the paths.
func write(t *testing.T, dir string, files ...string) []string {
	var paths []string
	for i := 0; i < len(files); i += 2 {
		paths = append(paths, filepath.Join(dir, files[i]))
		if err := os.WriteFile(paths[len(paths)-1], []byte(files[i+1]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

func TestReadConfig(t *testing.T) {
	dir := t.TempDir()
	if _, err := load.ReadConfig(filepath.Join(dir, "missing.cfg")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v", err)
	}
	path := write(t, dir, "vet.cfg", `{"ImportPath":"p","GoFiles":["a.go"],"ImportMap":{"x":"y"},"VetxOnly":true}`)
	cfg, err := load.ReadConfig(path[0])
	if err != nil || cfg.ImportPath != "p" || len(cfg.GoFiles) != 1 || cfg.ImportMap["x"] != "y" || !cfg.VetxOnly {
		t.Fatalf("config = %+v, err = %v", cfg, err)
	}
}

// TestLoadAndCheckFiles type-checks a one-file package two ways: from a
// config, which skips _test.go files, and from parsed files, which keeps
// type errors beside the package instead of failing.
func TestLoadAndCheckFiles(t *testing.T) {
	files := write(t, t.TempDir(), "a.go", "package p\nfunc F() int { return 1 }", "a_test.go", "package p\nvar x int = \"\"")
	pkg, err := (&load.Config{ImportPath: "p", GoFiles: files}).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 || len(pkg.TypeErrors) > 0 || pkg.Pkg.Scope().Lookup("F") == nil {
		t.Fatalf("Load: %d files, type errors %v", len(pkg.Files), pkg.TypeErrors)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "b.go", "package q\nvar x int = \"s\"", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pkg, err = load.CheckFiles("q", fset, []*ast.File{f}, nil); err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) != 1 || pkg.Pkg.Name() != "q" {
		t.Fatalf("CheckFiles: package %q, type errors %v", pkg.Pkg.Name(), pkg.TypeErrors)
	}
}
