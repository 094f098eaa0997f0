// Package load turns Go packages into type-checked syntax for the lint
// analyzers, without golang.org/x/tools: export data for dependencies
// comes from the vet.cfg file the go command hands a -vettool (see
// cmd/tablint), or, for testdata packages, from `go list -export`, and is
// decoded by the standard library's gc importer.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// Config describes one package to analyze. It is the subset of the go
// command's vet config (cmd/go/internal/work.vetConfig) tablint needs;
// the JSON field names match the wire format exactly.
type Config struct {
	ImportPath string
	GoFiles    []string
	GoVersion  string

	ImportMap   map[string]string // import path in source → canonical package path
	PackageFile map[string]string // canonical package path → export data file

	VetxOnly   bool   // go vet only wants dependency facts; skip analysis
	VetxOutput string // where to write the (empty) facts file

	SucceedOnTypecheckFailure bool
}

// ReadConfig decodes a vet.cfg file written by `go vet -vettool`.
func ReadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("load: parse %s: %w", path, err)
	}
	return cfg, nil
}

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// TypeErrors holds the type-checker's complaints. Analysis can
	// proceed on a partially checked package, but the driver reports
	// them (unless the go command asked it not to).
	TypeErrors []error
}

// Load parses and type-checks the config's package. Files ending in
// _test.go are skipped: tablint enforces production-code invariants,
// and the go command hands test variants to the vettool as separate
// configs sharing the non-test files.
func (cfg *Config) Load() (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return &Package{ImportPath: cfg.ImportPath, Fset: fset}, nil
	}
	return check(cfg.ImportPath, cfg.GoVersion, fset, files, cfg.ImportMap, cfg.PackageFile)
}

// check runs the type checker with dependencies resolved from export
// data files.
func check(path, goVersion string, fset *token.FileSet, files []*ast.File, importMap, packageFile map[string]string) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg := &Package{ImportPath: path, Fset: fset, Files: files, Info: info}
	tcfg := &types.Config{
		Importer: &mappedImporter{
			imp: importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
				file, ok := packageFile[p]
				if !ok {
					return nil, fmt.Errorf("load: no export data for %q", p)
				}
				return os.Open(file)
			}),
			m: importMap,
		},
		Error: func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		Sizes: types.SizesFor("gc", "amd64"),
	}
	if goVersion != "" && strings.HasPrefix(goVersion, "go") {
		tcfg.GoVersion = goVersion
	}
	// Check reports the first error it saw; the Error hook above already
	// collected everything, so only an error without collected detail
	// (an importer crash, say) is returned directly.
	tpkg, err := tcfg.Check(path, fset, files, info)
	pkg.Pkg = tpkg
	if err != nil && len(pkg.TypeErrors) == 0 {
		return nil, fmt.Errorf("load: typecheck %s: %w", path, err)
	}
	return pkg, nil
}

// mappedImporter applies a vendoring/canonicalization map before
// delegating to the export-data importer. The gc importer caches, so a
// package is decoded once per process however many times it is named.
type mappedImporter struct {
	imp types.Importer
	m   map[string]string
}

func (mi *mappedImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.m[path]; ok {
		path = p
	}
	return mi.imp.Import(path)
}

// ExportData resolves export-data files for the named packages and all
// their dependencies with `go list -export -deps -json` — the test
// loader uses it to type-check testdata sources against the real
// standard library.
func ExportData(dir string, pkgs []string) (map[string]string, error) {
	out := make(map[string]string)
	if len(pkgs) == 0 {
		return out, nil
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, pkgs...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list: %v\n%s", err, stderr.String())
	}
	for dec := json.NewDecoder(&stdout); dec.More(); {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("load: decode go list output: %w", err)
		}
		if p.Export != "" {
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
}

// CheckFiles type-checks already-parsed files (the test loader's path);
// packageFile must cover every import, transitively.
func CheckFiles(path string, fset *token.FileSet, files []*ast.File, packageFile map[string]string) (*Package, error) {
	return check(path, "", fset, files, nil, packageFile)
}
