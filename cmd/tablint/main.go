// Tablint runs this repository's custom analyzer suite (internal/lint)
// as a vettool, driven by the go command:
//
//	go vet -vettool=$(which tablint) ./...
//
// The go command first invokes `tablint -flags` expecting a JSON
// description of the tool's flags, then invokes `tablint <vet.cfg>`
// once per package, where vet.cfg carries file lists and export-data
// locations for every dependency. Diagnostics go to stderr as
// file:line:col: message [analyzer], and a nonzero exit tells the go
// command the package failed vetting; the facts file named by
// VetxOutput is written (empty — the suite is factless) so the go
// command can cache clean results.
//
// Findings covered by a //lint:allow directive are suppressed, and every
// directive that has rotted is itself a finding (see internal/lint).
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 1 {
		switch {
		case args[0] == "-flags" || args[0] == "--flags":
			// The go command collects the tool's flags to decide which
			// of its own flags to forward. Tablint has none.
			fmt.Println("[]")
			return 0
		case strings.HasPrefix(args[0], "-V"):
			// Version handshake, used by the build cache's action ID.
			fmt.Println("tablint version 1")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runVetCfg(args[0])
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which tablint) <packages>")
	return 1
}

// runVetCfg analyzes the single package described by a vet config file
// written by `go vet`.
func runVetCfg(path string) int {
	cfg, err := load.ReadConfig(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablint:", err)
		return 1
	}
	// The go command wants only dependency facts from VetxOnly runs;
	// the suite carries no facts, so just satisfy the cache.
	if cfg.VetxOnly {
		if err := writeVetx(cfg.VetxOutput); err != nil {
			fmt.Fprintln(os.Stderr, "tablint:", err)
			return 1
		}
		return 0
	}
	pkg, err := cfg.Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablint:", err)
		return 1
	}
	if len(pkg.TypeErrors) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, e := range pkg.TypeErrors {
			fmt.Fprintln(os.Stderr, e)
		}
		return 1
	}
	diags, err := lint.Run(pkg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablint:", err)
		return 1
	}
	if err := writeVetx(cfg.VetxOutput); err != nil {
		fmt.Fprintln(os.Stderr, "tablint:", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	lint.Sort(pkg.Fset, diags)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return 2
}

// writeVetx writes the (empty) serialized-facts file the go command
// uses as this tool's cache entry for the package.
func writeVetx(path string) error {
	if path == "" {
		return nil
	}
	//lint:allow atomicwrite -- build-cache entry; the go command discards torn writes and re-vets
	return os.WriteFile(path, []byte{}, 0o666)
}
