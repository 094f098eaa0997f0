package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// bin is the tablint binary TestMain builds once for every test.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tablint")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "tablint")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// vet runs `go vet -vettool=tablint ./...` in dir, the one way tablint is
// driven, and returns what it printed and whether it failed.
func vet(t *testing.T, dir string) (out string, failed bool) {
	t.Helper()
	out, failed, err := runVet(dir)
	if err != nil {
		t.Fatalf("go vet in %s: %v", dir, err)
	}
	return out, failed
}

func runVet(dir string) (out string, failed bool, err error) {
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	b, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return "", false, err
	}
	return string(b), err != nil, nil
}

// repoVet is the one `go vet -vettool` run over the whole module that
// both whole-repo tests read; it runs on first use.
var repoVet = sync.OnceValues(func() (vetResult, error) {
	root, err := filepath.Abs("../..")
	if err != nil {
		return vetResult{}, err
	}
	out, failed, err := runVet(root)
	return vetResult{out, failed}, err
})

type vetResult struct {
	out    string
	failed bool
}

func TestFlagsHandshake(t *testing.T) {
	out, err := exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("tablint -flags: %v", err)
	}
	if got := strings.TrimSpace(string(out)); got != "[]" {
		t.Fatalf("tablint -flags printed %q, want []", got)
	}
}

// TestVetFindsFixtureViolations: testdata/flagged seeds one violation per
// analyzer, and every analyzer in the suite must report it — a lint
// suite that silently stops firing is worse than none.
func TestVetFindsFixtureViolations(t *testing.T) {
	out, failed := vet(t, "testdata/flagged")
	if !failed {
		t.Fatalf("go vet passed the seeded violations:\n%s", out)
	}
	for _, a := range lint.Suite() {
		if !strings.Contains(out, "["+a.Name+"]") {
			t.Errorf("output missing a [%s] finding:\n%s", a.Name, out)
		}
	}
}

// TestAllowsAuditAcceptsHealthy: the flagged fixture's one directive is
// live, known and justified, so it suppresses its finding and is not
// itself reported.
func TestAllowsAuditAcceptsHealthy(t *testing.T) {
	out, _ := vet(t, "testdata/flagged")
	if n := strings.Count(out, "[maporder]"); n != 1 {
		t.Errorf("got %d maporder findings, want 1 (the suppressed one must not report):\n%s", n, out)
	}
	if strings.Contains(out, "[allow]") {
		t.Errorf("a healthy directive was reported:\n%s", out)
	}
}

// TestAllowsAuditFlagsRot: every way a directive can rot — stale,
// unknown analyzer, missing justification — is a finding of the
// ordinary run, and fails it.
func TestAllowsAuditFlagsRot(t *testing.T) {
	out, failed := vet(t, "testdata/allows")
	if !failed {
		t.Fatalf("go vet passed the rotten directives:\n%s", out)
	}
	for _, want := range []string{
		"stale //lint:allow: errcmp no longer fires here",
		`unknown analyzer "mapoder"`,
		"no justification",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "[allow]"); n != 3 {
		t.Errorf("got %d directive findings, want 3 (the healthy directive must not report):\n%s", n, out)
	}
}

// TestAllowsAuditWholeRepo: every //lint:allow in this module is live,
// known and justified — the directive ledger is clean.
func TestAllowsAuditWholeRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole module")
	}
	r, err := repoVet()
	if err != nil {
		t.Fatalf("go vet over the repo: %v", err)
	}
	if strings.Contains(r.out, "[allow]") {
		t.Fatalf("go vet -vettool over the repo found directive rot:\n%s", r.out)
	}
}

// TestGoVetWholeRepoClean is the acceptance check: the suite, driven
// through `go vet -vettool`, runs clean over every package in this
// module.
func TestGoVetWholeRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole module")
	}
	r, err := repoVet()
	if err != nil {
		t.Fatalf("go vet over the repo: %v", err)
	}
	if r.failed {
		t.Fatalf("go vet -vettool over the repo reported findings:\n%s", r.out)
	}
}
