package cmdio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestAtomicWriteFileFailureKeepsOldCopy: a write callback that fails
// midway leaves path's previous bytes in place and no temp file behind.
func TestAtomicWriteFileFailureKeepsOldCopy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	if err := os.WriteFile(path, []byte("old copy"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := AtomicWriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the new"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("AtomicWriteFile = %v, want the callback's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old copy" {
		t.Fatalf("after a failed write path holds %q (%v), want the old copy", got, err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %q, want only corpus.snap (no .tmp-* left)", names)
	}
}

// TestAtomicWriteFilePublishes: a successful write replaces path's bytes
// with the new ones, mode 0644, and leaves no temp file behind.
func TestAtomicWriteFilePublishes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(path, []byte("old copy"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new copy")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new copy" {
		t.Fatalf("path holds %q (%v), want the new copy", got, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Errorf("published mode %v, want 0644", mode)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %q, want only catalog.json", names)
	}
}
