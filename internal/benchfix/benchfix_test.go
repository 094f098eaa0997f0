package benchfix_test

import (
	"bytes"
	"context"
	"testing"

	webtable "repro"
	"repro/internal/benchfix"
)

// TestServingIsDeterministic: two builds of the serving fixture save the
// same bytes, so the benchmarks that load it measure one corpus.
func TestServingIsDeterministic(t *testing.T) {
	first, _ := benchfix.Serving(t)
	second, _ := benchfix.Serving(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("two builds of the serving snapshot differ (%d and %d bytes)", len(first), len(second))
	}
}

// TestServingCellsAreOneIDEach pins what the loaded serving corpus keeps
// per cell: one 4-byte ID for each of its 375 789 cells, exactly. A
// second per-cell array, or a table of IDs that grows with the cells
// rather than with the distinct (spelling, entity) pairs, fails here,
// with no clock involved.
func TestServingCellsAreOneIDEach(t *testing.T) {
	const cells = 375_789
	snap, _ := benchfix.Serving(t)
	svc, err := webtable.LoadService(context.Background(), bytes.NewReader(snap), webtable.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rb, _ := svc.ResidentBytes()
	t.Logf("resident bytes: %+v", rb)
	if rb.Cells != 4*cells {
		t.Errorf("ResidentBytes().Cells = %d, want 4 × %d cells = %d", rb.Cells, cells, 4*cells)
	}
}
