package benchfix_test

import (
	"bytes"
	"testing"

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
