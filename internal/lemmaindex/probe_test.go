package lemmaindex_test

import (
	"testing"

	"repro/internal/lemmaindex"
)

// pooled returns an upper bound on the number of entities a probe of cell
// pools: the summed posting-list lengths of its distinct tokens.
func pooled(ix *lemmaindex.Index, cell string) int {
	n := 0
	for _, tok := range ix.VectorSpace().Vectorize(cell).Tokens {
		if l := ix.PostingLen(tok.Text); l <= lemmaindex.DefaultConfig().MaxPostingLen {
			n += l
		}
	}
	return n
}

// TestProbeAllocationsIndependentOfPool: a probe compiles its cell, picks
// its probe tokens, unions their postings and keeps its top candidates —
// in a Probe and a candidate buffer that, once grown, it reuses, so a
// probe allocates nothing whatever the pool size. (A standalone
// CandidateEntities allocates that memory per call, a handful of slices;
// before lemmas were compiled, every pooled lemma cost a tokenisation,
// two maps and a sort, and every token pair four slices: ~2000
// allocations per cell.)
func TestProbeAllocationsIndependentOfPool(t *testing.T) {
	w, cells, _ := goldenCells(t)
	ix := lemmaindex.Build(w.Public, lemmaindex.DefaultConfig())
	var smallest, largest string
	minPool, maxPool := 0, 0
	for _, cell := range cells {
		n := pooled(ix, cell)
		if n > 0 && (minPool == 0 || n < minPool) {
			smallest, minPool = cell, n
		}
		if n > maxPool {
			largest, maxPool = cell, n
		}
	}
	if maxPool < 20*minPool {
		t.Fatalf("golden cells no longer span pool sizes: %q pools %d, %q pools %d", smallest, minPool, largest, maxPool)
	}
	var p lemmaindex.Probe
	var buf []lemmaindex.Candidate
	for _, cell := range cells { // grow the probe's memory on every cell
		buf = ix.AppendCandidates(buf[:0], cell, &p)
	}
	for _, cell := range []string{smallest, largest} {
		if len(ix.CandidateEntities(cell)) == 0 {
			t.Fatalf("%q has no candidates", cell)
		}
		got := testing.AllocsPerRun(20, func() { buf = ix.AppendCandidates(buf[:0], cell, &p) })
		t.Logf("AppendCandidates(%q), pool <= %d: %v allocations", cell, pooled(ix, cell), got)
		if got != 0 {
			t.Errorf("want none in a grown Probe")
		}
	}
}

// BenchmarkProbe measures one CandidateEntities call, cycling through the
// golden cells (clean and noisy, numeric cells included).
func BenchmarkProbe(b *testing.B) {
	w, cells, _ := goldenCells(b)
	ix := lemmaindex.Build(w.Public, lemmaindex.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.CandidateEntities(cells[i%len(cells)])
	}
}

// BenchmarkBuild measures index construction over the default world's
// public catalog: every lemma compiled once, postings derived from them.
func BenchmarkBuild(b *testing.B) {
	w, _, _ := goldenCells(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lemmaindex.Build(w.Public, lemmaindex.DefaultConfig())
	}
}

// BenchmarkProbeReused measures one AppendCandidates call in a Probe and
// a candidate buffer reused from call to call, cycling through the golden
// cells: the path an annotation's probes take.
func BenchmarkProbeReused(b *testing.B) {
	w, cells, _ := goldenCells(b)
	ix := lemmaindex.Build(w.Public, lemmaindex.DefaultConfig())
	var p lemmaindex.Probe
	var buf []lemmaindex.Candidate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.AppendCandidates(buf[:0], cells[i%len(cells)], &p)
	}
}
