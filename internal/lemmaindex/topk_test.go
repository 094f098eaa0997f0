package lemmaindex_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/lemmaindex"
)

// sortReference is candidate generation as it was written before the
// probe kept only its top MaxCandidates: pool every entity one of whose
// lemmas holds one of the cell's MaxProbeTokens rarest tokens (unless
// that token's posting list is longer than MaxPostingLen), profile each,
// drop those scoring below MinScore, sort what is left by (score
// descending, entity ascending) and cut it to MaxCandidates. It reads
// only the index's exported surface and the catalog's lemmas.
type sortReference struct {
	ix     *lemmaindex.Index
	cfg    lemmaindex.Config
	tokens []map[string]bool // tokens[e]: every token of every lemma of e
}

func newSortReference(cat *catalog.Catalog, cfg lemmaindex.Config) *sortReference {
	ref := &sortReference{ix: lemmaindex.Build(cat, cfg), cfg: cfg, tokens: make([]map[string]bool, cat.NumEntities())}
	for e := range ref.tokens {
		ref.tokens[e] = map[string]bool{}
		for _, l := range cat.EntityLemmas(catalog.EntityID(e)) {
			for _, tok := range ref.ix.VectorSpace().Vectorize(l).Tokens {
				ref.tokens[e][tok.Text] = true
			}
		}
	}
	return ref
}

func (ref *sortReference) candidates(cell string) []lemmaindex.Candidate {
	vs := ref.ix.VectorSpace()
	q := vs.Vectorize(cell)
	var probe []string
	for _, tok := range q.Tokens {
		probe = append(probe, tok.Text)
	}
	slices.SortFunc(probe, func(a, b string) int {
		return cmp.Or(cmp.Compare(vs.IDF(b), vs.IDF(a)), strings.Compare(a, b))
	})
	probe = probe[:min(len(probe), ref.cfg.MaxProbeTokens)]
	var cands []lemmaindex.Candidate
	for e, toks := range ref.tokens {
		pooled := false
		for _, tok := range probe {
			pooled = pooled || toks[tok] && ref.ix.PostingLen(tok) <= ref.cfg.MaxPostingLen
		}
		if !pooled {
			continue
		}
		sim := ref.ix.ProfileFor(catalog.EntityID(e), cell)
		if score := max(sim.Cosine, sim.SoftTFIDF); score >= ref.cfg.MinScore {
			cands = append(cands, lemmaindex.Candidate{Entity: catalog.EntityID(e), Sim: sim, Score: score})
		}
	}
	slices.SortFunc(cands, func(a, b lemmaindex.Candidate) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Entity, b.Entity))
	})
	return cands[:min(len(cands), ref.cfg.MaxCandidates)]
}

// check compares CandidateEntities with the reference on every cell, as
// IEEE bit patterns, and reports the largest list it saw.
func (ref *sortReference) check(t *testing.T, name string, cells []string) (longest int) {
	t.Helper()
	for _, cell := range cells {
		got, want := ref.ix.CandidateEntities(cell), ref.candidates(cell)
		if len(got) != len(want) {
			t.Fatalf("%s: CandidateEntities(%q) has %d candidates, reference %d", name, cell, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Entity != w.Entity || g.Sim != w.Sim || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("%s: CandidateEntities(%q)[%d] = %+v, reference %+v", name, cell, i, g, w)
			}
		}
		longest = max(longest, len(got))
	}
	return longest
}

// tieCatalog is a catalog whose probes tie: runs of entities sharing one
// lemma (or one typo of it), so that whole pools score alike and only
// the entity order decides which of them are kept.
func tieCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	person, err := c.AddType("Person", "people")
	if err != nil {
		t.Fatal(err)
	}
	for i, lemma := range []string{"John Smith", "John Smyth", "Smith", "John", "Jon Smith"} {
		for k := 0; k < 6+3*i; k++ {
			if _, err := c.AddEntity(fmt.Sprintf("%s %d", lemma, k), []string{lemma}, person); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCandidateEntitiesMatchesSortReference holds CandidateEntities to
// the allocate-sort-truncate it replaced, over the golden cells and over
// pools of tied scores, with MaxCandidates at 0, 1, the default 8 and
// more than any pool holds.
func TestCandidateEntitiesMatchesSortReference(t *testing.T) {
	w, cells, _ := goldenCells(t)
	tieCells := []string{"John Smith", "john smyth", "J. Smith", "Smith, John", "Jon", "Smith Smith", "Jhon Smith", ""}
	for _, k := range []int{0, 1, 8, 1000} {
		cfg := lemmaindex.DefaultConfig()
		cfg.MaxCandidates = k
		longest := newSortReference(w.Public, cfg).check(t, fmt.Sprintf("world, MaxCandidates %d", k), cells)
		longest = max(longest, newSortReference(tieCatalog(t), cfg).check(t, fmt.Sprintf("ties, MaxCandidates %d", k), tieCells))
		if longest > k || (k > 0 && longest == 0) || (k == 1000 && longest < 20) {
			t.Fatalf("MaxCandidates %d: longest list %d; the cells no longer exercise the cap", k, longest)
		}
	}
}
