package lemmaindex

import (
	"testing"

	"repro/internal/catalog"
)

func buildCat(t testing.TB) (*catalog.Catalog, map[string]catalog.EntityID) {
	t.Helper()
	c := catalog.New()
	person, err := c.AddType("Person", "people")
	if err != nil {
		t.Fatal(err)
	}
	book, err := c.AddType("Book", "novel", "title")
	if err != nil {
		t.Fatal(err)
	}
	ents := map[string][2]interface{}{}
	_ = ents
	ids := make(map[string]catalog.EntityID)
	add := func(name string, lemmas []string, ty catalog.TypeID) {
		id, err := c.AddEntity(name, lemmas, ty)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	add("Albert Einstein", []string{"A. Einstein", "Einstein"}, person)
	add("Alfred Einstein", []string{"A. Einstein"}, person) // the musicologist
	add("Russell Stannard", []string{"Stannard"}, person)
	add("Relativity: The Special and the General Theory", []string{"Relativity"}, book)
	add("Uncle Albert and the Quantum Quest", nil, book)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c, ids
}

func TestCandidateRetrieval(t *testing.T) {
	c, ids := buildCat(t)
	ix := Build(c, DefaultConfig())

	cands := ix.CandidateEntities("Albert Einstein")
	if len(cands) == 0 {
		t.Fatal("no candidates for exact name")
	}
	if cands[0].Entity != ids["Albert Einstein"] {
		t.Errorf("top candidate = %v, want Albert Einstein", cands[0].Entity)
	}
	if cands[0].Sim.Exact != 1 {
		t.Errorf("exact flag not set: %+v", cands[0].Sim)
	}
	// The ambiguous abbreviation must surface both Einsteins.
	cands = ix.CandidateEntities("A. Einstein")
	found := map[catalog.EntityID]bool{}
	for _, cd := range cands {
		found[cd.Entity] = true
	}
	if !found[ids["Albert Einstein"]] || !found[ids["Alfred Einstein"]] {
		t.Errorf("ambiguous mention missing a reading: %v", cands)
	}
}

func TestCandidatesEmptyForJunk(t *testing.T) {
	c, _ := buildCat(t)
	ix := Build(c, DefaultConfig())
	if got := ix.CandidateEntities("zzz xyzzy fnord"); len(got) != 0 {
		t.Errorf("junk text produced candidates: %v", got)
	}
	if got := ix.CandidateEntities(""); got != nil {
		t.Errorf("empty text produced candidates: %v", got)
	}
}

func TestCandidateCap(t *testing.T) {
	c, _ := buildCat(t)
	cfg := DefaultConfig()
	cfg.MaxCandidates = 1
	ix := Build(c, cfg)
	if got := ix.CandidateEntities("Einstein"); len(got) > 1 {
		t.Errorf("cap ignored: %d candidates", len(got))
	}
}

func TestScoresDescending(t *testing.T) {
	c, _ := buildCat(t)
	ix := Build(c, DefaultConfig())
	cands := ix.CandidateEntities("Uncle Albert and the Quantum Quest")
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatalf("scores not descending at %d: %v", i, cands)
		}
	}
}

func TestProfileFor(t *testing.T) {
	c, ids := buildCat(t)
	ix := Build(c, DefaultConfig())
	p := ix.ProfileFor(ids["Russell Stannard"], "Russell Stannard")
	if p.Exact != 1 || p.Cosine < 0.99 {
		t.Errorf("self profile = %+v", p)
	}
	q := ix.ProfileFor(ids["Russell Stannard"], "R. Stannard")
	if q.Cosine <= 0 {
		t.Errorf("partial profile = %+v", q)
	}
	if z := ix.ProfileFor(ids["Russell Stannard"], "unrelated words"); z.Cosine != 0 || z.Exact != 0 {
		t.Errorf("unrelated profile = %+v", z)
	}
}

func TestTypoToleranceViaSoftTFIDF(t *testing.T) {
	c, ids := buildCat(t)
	ix := Build(c, DefaultConfig())
	cands := ix.CandidateEntities("Albertt Einstein") // typo
	found := false
	for _, cd := range cands {
		if cd.Entity == ids["Albert Einstein"] && cd.Sim.SoftTFIDF > 0.5 {
			found = true
		}
	}
	if !found {
		t.Errorf("typo'd mention not recovered: %v", cands)
	}
}

func TestTypeHeaderSim(t *testing.T) {
	c, _ := buildCat(t)
	ix := Build(c, DefaultConfig())
	book, _ := c.TypeByName("Book")
	person, _ := c.TypeByName("Person")
	// "Title" is a lemma of Book in this fixture.
	var title, empty Query
	ix.Compile(&title, "Title")
	pb := ix.TypeHeaderSim(book, &title)
	pp := ix.TypeHeaderSim(person, &title)
	if pb.Exact != 1 {
		t.Errorf("Book/Title exact = %v", pb.Exact)
	}
	if pp.Cosine >= pb.Cosine {
		t.Errorf("Person matches 'Title' as well as Book: %v vs %v", pp, pb)
	}
	ix.Compile(&empty, "")
	if z := ix.TypeHeaderSim(book, &empty); z != (SimilarityProfile{}) {
		t.Errorf("empty header profile = %+v", z)
	}
}

func TestStopTokenPostingSkipped(t *testing.T) {
	// Build a catalog where one token appears in every lemma; with a tiny
	// MaxPostingLen that token must not fan out to everything.
	c := catalog.New()
	ty, _ := c.AddType("T")
	for i := 0; i < 30; i++ {
		name := "common " + string(rune('a'+i))
		if _, err := c.AddEntity(name, nil, ty); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxPostingLen = 10
	ix := Build(c, cfg)
	// "common" alone: posting list has 30 entries > 10, so no candidates.
	if got := ix.CandidateEntities("common"); len(got) != 0 {
		t.Errorf("stop token fanned out: %d candidates", len(got))
	}
	// A discriminative token still works.
	if got := ix.CandidateEntities("common c"); len(got) == 0 {
		t.Error("discriminative token found nothing")
	}
	if n := ix.PostingLen("common"); n != 30 {
		t.Errorf("PostingLen = %d", n)
	}
}
