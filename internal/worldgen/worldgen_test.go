package worldgen

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
)

func smallSpec() Spec {
	s := DefaultSpec()
	s.FilmsPerGenre = 15
	s.NovelsPerGenre = 12
	s.PeoplePerRole = 20
	s.AlbumCount = 20
	s.CountryCount = 10
	s.CitiesPerCountry = 2
	s.LanguageCount = 8
	return s
}

func buildSmall(t testing.TB) *World {
	t.Helper()
	w, err := Build(smallSpec())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return w
}

func TestBuildDeterministic(t *testing.T) {
	w1 := buildSmall(t)
	w2 := buildSmall(t)
	if w1.True.Stats() != w2.True.Stats() {
		t.Fatalf("same seed, different worlds: %v vs %v", w1.True.Stats(), w2.True.Stats())
	}
	// Spot-check some names.
	for e := 0; e < 20; e++ {
		if w1.True.EntityName(catalog.EntityID(e)) != w2.True.EntityName(catalog.EntityID(e)) {
			t.Fatalf("entity %d name differs", e)
		}
	}
	// Different seed differs.
	s := smallSpec()
	s.Seed = 99
	w3, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if w3.True.EntityName(0) == w1.True.EntityName(0) &&
		w3.True.EntityName(1) == w1.True.EntityName(1) &&
		w3.True.EntityName(2) == w1.True.EntityName(2) {
		t.Error("different seeds produced identical entity names")
	}
}

func TestWorldShape(t *testing.T) {
	w := buildSmall(t)
	st := w.True.Stats()
	// 4 film genres * 15 + 4 novel genres * 12 + 20 albums + 5 roles * 20
	// + 10 countries + 20 cities + 8 languages = 266.
	wantEntities := 4*15 + 4*12 + 20 + 5*20 + 10 + 20 + 8
	if st.Entities != wantEntities {
		t.Errorf("entities = %d, want %d", st.Entities, wantEntities)
	}
	if st.Relations != 8 {
		t.Errorf("relations = %d, want 8", st.Relations)
	}
	if st.Tuples == 0 {
		t.Error("no tuples")
	}
	// Every film must have exactly one director tuple.
	directed := w.RelID("directed")
	film, _ := w.True.TypeByName("Film")
	for _, f := range w.True.EntitiesOf(film) {
		if n := len(w.True.Objects(directed, f)); n != 1 {
			t.Errorf("film %s has %d directors", w.True.EntityName(f), n)
		}
	}
}

func TestPublicCatalogDegraded(t *testing.T) {
	w := buildSmall(t)
	ts, ps := w.True.Stats(), w.Public.Stats()
	if ps.Tuples >= ts.Tuples {
		t.Errorf("public tuples %d not fewer than true %d", ps.Tuples, ts.Tuples)
	}
	if ps.InstanceOf >= ts.InstanceOf {
		t.Errorf("public ∈ links %d not fewer than true %d", ps.InstanceOf, ts.InstanceOf)
	}
	if ps.Entities != ts.Entities || ps.Types > ts.Types {
		t.Errorf("public reshaped entities/types: %v vs %v", ps, ts)
	}
	// IDs must be preserved: names align except for absent tombstones.
	absentSeen := 0
	for e := 0; e < w.True.NumEntities(); e++ {
		id := catalog.EntityID(e)
		if w.Absent[id] {
			absentSeen++
			if len(w.Public.EntityLemmas(id)) > 1 {
				t.Errorf("absent entity %d still has lemmas", e)
			}
			continue
		}
		if w.True.EntityName(id) != w.Public.EntityName(id) {
			t.Fatalf("entity %d renamed in public catalog", e)
		}
	}
	if absentSeen == 0 {
		t.Error("no absent entities despite nonzero EntityAbsenceRate")
	}
}

// TestZeroMissingLinkRates: a missing-link rate of 0 is built as asked,
// so the public catalog keeps every ∈ link of the entities it keeps and
// every ⊆ link of the true catalog. A Spec without scale counts is an
// error naming the first one, not a DefaultSpec world.
func TestZeroMissingLinkRates(t *testing.T) {
	spec := smallSpec()
	spec.MissingInstanceLinkRate, spec.MissingSubtypeLinkRate = 0, 0
	w, err := Build(spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for e := 0; e < w.True.NumEntities(); e++ {
		id := catalog.EntityID(e)
		if w.Absent[id] {
			continue
		}
		for _, ty := range w.True.DirectTypes(id) {
			if !slices.Contains(w.Public.DirectTypes(id), ty) {
				t.Errorf("entity %d lost its ∈ link to type %d", e, ty)
			}
		}
	}
	for ty := 0; ty < w.True.NumTypes(); ty++ {
		id := catalog.TypeID(ty)
		for _, p := range w.True.Parents(id) {
			if !slices.Contains(w.Public.Parents(id), p) {
				t.Errorf("type %d lost its ⊆ link to type %d", ty, p)
			}
		}
	}

	if _, err := Build(Spec{}); err == nil || !strings.Contains(err.Error(), "FilmsPerGenre") {
		t.Errorf("Build(Spec{}) = %v, want an error naming FilmsPerGenre", err)
	}
	spec = smallSpec()
	spec.LanguageCount = -1
	if _, err := Build(spec); err == nil || !strings.Contains(err.Error(), "LanguageCount") {
		t.Errorf("Build with LanguageCount -1 = %v, want an error naming it", err)
	}
}

func TestLemmaAmbiguityExists(t *testing.T) {
	w := buildSmall(t)
	// At least two people share a surname lemma.
	seen := make(map[string][]catalog.EntityID)
	person, _ := w.True.TypeByName("Person")
	for _, p := range w.True.EntitiesOf(person) {
		lem := w.True.EntityLemmas(p)
		surname := lem[len(lem)-1]
		seen[surname] = append(seen[surname], p)
	}
	shared := 0
	for _, group := range seen {
		if len(group) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no shared surnames; ambiguity knob broken")
	}
}

func TestGenerateTableShape(t *testing.T) {
	w := buildSmall(t)
	ri, _ := w.Rel("wrote")
	rng := rand.New(rand.NewSource(5))
	lt := w.generateTable(rng, "t1", ri, 12, CleanProfile(), GTLayers{Entities: true, Types: true, Relations: true})
	if err := lt.Table.Validate(); err != nil {
		t.Fatalf("generated table invalid: %v", err)
	}
	if lt.Table.Rows() != 12 {
		t.Errorf("rows = %d", lt.Table.Rows())
	}
	if len(lt.GT.ColumnTypes) != 2 {
		t.Errorf("type GT count = %d, want 2", len(lt.GT.ColumnTypes))
	}
	if len(lt.GT.Relations) != 1 {
		t.Fatalf("relation GT = %v", lt.GT.Relations)
	}
	rgt := lt.GT.Relations[0]
	if rgt.Relation != w.RelID("wrote") {
		t.Errorf("relation GT = %d", rgt.Relation)
	}
	if rgt.Col1 >= rgt.Col2 {
		t.Errorf("relation GT column order: %+v", rgt)
	}
	// Cell GT entities must be real subjects/objects of the relation;
	// absent entities carry GT na.
	for ref, e := range lt.GT.Cells {
		gtType, ok := lt.GT.ColumnTypes[ref.Col]
		if !ok {
			t.Fatalf("cell GT in column %d without type GT", ref.Col)
		}
		if e == catalog.None {
			continue // absent entity: na is the gold label
		}
		if !w.True.IsA(e, gtType) {
			t.Errorf("GT cell entity %s not of GT column type %s",
				w.True.EntityName(e), w.True.TypeName(gtType))
		}
	}
}

func TestGTLayersRespected(t *testing.T) {
	w := buildSmall(t)
	rel := w.WebRelations(0.2)
	for _, lt := range rel.Tables {
		if len(lt.GT.Cells) != 0 || len(lt.GT.ColumnTypes) != 0 {
			t.Fatal("WebRelations has non-relation GT")
		}
		if len(lt.GT.Relations) == 0 {
			t.Fatal("WebRelations table without relation GT")
		}
	}
	link := w.WikiLink(0.002) // ~12 tables
	for _, lt := range link.Tables {
		if len(lt.GT.Relations) != 0 || len(lt.GT.ColumnTypes) != 0 {
			t.Fatal("WikiLink has non-entity GT")
		}
		if len(lt.GT.Cells) == 0 {
			t.Fatal("WikiLink table without entity GT")
		}
	}
}

func TestDatasetStats(t *testing.T) {
	w := buildSmall(t)
	ds := w.WikiManual(0.25) // 9 tables
	st := ds.Stats()
	if st.Tables != 9 {
		t.Errorf("tables = %d, want 9", st.Tables)
	}
	if st.AvgRows < 15 || st.AvgRows > 60 {
		t.Errorf("avg rows = %v, want within [15,60]", st.AvgRows)
	}
	if st.EntityGT == 0 || st.TypeGT == 0 || st.RelationGT == 0 {
		t.Errorf("missing GT layers: %+v", st)
	}
}

func TestMentionNoiseLevels(t *testing.T) {
	w := buildSmall(t)
	rng := rand.New(rand.NewSource(7))
	clean, noisy := 0, 0
	const trials = 400
	for i := 0; i < trials; i++ {
		e := catalog.EntityID(rng.Intn(w.True.NumEntities()))
		canonical := w.True.EntityName(e)
		if w.mention(rng, e, CleanProfile()) == canonical {
			clean++
		}
		if w.mention(rng, e, NoisyProfile()) == canonical {
			noisy++
		}
	}
	if clean <= noisy {
		t.Errorf("clean profile (%d/%d canonical) not cleaner than noisy (%d/%d)",
			clean, trials, noisy, trials)
	}
}

func TestSearchWorkload(t *testing.T) {
	w := buildSmall(t)
	qs := w.SearchWorkload(SearchRelations, 5, 11)
	if len(qs) != 5*len(SearchRelations) {
		t.Fatalf("queries = %d", len(qs))
	}
	for _, q := range qs {
		if len(q.WantE1) == 0 {
			t.Errorf("query %s/%s has empty ground truth", q.RelationName, q.E2Name)
		}
		if !w.True.IsA(q.E2, q.T2) {
			t.Errorf("E2 %s not of T2 %s", q.E2Name, w.True.TypeName(q.T2))
		}
		for _, e1 := range q.WantE1 {
			if !w.True.HasTuple(q.Relation, e1, q.E2) {
				t.Errorf("ground truth %s lacks tuple", w.True.EntityName(e1))
			}
		}
	}
}

func TestSearchWorkloadDeterministic(t *testing.T) {
	w := buildSmall(t)
	a := w.SearchWorkload([]string{"wrote"}, 4, 3)
	b := w.SearchWorkload([]string{"wrote"}, 4, 3)
	for i := range a {
		if a[i].E2 != b[i].E2 {
			t.Fatal("workload not deterministic")
		}
	}
}
