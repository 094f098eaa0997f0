package catalog

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildBookWorld constructs the Figure-1 style mini catalog used across
// the package tests:
//
//	Entity
//	├── Work
//	│   ├── Book
//	│   │   └── ChildrensBook
//	│   └── Film
//	└── Person
//	    ├── Physicist
//	    └── Writer
//
// with entities: Einstein (Physicist, Writer), Stannard (Writer),
// Relativity (Book), UncleAlbert (ChildrensBook), QuantumQuest
// (ChildrensBook), and relation wrote(Person, Book).
type bookWorld struct {
	cat *Catalog

	work, book, childBook, film, person, physicist, writer TypeID

	einstein, stannard, relativity, uncleAlbert, quantumQuest EntityID

	wrote RelationID
}

func buildBookWorld(t testing.TB) *bookWorld {
	t.Helper()
	c := New()
	w := &bookWorld{cat: c}
	mustType := func(name string, lemmas ...string) TypeID {
		id, err := c.AddType(name, lemmas...)
		if err != nil {
			t.Fatalf("AddType(%q): %v", name, err)
		}
		return id
	}
	w.work = mustType("Work")
	w.book = mustType("Book", "books", "novel")
	w.childBook = mustType("ChildrensBook", "childrens books")
	w.film = mustType("Film", "movie")
	w.person = mustType("Person", "people")
	w.physicist = mustType("Physicist")
	w.writer = mustType("Writer", "author")

	sub := func(child, parent TypeID) {
		if err := c.AddSubtype(child, parent); err != nil {
			t.Fatalf("AddSubtype: %v", err)
		}
	}
	sub(w.book, w.work)
	sub(w.childBook, w.book)
	sub(w.film, w.work)
	sub(w.physicist, w.person)
	sub(w.writer, w.person)

	mustEnt := func(name string, lemmas []string, types ...TypeID) EntityID {
		id, err := c.AddEntity(name, lemmas, types...)
		if err != nil {
			t.Fatalf("AddEntity(%q): %v", name, err)
		}
		return id
	}
	w.einstein = mustEnt("Albert Einstein", []string{"A. Einstein", "Einstein"}, w.physicist, w.writer)
	w.stannard = mustEnt("Russell Stannard", []string{"Stannard"}, w.writer)
	w.relativity = mustEnt("Relativity: The Special and the General Theory", []string{"Relativity"}, w.book)
	w.uncleAlbert = mustEnt("The Time and Space of Uncle Albert", []string{"Uncle Albert"}, w.childBook)
	w.quantumQuest = mustEnt("Uncle Albert and the Quantum Quest", []string{"Quantum Quest"}, w.childBook)

	var err error
	w.wrote, err = c.AddRelation("wrote", w.person, w.book, OneToMany)
	if err != nil {
		t.Fatalf("AddRelation: %v", err)
	}
	addTuple := func(s, o EntityID) {
		if err := c.AddTuple(w.wrote, s, o); err != nil {
			t.Fatalf("AddTuple: %v", err)
		}
	}
	addTuple(w.einstein, w.relativity)
	addTuple(w.stannard, w.uncleAlbert)
	addTuple(w.stannard, w.quantumQuest)

	if err := c.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return w
}

func TestFreezeCreatesRoot(t *testing.T) {
	w := buildBookWorld(t)
	root := w.cat.Root()
	if w.cat.TypeName(root) != RootTypeName {
		t.Fatalf("root name = %q, want %q", w.cat.TypeName(root), RootTypeName)
	}
	// Every type must reach the root.
	for id := 0; id < w.cat.NumTypes(); id++ {
		if !w.cat.IsSubtype(TypeID(id), root) {
			t.Errorf("type %s does not reach root", w.cat.TypeName(TypeID(id)))
		}
	}
}

func TestFreezeIdempotent(t *testing.T) {
	w := buildBookWorld(t)
	n := w.cat.NumTypes()
	if err := w.cat.Freeze(); err != nil {
		t.Fatalf("second Freeze: %v", err)
	}
	if w.cat.NumTypes() != n {
		t.Fatalf("second Freeze changed type count: %d -> %d", n, w.cat.NumTypes())
	}
}

func TestMutationAfterFreezeFails(t *testing.T) {
	w := buildBookWorld(t)
	if _, err := w.cat.AddType("X"); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddType after freeze: err = %v, want ErrFrozen", err)
	}
	if _, err := w.cat.AddEntity("X", nil); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddEntity after freeze: err = %v, want ErrFrozen", err)
	}
	if err := w.cat.AddSubtype(0, 1); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddSubtype after freeze: err = %v, want ErrFrozen", err)
	}
	if err := w.cat.AddTuple(0, 0, 1); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddTuple after freeze: err = %v, want ErrFrozen", err)
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	c := New()
	if _, err := c.AddType("T"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddType("T"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate type: err = %v, want ErrDuplicate", err)
	}
	if _, err := c.AddEntity("E", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddEntity("E", nil); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate entity: err = %v, want ErrDuplicate", err)
	}
}

func TestCycleDetection(t *testing.T) {
	c := New()
	a, _ := c.AddType("A")
	b, _ := c.AddType("B")
	d, _ := c.AddType("C")
	if err := c.AddSubtype(a, b); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSubtype(b, d); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSubtype(d, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Freeze on cyclic DAG: err = %v, want ErrCycle", err)
	}
}

func TestSelfEdgeRejected(t *testing.T) {
	c := New()
	a, _ := c.AddType("A")
	if err := c.AddSubtype(a, a); !errors.Is(err, ErrCycle) {
		t.Fatalf("self subtype: err = %v, want ErrCycle", err)
	}
}

func TestIsAAndDist(t *testing.T) {
	w := buildBookWorld(t)
	c := w.cat

	cases := []struct {
		e    EntityID
		t    TypeID
		isA  bool
		dist int
	}{
		{w.einstein, w.physicist, true, 1},
		{w.einstein, w.writer, true, 1},
		{w.einstein, w.person, true, 2},
		{w.einstein, w.book, false, 0},
		{w.quantumQuest, w.childBook, true, 1},
		{w.quantumQuest, w.book, true, 2},
		{w.quantumQuest, w.work, true, 3},
		{w.relativity, w.book, true, 1},
		{w.relativity, w.childBook, false, 0},
	}
	for _, tc := range cases {
		if got := c.IsA(tc.e, tc.t); got != tc.isA {
			t.Errorf("IsA(%s,%s) = %v, want %v", c.EntityName(tc.e), c.TypeName(tc.t), got, tc.isA)
		}
		d, ok := c.Dist(tc.e, tc.t)
		if ok != tc.isA {
			t.Errorf("Dist(%s,%s) ok = %v, want %v", c.EntityName(tc.e), c.TypeName(tc.t), ok, tc.isA)
		}
		if ok && d != tc.dist {
			t.Errorf("Dist(%s,%s) = %d, want %d", c.EntityName(tc.e), c.TypeName(tc.t), d, tc.dist)
		}
	}
}

func TestDistTakesShortestPath(t *testing.T) {
	// Diamond: E ∈ Specific, Specific ⊆ Mid ⊆ Top, and also E ∈ Mid
	// directly: dist(E, Top) should be 2 via the direct Mid membership.
	c := New()
	top, _ := c.AddType("Top")
	mid, _ := c.AddType("Mid")
	spec, _ := c.AddType("Specific")
	if err := c.AddSubtype(mid, top); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSubtype(spec, mid); err != nil {
		t.Fatal(err)
	}
	e, _ := c.AddEntity("E", nil, spec, mid)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	if d, ok := c.Dist(e, top); !ok || d != 2 {
		t.Fatalf("Dist = %d,%v want 2,true", d, ok)
	}
	if d, ok := c.Dist(e, mid); !ok || d != 1 {
		t.Fatalf("Dist to mid = %d,%v want 1,true", d, ok)
	}
}

func TestEntitiesOfAndCounts(t *testing.T) {
	w := buildBookWorld(t)
	c := w.cat
	books := c.EntitiesOf(w.book)
	if len(books) != 3 {
		t.Fatalf("|E(Book)| = %d, want 3", len(books))
	}
	people := c.EntitiesOf(w.person)
	if len(people) != 2 {
		t.Fatalf("|E(Person)| = %d, want 2", len(people))
	}
	all := c.EntitiesOf(c.Root())
	if len(all) != c.NumEntities() {
		t.Fatalf("|E(root)| = %d, want %d", len(all), c.NumEntities())
	}
	// Sorted ascending.
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("EntitiesOf(root) not sorted at %d", i)
		}
	}
}

func TestSpecificity(t *testing.T) {
	w := buildBookWorld(t)
	c := w.cat
	// ChildrensBook (2 entities) must be more specific than Book (3),
	// which is more specific than root (5).
	sb := c.Specificity(w.childBook)
	bb := c.Specificity(w.book)
	rb := c.Specificity(c.Root())
	if !(sb > bb && bb > rb) {
		t.Fatalf("specificity ordering violated: child=%v book=%v root=%v", sb, bb, rb)
	}
	if rb != 1.0 {
		t.Fatalf("root specificity = %v, want 1.0", rb)
	}
}

func TestTypeAncestorsOf(t *testing.T) {
	w := buildBookWorld(t)
	anc := w.cat.TypeAncestorsOf(w.quantumQuest)
	want := map[TypeID]bool{w.childBook: true, w.book: true, w.work: true, w.cat.Root(): true}
	if len(anc) != len(want) {
		t.Fatalf("T(QuantumQuest) = %v, want %d types", anc, len(want))
	}
	for _, a := range anc {
		if !want[a] {
			t.Errorf("unexpected ancestor %s", w.cat.TypeName(a))
		}
	}
}

func TestLCA(t *testing.T) {
	w := buildBookWorld(t)
	c := w.cat
	got := c.LCA([]TypeID{w.childBook, w.book})
	if len(got) != 1 || got[0] != w.book {
		t.Fatalf("LCA(child,book) = %v, want [Book]", got)
	}
	got = c.LCA([]TypeID{w.book, w.film})
	if len(got) != 1 || got[0] != w.work {
		t.Fatalf("LCA(book,film) = %v, want [Work]", got)
	}
	got = c.LCA([]TypeID{w.book, w.physicist})
	if len(got) != 1 || got[0] != c.Root() {
		t.Fatalf("LCA(book,physicist) = %v, want [root]", got)
	}
	if got := c.LCA(nil); got != nil {
		t.Fatalf("LCA(nil) = %v, want nil", got)
	}
}

func TestRelationQueries(t *testing.T) {
	w := buildBookWorld(t)
	c := w.cat
	if !c.HasTuple(w.wrote, w.einstein, w.relativity) {
		t.Error("HasTuple(einstein wrote relativity) = false")
	}
	if c.HasTuple(w.wrote, w.relativity, w.einstein) {
		t.Error("HasTuple is not direction sensitive")
	}
	objs := c.Objects(w.wrote, w.stannard)
	if len(objs) != 2 {
		t.Fatalf("Objects(stannard) = %v, want 2", objs)
	}
	subs := c.Subjects(w.wrote, w.uncleAlbert)
	if len(subs) != 1 || subs[0] != w.stannard {
		t.Fatalf("Subjects(uncleAlbert) = %v, want [stannard]", subs)
	}
	rd := c.RelationsBetween(w.einstein, w.relativity)
	if len(rd) != 1 || rd[0].Relation != w.wrote || !rd[0].Forward {
		t.Fatalf("RelationsBetween = %v", rd)
	}
	rd = c.RelationsBetween(w.relativity, w.einstein)
	if len(rd) != 1 || rd[0].Forward {
		t.Fatalf("reverse RelationsBetween = %v", rd)
	}
}

func TestParticipationFraction(t *testing.T) {
	w := buildBookWorld(t)
	c := w.cat
	// Both people write books: fraction 1.0.
	if got := c.ParticipationFraction(w.wrote, w.person, w.book); got != 1.0 {
		t.Errorf("participation(person,book) = %v, want 1.0", got)
	}
	// All 3 books are written: reverse direction checked via schema swap
	// (objects under Book that relate from a Person subject).
	if got := c.ParticipationFraction(w.wrote, w.physicist, w.book); got != 1.0 {
		t.Errorf("participation(physicist,book) = %v, want 1.0", got)
	}
	// Nobody wrote a film.
	if got := c.ParticipationFraction(w.wrote, w.person, w.film); got != 0 {
		t.Errorf("participation(person,film) = %v, want 0", got)
	}
}

func TestSchemaMatches(t *testing.T) {
	w := buildBookWorld(t)
	c := w.cat
	if !c.SchemaMatches(w.wrote, w.person, w.book) {
		t.Error("exact schema should match")
	}
	if !c.SchemaMatches(w.wrote, w.writer, w.childBook) {
		t.Error("subtype schema should match")
	}
	if c.SchemaMatches(w.wrote, w.book, w.person) {
		t.Error("swapped schema must not match")
	}
	if c.SchemaMatches(w.wrote, w.film, w.book) {
		t.Error("film subject must not match Person schema")
	}
}

func TestOverlapFractionAndRelatedness(t *testing.T) {
	// Missing-link scenario from Appendix F: an entity whose ∈ link to
	// the "right" type was dropped, but whose siblings under its parent
	// type are mostly in the right type.
	c := New()
	novels, _ := c.AddType("Novels")
	nancyDrew, _ := c.AddType("NancyDrewBooks")
	y1951, _ := c.AddType("1951Novels")
	if err := c.AddSubtype(nancyDrew, novels); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSubtype(y1951, novels); err != nil {
		t.Fatal(err)
	}
	// 4 novels from 1951, 3 of which are Nancy Drew books. The 4th (the
	// "Black Keys" case) is missing its NancyDrew ∈ link.
	for i, name := range []string{"Secret of the Old Clock", "Hidden Staircase", "Bungalow Mystery"} {
		if _, err := c.AddEntity(name, nil, nancyDrew, y1951); err != nil {
			t.Fatalf("entity %d: %v", i, err)
		}
	}
	blackKeys, err := c.AddEntity("The Clue of the Black Keys", nil, y1951)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	// 3 of the 4 1951 novels are Nancy Drew books.
	if got := c.OverlapFraction(y1951, nancyDrew); got != 0.75 {
		t.Fatalf("OverlapFraction = %v, want 0.75", got)
	}
	if got := c.Relatedness(blackKeys, nancyDrew); got != 0.75 {
		t.Fatalf("Relatedness = %v, want 0.75", got)
	}
	// Relatedness of an entity to a type it IS in should be high too.
	if got := c.Relatedness(blackKeys, y1951); got != 1.0 {
		t.Fatalf("Relatedness to own type = %v, want 1.0", got)
	}
}

func TestRemoveLinksThenRefreeze(t *testing.T) {
	w := buildBookWorld(t)
	clone := w.cat.Clone()
	if clone.Frozen() {
		t.Fatal("clone should be unfrozen")
	}
	if err := clone.RemoveEntityType(w.quantumQuest, w.childBook); err != nil {
		t.Fatal(err)
	}
	if err := clone.Freeze(); err != nil {
		t.Fatal(err)
	}
	if clone.IsA(w.quantumQuest, w.childBook) {
		t.Error("removed ∈ link survived refreeze")
	}
	// Original is untouched.
	if !w.cat.IsA(w.quantumQuest, w.childBook) {
		t.Error("original catalog mutated by clone")
	}
}

func TestRemoveSubtype(t *testing.T) {
	w := buildBookWorld(t)
	clone := w.cat.Clone()
	if err := clone.RemoveSubtype(w.childBook, w.book); err != nil {
		t.Fatal(err)
	}
	if err := clone.Freeze(); err != nil {
		t.Fatal(err)
	}
	if clone.IsSubtype(w.childBook, w.book) {
		t.Error("removed ⊆ link survived refreeze")
	}
	if clone.IsA(w.quantumQuest, w.book) {
		t.Error("entity still reaches Book through removed edge")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	w := buildBookWorld(t)
	var buf bytes.Buffer
	if err := w.cat.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Freeze(); err != nil {
		t.Fatal(err)
	}
	if back.NumTypes() != w.cat.NumTypes() || back.NumEntities() != w.cat.NumEntities() || back.NumRelations() != w.cat.NumRelations() {
		t.Fatalf("round trip size mismatch: %v vs %v", back.Stats(), w.cat.Stats())
	}
	// Closures must agree on a few probes.
	if !back.IsA(w.einstein, w.person) {
		t.Error("round-trip lost einstein ∈+ person")
	}
	if !back.HasTuple(w.wrote, w.stannard, w.quantumQuest) {
		t.Error("round-trip lost tuple")
	}
	if back.TypeName(back.Root()) != w.cat.TypeName(w.cat.Root()) {
		t.Error("round-trip changed root")
	}
}

func TestLookupsByName(t *testing.T) {
	w := buildBookWorld(t)
	if id, ok := w.cat.TypeByName("Book"); !ok || id != w.book {
		t.Errorf("TypeByName(Book) = %v,%v", id, ok)
	}
	if id, ok := w.cat.EntityByName("Albert Einstein"); !ok || id != w.einstein {
		t.Errorf("EntityByName = %v,%v", id, ok)
	}
	if id, ok := w.cat.RelationByName("wrote"); !ok || id != w.wrote {
		t.Errorf("RelationByName = %v,%v", id, ok)
	}
	if _, ok := w.cat.TypeByName("Nope"); ok {
		t.Error("TypeByName(Nope) should miss")
	}
}

func TestStats(t *testing.T) {
	w := buildBookWorld(t)
	s := w.cat.Stats()
	if s.Types != w.cat.NumTypes() || s.Entities != 5 || s.Relations != 1 || s.Tuples != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDepth < 3 {
		t.Fatalf("max depth = %d, want >= 3 (root->work->book->childbook)", s.MaxDepth)
	}
	if s.String() == "" {
		t.Fatal("Stats.String empty")
	}
}

func TestCardinalityHelpers(t *testing.T) {
	cases := []struct {
		c                 Cardinality
		funcSubj, funcObj bool
		str               string
	}{
		{ManyToMany, false, false, "N:N"},
		{OneToMany, true, false, "1:N"},
		{ManyToOne, false, true, "N:1"},
		{OneToOne, true, true, "1:1"},
	}
	for _, tc := range cases {
		if tc.c.FunctionalSubject() != tc.funcSubj {
			t.Errorf("%v FunctionalSubject = %v", tc.c, tc.c.FunctionalSubject())
		}
		if tc.c.FunctionalObject() != tc.funcObj {
			t.Errorf("%v FunctionalObject = %v", tc.c, tc.c.FunctionalObject())
		}
		if tc.c.String() != tc.str {
			t.Errorf("%v String = %q want %q", tc.c, tc.c.String(), tc.str)
		}
	}
}

// Property: for every entity e and every t in TypeAncestorsOf(e), e must be
// in EntitiesOf(t); and Dist is at least 1.
func TestPropertyClosureConsistency(t *testing.T) {
	c := randomCatalog(t, rand.New(rand.NewSource(7)), 40, 120)
	for e := EntityID(0); int(e) < c.NumEntities(); e++ {
		for _, tt := range c.TypeAncestorsOf(e) {
			found := false
			for _, e2 := range c.EntitiesOf(tt) {
				if e2 == e {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("entity %d in T(E) of type %d but not in E(T)", e, tt)
			}
			if d, ok := c.Dist(e, tt); !ok || d < 1 {
				t.Fatalf("Dist(%d,%d) = %d,%v want >=1", e, tt, d, ok)
			}
		}
	}
}

// Property: LCA results are common ancestors and mutually incomparable.
func TestPropertyLCAMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCatalog(t, rng, 60, 0)
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(3)
		ts := make([]TypeID, k)
		for i := range ts {
			ts[i] = TypeID(rng.Intn(c.NumTypes()))
		}
		lca := c.LCA(ts)
		if len(lca) == 0 {
			t.Fatalf("LCA empty for %v (root should always qualify)", ts)
		}
		for _, a := range lca {
			for _, q := range ts {
				if !c.IsSubtype(q, a) {
					t.Fatalf("LCA member %d not ancestor of %d", a, q)
				}
			}
			for _, b := range lca {
				if a != b && (c.IsSubtype(a, b) || c.IsSubtype(b, a)) {
					t.Fatalf("LCA members %d,%d comparable", a, b)
				}
			}
		}
	}
}

// Property (testing/quick): specificity is monotone along ⊆ — a subtype is
// at least as specific as its ancestors.
func TestQuickSpecificityMonotone(t *testing.T) {
	c := randomCatalog(t, rand.New(rand.NewSource(3)), 50, 200)
	f := func(rawChild, rawAnc uint16) bool {
		child := TypeID(int(rawChild) % c.NumTypes())
		for _, anc := range c.AncestorsOf(child) {
			if c.EntityCount(child) > 0 && c.EntityCount(anc) > 0 &&
				c.Specificity(child) < c.Specificity(anc) {
				return false
			}
		}
		_ = rawAnc
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomCatalog builds a random DAG catalog: each type picks parents among
// lower-numbered types, each entity picks 1-2 random types.
func randomCatalog(t testing.TB, rng *rand.Rand, nTypes, nEntities int) *Catalog {
	t.Helper()
	c := New()
	ids := make([]TypeID, nTypes)
	for i := 0; i < nTypes; i++ {
		id, err := c.AddType(typeName(i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		for p := 0; p < 1+rng.Intn(2) && i > 0; p++ {
			parent := ids[rng.Intn(i)]
			if parent != id {
				if err := c.AddSubtype(id, parent); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < nEntities; i++ {
		types := []TypeID{ids[rng.Intn(nTypes)]}
		if rng.Intn(3) == 0 {
			types = append(types, ids[rng.Intn(nTypes)])
		}
		if _, err := c.AddEntity(entName(i), nil, types...); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

func typeName(i int) string { return "T" + itoa(i) }
func entName(i int) string  { return "E" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestFreezeTablesAreSparse bounds what Freeze materialises for the set
// algebra: one co-membership entry per ordered pair of types that share
// an entity — never types² for its own sake — and two related-pair
// entries per distinct tuple.
func TestFreezeTablesAreSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cats := []*Catalog{buildBookWorld(t).cat}
	for trial := 0; trial < 20; trial++ {
		cats = append(cats, randomCatalog(t, rng, 2+rng.Intn(30), 1+rng.Intn(60)))
	}
	for i, c := range cats {
		sharing := 0
		for a := range c.types {
			for b := range c.types {
				if c.OverlapFraction(TypeID(a), TypeID(b)) > 0 {
					sharing++
				}
			}
		}
		if len(c.coTypes) != sharing || len(c.coCounts) != sharing {
			t.Errorf("catalog %d: %d co-membership entries for %d type pairs sharing an entity (of %d pairs)",
				i, len(c.coTypes), sharing, len(c.types)*len(c.types))
		}
		distinct := 0
		for r := range c.relations {
			set := make(map[Tuple]struct{})
			for _, tp := range c.relations[r].tuples {
				set[tp] = struct{}{}
			}
			distinct += len(set)
		}
		if len(c.relOther) != 2*distinct || len(c.relDir) != 2*distinct {
			t.Errorf("catalog %d: %d related-pair entries, want 2 per distinct tuple = %d", i, len(c.relOther), 2*distinct)
		}
	}
}
