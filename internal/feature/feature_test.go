package feature

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/lemmaindex"
)

// fixture: Work -> {Film, Novel(+SciFiNovel)}, Person -> Novelist; wrote
// (Novel, Novelist, N:1); one novel missing its SciFiNovel link.
type fx struct {
	cat                      *catalog.Catalog
	ix                       *lemmaindex.Index
	work, film, novel, scifi catalog.TypeID
	person, novelist         catalog.TypeID
	book1, book2, orphan     catalog.EntityID
	alice, bob               catalog.EntityID
	wrote                    catalog.RelationID
}

func build(t testing.TB) *fx {
	t.Helper()
	c := catalog.New()
	f := &fx{cat: c}
	mt := func(n string, ls ...string) catalog.TypeID {
		id, err := c.AddType(n, ls...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	f.work = mt("Work")
	f.film = mt("Film", "movie")
	f.novel = mt("Novel", "book")
	f.scifi = mt("SciFiNovel", "scifi novels")
	f.person = mt("Person")
	f.novelist = mt("Novelist", "author")
	for _, pair := range [][2]catalog.TypeID{{f.film, f.work}, {f.novel, f.work}, {f.scifi, f.novel}, {f.novelist, f.person}} {
		if err := c.AddSubtype(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	me := func(n string, ls []string, ty ...catalog.TypeID) catalog.EntityID {
		id, err := c.AddEntity(n, ls, ty...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	f.book1 = me("Star Dust", nil, f.scifi)
	f.book2 = me("Void Walker", nil, f.scifi)
	// orphan: a scifi novel whose ∈ SciFiNovel link is "missing"; it only
	// has the sibling genre-ish type... give it Novel directly.
	f.orphan = me("Lost Signal", nil, f.novel)
	f.alice = me("Alice Author", []string{"Alice"}, f.novelist)
	f.bob = me("Bob Writer", []string{"Bob"}, f.novelist)
	var err error
	f.wrote, err = c.AddRelation("wrote", f.novel, f.novelist, catalog.ManyToOne)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range [][2]catalog.EntityID{{f.book1, f.alice}, {f.book2, f.bob}} {
		if err := c.AddTuple(f.wrote, tp[0], tp[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	f.ix = lemmaindex.Build(c, lemmaindex.DefaultConfig())
	return f
}

func TestWeightsFlattenRoundTrip(t *testing.T) {
	w := DefaultWeights()
	flat := w.Flatten()
	if len(flat) != TotalDim {
		t.Fatalf("flat length = %d, want %d", len(flat), TotalDim)
	}
	back, err := WeightsFromFlat(flat)
	if err != nil {
		t.Fatal(err)
	}
	if back != w {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, w)
	}
	if _, err := WeightsFromFlat(flat[:5]); err == nil {
		t.Error("short vector accepted")
	}
}

func TestF3Modes(t *testing.T) {
	f := build(t)
	for _, mode := range []TypeEntityMode{ModeSqrtDist, ModeDist, ModeIDF} {
		x := NewExtractor(f.cat, f.ix, mode)
		// dist(book1, scifi) = 1, dist(book1, novel) = 2.
		near := x.F3(f.scifi, f.book1)
		far := x.F3(f.novel, f.book1)
		if near[0] <= 0 || far[0] <= 0 {
			t.Fatalf("%v: compat not firing: near=%v far=%v", mode, near, far)
		}
		if near[1] != 0 || far[1] != 0 {
			t.Errorf("%v: missing-link fired for reachable pair", mode)
		}
		switch mode {
		case ModeSqrtDist:
			if math.Abs(near[0]-1) > 1e-9 || math.Abs(far[0]-1/math.Sqrt(2)) > 1e-9 {
				t.Errorf("sqrt mode values: %v %v", near[0], far[0])
			}
		case ModeDist:
			if math.Abs(near[0]-1) > 1e-9 || math.Abs(far[0]-0.5) > 1e-9 {
				t.Errorf("dist mode values: %v %v", near[0], far[0])
			}
		case ModeIDF:
			// Specificity-based: scifi (2 entities) more specific than
			// novel (3).
			if near[0] <= far[0] {
				t.Errorf("IDF mode not specific-preferring: %v vs %v", near[0], far[0])
			}
		}
	}
}

func TestF3MissingLink(t *testing.T) {
	f := build(t)
	x := NewExtractor(f.cat, f.ix, ModeSqrtDist)
	// orphan ∈ Novel but not ∈+ SciFiNovel; its only parent Novel overlaps
	// E(SciFiNovel) in 2 of 3 entities.
	v := x.F3(f.scifi, f.orphan)
	if v[0] != 0 {
		t.Errorf("compat fired for unreachable pair: %v", v)
	}
	if v[1] <= 0 {
		t.Errorf("missing-link repair did not fire: %v", v)
	}
	want := (2.0 / 3.0) / 1.0 // overlap 2/3, min entity dist 1
	if math.Abs(v[1]-want) > 1e-9 {
		t.Errorf("repair value = %v, want %v", v[1], want)
	}
	// Completely unrelated type: nothing fires.
	z := x.F3(f.person, f.orphan)
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("features fired for unrelated type: %v", z)
	}
}

func TestF4SchemaAndParticipation(t *testing.T) {
	f := build(t)
	x := NewExtractor(f.cat, f.ix, ModeSqrtDist)
	fwd := RelDir{Relation: f.wrote, Forward: true}
	v := x.F4(fwd, f.novel, f.novelist)
	if v[0] != 1 {
		t.Errorf("schema match = %v, want 1", v[0])
	}
	if v[1] <= 0 || v[1] > 1 {
		t.Errorf("participation = %v", v[1])
	}
	if v[2] != 1 {
		t.Errorf("bias = %v", v[2])
	}
	// Swapped: schema must not match.
	swapped := x.F4(fwd, f.novelist, f.novel)
	if swapped[0] != 0 {
		t.Errorf("swapped schema matched: %v", swapped)
	}
	// Reverse direction fixes it.
	rev := RelDir{Relation: f.wrote, Forward: false}
	fixed := x.F4(rev, f.novelist, f.novel)
	if fixed[0] != 1 {
		t.Errorf("reverse direction schema = %v", fixed)
	}
	// Subtype columns still match the schema.
	sub := x.F4(fwd, f.scifi, f.novelist)
	if sub[0] != 1 {
		t.Errorf("subtype schema = %v", sub)
	}
}

func TestF4ParticipationCached(t *testing.T) {
	f := build(t)
	x := NewExtractor(f.cat, f.ix, ModeSqrtDist)
	fwd := RelDir{Relation: f.wrote, Forward: true}
	a := x.F4(fwd, f.novel, f.novelist)
	b := x.F4(fwd, f.novel, f.novelist)
	if a != b {
		t.Errorf("participation differs between calls: %v vs %v", a, b)
	}
	// A relation the catalog does not have participates in nothing,
	// whichever end it is asked from.
	for _, rel := range []int{-1, f.cat.NumRelations(), 1 << 20} {
		for _, fw := range []bool{true, false} {
			if got := x.F4(RelDir{Relation: catalog.RelationID(rel), Forward: fw}, f.novel, f.novelist); got[1] != 0 {
				t.Errorf("relation %d (forward %t): participation %v, want 0", rel, fw, got[1])
			}
		}
	}
}

func TestF5TupleAndViolation(t *testing.T) {
	f := build(t)
	x := NewExtractor(f.cat, f.ix, ModeSqrtDist)
	fwd := RelDir{Relation: f.wrote, Forward: true}

	hit := x.F5(fwd, f.book1, f.alice)
	if hit[0] != 1 || hit[1] != 0 {
		t.Errorf("true tuple: %v", hit)
	}
	// wrote is N:1 (functional object): book1's recorded author is alice,
	// so pairing book1 with bob violates.
	viol := x.F5(fwd, f.book1, f.bob)
	if viol[0] != 0 || viol[1] != 1 {
		t.Errorf("violation not detected: %v", viol)
	}
	// orphan has no recorded author: neither fires.
	open := x.F5(fwd, f.orphan, f.bob)
	if open[0] != 0 || open[1] != 0 {
		t.Errorf("unrecorded pair fired: %v", open)
	}
	// Reverse direction resolves arguments correctly.
	rev := RelDir{Relation: f.wrote, Forward: false}
	hitRev := x.F5(rev, f.alice, f.book1)
	if hitRev[0] != 1 {
		t.Errorf("reverse tuple lookup failed: %v", hitRev)
	}
}

func TestLogPotentialsAreDotProducts(t *testing.T) {
	f := build(t)
	x := NewExtractor(f.cat, f.ix, ModeSqrtDist)
	w := DefaultWeights()
	fv := x.F3(f.scifi, f.book1)
	want := w.W3[0]*fv[0] + w.W3[1]*fv[1]
	if got := x.LogPhi3(&w, f.scifi, f.book1); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogPhi3 = %v, want %v", got, want)
	}
	p := f.ix.ProfileFor(f.book1, "Star Dust")
	f1 := F1(p)
	want1 := 0.0
	for i := range f1 {
		want1 += w.W1[i] * f1[i]
	}
	if got := LogPhi1(&w, p); math.Abs(got-want1) > 1e-12 {
		t.Errorf("LogPhi1 = %v, want %v", got, want1)
	}
}

func TestModeString(t *testing.T) {
	if ModeSqrtDist.String() != "1/sqrt(dist)" || ModeDist.String() != "1/dist" || ModeIDF.String() != "IDF" {
		t.Error("mode strings wrong")
	}
}
