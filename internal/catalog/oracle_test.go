package catalog_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/worldgen"
)

// The oracles below are the pre-compilation implementations of the
// missing-link overlap (§4.2.3) and of the relation probes, kept here as
// the reference the frozen catalog's lookups are held to: same float,
// same list, same order.

// intersectSortedCount counts common elements of two ascending slices.
func intersectSortedCount(a, b []catalog.EntityID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// oracleOverlap is |E(T′)∩E(T)| / |E(T′)| by merging the two sorted
// entity lists, 0 when E(T′) is empty.
func oracleOverlap(c *catalog.Catalog, tPrime, t catalog.TypeID) float64 {
	a, b := c.EntitiesOf(tPrime), c.EntitiesOf(t)
	if len(a) == 0 {
		return 0
	}
	return float64(intersectSortedCount(a, b)) / float64(len(a))
}

// oracleRelatedness is the minimum of oracleOverlap over e's direct types.
func oracleRelatedness(c *catalog.Catalog, e catalog.EntityID, t catalog.TypeID) float64 {
	direct := c.DirectTypes(e)
	if len(direct) == 0 {
		return 0
	}
	minFrac := 1.0
	for _, tp := range direct {
		if f := oracleOverlap(c, tp, t); f < minFrac {
			minFrac = f
		}
	}
	return minFrac
}

// checkOverlap compares every (T′, T) overlap fraction and every (E, T)
// relatedness of a frozen catalog with the oracles, as IEEE bit patterns.
func checkOverlap(t *testing.T, name string, c *catalog.Catalog) {
	t.Helper()
	for tp := 0; tp < c.NumTypes(); tp++ {
		for ty := 0; ty < c.NumTypes(); ty++ {
			a, b := catalog.TypeID(tp), catalog.TypeID(ty)
			got, want := c.OverlapFraction(a, b), oracleOverlap(c, a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: OverlapFraction(%d,%d) = %v, oracle %v", name, tp, ty, got, want)
			}
		}
	}
	for e := 0; e < c.NumEntities(); e++ {
		for ty := 0; ty < c.NumTypes(); ty++ {
			got := c.Relatedness(catalog.EntityID(e), catalog.TypeID(ty))
			want := oracleRelatedness(c, catalog.EntityID(e), catalog.TypeID(ty))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Relatedness(%d,%d) = %v, oracle %v", name, e, ty, got, want)
			}
		}
	}
	if got := c.OverlapFraction(-1, 0); got != 0 {
		t.Fatalf("%s: OverlapFraction(-1,0) = %v, want 0", name, got)
	}
	if got := c.OverlapFraction(0, catalog.TypeID(c.NumTypes())); got != 0 {
		t.Fatalf("%s: OverlapFraction(0,out of range) = %v, want 0", name, got)
	}
}

// tupleSets is the per-relation tuple membership set the catalog used to
// keep (relationNode.pairs), rebuilt from the raw tuple lists.
func tupleSets(c *catalog.Catalog) []map[catalog.Tuple]struct{} {
	sets := make([]map[catalog.Tuple]struct{}, c.NumRelations())
	for b := range sets {
		sets[b] = make(map[catalog.Tuple]struct{})
		for _, tp := range c.Tuples(catalog.RelationID(b)) {
			sets[b][tp] = struct{}{}
		}
	}
	return sets
}

// oracleRelationsBetween is the 2·|B| membership loop: relations in
// ascending ID, the forward orientation before the reverse.
func oracleRelationsBetween(sets []map[catalog.Tuple]struct{}, e1, e2 catalog.EntityID) []catalog.RelationDirection {
	var out []catalog.RelationDirection
	for b := range sets {
		if _, ok := sets[b][catalog.Tuple{Subject: e1, Object: e2}]; ok {
			out = append(out, catalog.RelationDirection{Relation: catalog.RelationID(b), Forward: true})
		}
		if _, ok := sets[b][catalog.Tuple{Subject: e2, Object: e1}]; ok {
			out = append(out, catalog.RelationDirection{Relation: catalog.RelationID(b), Forward: false})
		}
	}
	return out
}

// checkRelations compares RelationsBetween and HasTuple with the oracle
// on the given entity pairs (all pairs when pairs is nil).
func checkRelations(t *testing.T, name string, c *catalog.Catalog, pairs [][2]catalog.EntityID) {
	t.Helper()
	sets := tupleSets(c)
	check := func(e1, e2 catalog.EntityID) {
		got, want := c.RelationsBetween(e1, e2), oracleRelationsBetween(sets, e1, e2)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: RelationsBetween(%d,%d) = %v, oracle %v", name, e1, e2, got, want)
		}
		for b := range sets {
			_, want := sets[b][catalog.Tuple{Subject: e1, Object: e2}]
			if got := c.HasTuple(catalog.RelationID(b), e1, e2); got != want {
				t.Fatalf("%s: HasTuple(%d,%d,%d) = %t, oracle %t", name, b, e1, e2, got, want)
			}
		}
	}
	if pairs != nil {
		for _, p := range pairs {
			check(p[0], p[1])
		}
		return
	}
	for e1 := 0; e1 < c.NumEntities(); e1++ {
		for e2 := 0; e2 < c.NumEntities(); e2++ {
			check(catalog.EntityID(e1), catalog.EntityID(e2))
		}
	}
}

// checkAdjacency compares Objects and Subjects, for every relation and
// entity, with the maps the catalog used to keep: the distinct tuples'
// other ends, by subject and by object, in first-occurrence order.
func checkAdjacency(t *testing.T, name string, c *catalog.Catalog) {
	t.Helper()
	for b := 0; b < c.NumRelations(); b++ {
		bySubject, byObject := map[catalog.EntityID][]catalog.EntityID{}, map[catalog.EntityID][]catalog.EntityID{}
		seen := map[catalog.Tuple]bool{}
		for _, tp := range c.Tuples(catalog.RelationID(b)) {
			if !seen[tp] {
				seen[tp] = true
				bySubject[tp.Subject] = append(bySubject[tp.Subject], tp.Object)
				byObject[tp.Object] = append(byObject[tp.Object], tp.Subject)
			}
		}
		for e := catalog.EntityID(-1); int(e) <= c.NumEntities(); e++ {
			if got := c.Objects(catalog.RelationID(b), e); !slices.Equal(got, bySubject[e]) {
				t.Fatalf("%s: Objects(%d,%d) = %v, oracle %v", name, b, e, got, bySubject[e])
			}
			if got := c.Subjects(catalog.RelationID(b), e); !slices.Equal(got, byObject[e]) {
				t.Fatalf("%s: Subjects(%d,%d) = %v, oracle %v", name, b, e, got, byObject[e])
			}
		}
	}
}

// randomCatalog draws an unfrozen catalog: a DAG of types (parents have
// lower IDs; several tops, so Freeze adds a root), entities with 0-3
// direct types (some types stay empty), and relations whose tuples
// include self tuples b(e,e), both orientations b(s,o) and b(o,s),
// duplicates, and pairs related under several relations.
func randomCatalog(t *testing.T, rng *rand.Rand) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	nT := 2 + rng.Intn(14)
	for i := 0; i < nT; i++ {
		id, err := c.AddType(fmt.Sprintf("T%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for k := rng.Intn(3); i > 0 && k > 0; k-- {
			if err := c.AddSubtype(id, catalog.TypeID(rng.Intn(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	nE := 1 + rng.Intn(40)
	for i := 0; i < nE; i++ {
		var types []catalog.TypeID
		for k := rng.Intn(4); k > 0; k-- {
			types = append(types, catalog.TypeID(rng.Intn(nT)))
		}
		if _, err := c.AddEntity(fmt.Sprintf("E%d", i), nil, types...); err != nil {
			t.Fatal(err)
		}
	}
	ent := func() catalog.EntityID { return catalog.EntityID(rng.Intn(nE)) }
	for b, nB := 0, rng.Intn(5); b < nB; b++ {
		id, err := c.AddRelation(fmt.Sprintf("B%d", b), catalog.TypeID(rng.Intn(nT)), catalog.TypeID(rng.Intn(nT)),
			catalog.Cardinality(rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		add := func(s, o catalog.EntityID) {
			if err := c.AddTuple(id, s, o); err != nil {
				t.Fatal(err)
			}
		}
		for k := rng.Intn(30); k > 0; k-- {
			s, o := ent(), ent()
			switch rng.Intn(6) {
			case 0:
				o = s
			case 1:
				add(o, s)
			case 2:
				add(s, o)
			}
			add(s, o)
		}
	}
	return c
}

func mustFreeze(t *testing.T, c *catalog.Catalog) *catalog.Catalog {
	t.Helper()
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

// degrade clones a frozen catalog, drops random ∈ and ⊆ links the way
// the missing-link experiments do, and re-freezes the clone.
func degrade(t *testing.T, rng *rand.Rand, c *catalog.Catalog) *catalog.Catalog {
	t.Helper()
	d := c.Clone()
	for e := 0; e < d.NumEntities(); e++ {
		if ts := d.DirectTypes(catalog.EntityID(e)); len(ts) > 0 && rng.Intn(3) == 0 {
			if err := d.RemoveEntityType(catalog.EntityID(e), ts[rng.Intn(len(ts))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for ty := 0; ty < d.NumTypes(); ty++ {
		if ps := d.Parents(catalog.TypeID(ty)); len(ps) > 0 && rng.Intn(4) == 0 {
			if err := d.RemoveSubtype(catalog.TypeID(ty), ps[rng.Intn(len(ps))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return mustFreeze(t, d)
}

func worldCatalogs(t testing.TB) (pub, truth *catalog.Catalog) {
	t.Helper()
	spec := worldgen.DefaultSpec()
	spec.Seed = 1
	w, err := worldgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w.Public, w.True
}

// TestOverlapOracle: OverlapFraction and Relatedness return the float
// the sorted-list intersection returns, for every (T′, T) and (E, T) of
// the worldgen catalogs and of random DAG catalogs, before and after a
// Clone → RemoveEntityType/RemoveSubtype → re-Freeze.
func TestOverlapOracle(t *testing.T) {
	pub, truth := worldCatalogs(t)
	rng := rand.New(rand.NewSource(16))
	checkOverlap(t, "worldgen public", pub)
	checkOverlap(t, "worldgen true", truth)
	checkOverlap(t, "worldgen public degraded", degrade(t, rng, pub))
	for trial := 0; trial < 150; trial++ {
		c := mustFreeze(t, randomCatalog(t, rng))
		checkOverlap(t, fmt.Sprintf("random %d", trial), c)
		checkOverlap(t, fmt.Sprintf("random %d degraded", trial), degrade(t, rng, c))
	}
}

// TestRelationsBetweenOracle pins RelationsBetween to the output of the
// 2·|B| membership loop, order included, HasTuple to the tuple lists and
// Objects/Subjects to the per-relation adjacency maps: every entity pair of random catalogs (e1 == e2, symmetric and
// multiply-related pairs among them); on the worldgen catalog every
// tuple's two orientations, every self pair and a random sample.
func TestRelationsBetweenOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		c := mustFreeze(t, randomCatalog(t, rng))
		checkRelations(t, fmt.Sprintf("random %d", trial), c, nil)
		checkRelations(t, fmt.Sprintf("random %d degraded", trial), degrade(t, rng, c), nil)
		checkAdjacency(t, fmt.Sprintf("random %d", trial), c)
	}
	pub, _ := worldCatalogs(t)
	checkAdjacency(t, "worldgen public", pub)
	var pairs [][2]catalog.EntityID
	for b := 0; b < pub.NumRelations(); b++ {
		for _, tp := range pub.Tuples(catalog.RelationID(b)) {
			pairs = append(pairs, [2]catalog.EntityID{tp.Subject, tp.Object}, [2]catalog.EntityID{tp.Object, tp.Subject})
		}
	}
	for e := 0; e < pub.NumEntities(); e++ {
		pairs = append(pairs, [2]catalog.EntityID{catalog.EntityID(e), catalog.EntityID(e)})
	}
	for k := 0; k < 20000; k++ {
		pairs = append(pairs, [2]catalog.EntityID{
			catalog.EntityID(rng.Intn(pub.NumEntities())), catalog.EntityID(rng.Intn(pub.NumEntities()))})
	}
	// Out-of-range IDs relate to nothing.
	pairs = append(pairs, [2]catalog.EntityID{-1, 0}, [2]catalog.EntityID{0, catalog.EntityID(pub.NumEntities())})
	checkRelations(t, "worldgen public", pub, pairs)
}

// checkParticipation compares, for every (relation, subject type, object
// type), the two fractions Freeze's participation counts give with the
// per-query references, as IEEE bit patterns; a pair in a run must have
// been reached by some tuple.
func checkParticipation(t *testing.T, name string, c *catalog.Catalog) {
	t.Helper()
	nT := c.NumTypes()
	for b := catalog.RelationID(0); int(b) < c.NumRelations(); b++ {
		for s := catalog.TypeID(0); int(s) < nT; s++ {
			objs, counts := c.Participation(b, s)
			if !slices.IsSorted(objs) || len(objs) != len(counts) {
				t.Fatalf("%s: Participation(%d,%d) = %v, %v: not one ascending run", name, b, s, objs, counts)
			}
			for o := catalog.TypeID(0); int(o) < nT; o++ {
				var fwd, rev float64
				if i, ok := slices.BinarySearch(objs, o); ok {
					if counts[i][0] == 0 || counts[i][1] == 0 {
						t.Fatalf("%s: Participation(%d,%d) lists %d with counts %v", name, b, s, o, counts[i])
					}
					fwd = float64(counts[i][0]) / float64(len(c.EntitiesOf(s)))
					rev = float64(counts[i][1]) / float64(len(c.EntitiesOf(o)))
				}
				wantFwd, wantRev := c.ParticipationFraction(b, s, o), c.ReverseParticipation(b, s, o)
				if math.Float64bits(fwd) != math.Float64bits(wantFwd) || math.Float64bits(rev) != math.Float64bits(wantRev) {
					t.Fatalf("%s: participation(%d,%d,%d) = %v/%v, reference %v/%v", name, b, s, o, fwd, rev, wantFwd, wantRev)
				}
			}
		}
	}
	for _, b := range []catalog.RelationID{-1, catalog.RelationID(c.NumRelations())} {
		if objs, counts := c.Participation(b, 0); objs != nil || counts != nil {
			t.Fatalf("%s: Participation of unknown relation %d = %v, %v", name, b, objs, counts)
		}
	}
}

// TestParticipationOracle: the participation counts Freeze computes give,
// for every (relation, type, type), the fractions the per-query
// references give, bit for bit, on the worldgen catalogs of seeds 1-3 and
// on random catalogs, before and after a Clone → RemoveEntityType/
// RemoveSubtype → re-Freeze.
func TestParticipationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for seed := int64(1); seed <= 3; seed++ {
		spec := worldgen.DefaultSpec()
		spec.Seed = seed
		w, err := worldgen.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		checkParticipation(t, fmt.Sprintf("worldgen %d public", seed), w.Public)
		checkParticipation(t, fmt.Sprintf("worldgen %d true", seed), w.True)
		checkParticipation(t, fmt.Sprintf("worldgen %d public degraded", seed), degrade(t, rng, w.Public))
	}
	for trial := 0; trial < 150; trial++ {
		c := mustFreeze(t, randomCatalog(t, rng))
		checkParticipation(t, fmt.Sprintf("random %d", trial), c)
		checkParticipation(t, fmt.Sprintf("random %d degraded", trial), degrade(t, rng, c))
	}
}

// checkSubtypes compares IsSubtype's bit matrix, for every ordered pair
// of types, with the ancestor map it was compiled from (TypeDist still
// reads the map) and with a walk up the ⊆ edges that uses neither.
func checkSubtypes(t *testing.T, name string, c *catalog.Catalog) {
	t.Helper()
	nT := c.NumTypes()
	for a := 0; a < nT; a++ {
		reach := make([]bool, nT)
		reach[a] = true
		for stack := []catalog.TypeID{catalog.TypeID(a)}; len(stack) > 0; {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range c.Parents(top) {
				if !reach[p] {
					reach[p] = true
					stack = append(stack, p)
				}
			}
		}
		for b := 0; b < nT; b++ {
			got := c.IsSubtype(catalog.TypeID(a), catalog.TypeID(b))
			if _, inMap := c.TypeDist(catalog.TypeID(a), catalog.TypeID(b)); got != inMap || got != reach[b] {
				t.Fatalf("%s: IsSubtype(%d,%d) = %v, ancestor map %v, parent walk %v", name, a, b, got, inMap, reach[b])
			}
		}
	}
	for _, pair := range [][2]catalog.TypeID{{-1, 0}, {0, -1}, {catalog.TypeID(nT), 0}, {0, catalog.TypeID(nT)}} {
		if c.IsSubtype(pair[0], pair[1]) {
			t.Fatalf("%s: IsSubtype(%d,%d) holds for a type out of range", name, pair[0], pair[1])
		}
	}
}

// TestIsSubtypeOracle: the bit matrix Freeze compiles for IsSubtype
// agrees with the ancestor map and with a parent walk on the worldgen
// catalogs and on random DAG catalogs, before and after a Clone →
// RemoveSubtype → re-Freeze, and on a chain long enough that a row of the
// matrix spans three words.
func TestIsSubtypeOracle(t *testing.T) {
	pub, truth := worldCatalogs(t)
	rng := rand.New(rand.NewSource(19))
	checkSubtypes(t, "worldgen public", pub)
	checkSubtypes(t, "worldgen true", truth)
	checkSubtypes(t, "worldgen public degraded", degrade(t, rng, pub))
	for trial := 0; trial < 150; trial++ {
		c := mustFreeze(t, randomCatalog(t, rng))
		checkSubtypes(t, fmt.Sprintf("random %d", trial), c)
		checkSubtypes(t, fmt.Sprintf("random %d degraded", trial), degrade(t, rng, c))
	}
	// A chain of 130 types spans three words of a row.
	chain := catalog.New()
	for i := 0; i < 130; i++ {
		id, err := chain.AddType(fmt.Sprintf("C%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := chain.AddSubtype(id, id-1); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkSubtypes(t, "chain of 130", mustFreeze(t, chain))
}

// checkDirectTypeSets: T(E), dist(E,T) and the missing-link relatedness
// depend on an entity only through the set of its direct types (the
// dist-1 entries of its ancestor run), so two entities whose sets are
// equal answer every type alike; TypeSignature is equal for two entities
// exactly when their sets are.
func checkDirectTypeSets(t *testing.T, name string, c *catalog.Catalog) {
	t.Helper()
	first := map[string]catalog.EntityID{} // set → its lowest entity
	bySig := map[int32]catalog.EntityID{}  // signature → its lowest entity
	for e := 0; e < c.NumEntities(); e++ {
		id := catalog.EntityID(e)
		set := slices.Compact(slices.Sorted(slices.Values(c.DirectTypes(id))))
		key := fmt.Sprint(set)
		f, seen := first[key]
		if !seen {
			first[key] = id
			f = id
		}
		sig := c.TypeSignature(id)
		g, seenSig := bySig[sig]
		if !seenSig {
			bySig[sig] = id
			g = id
		}
		if sig < 0 || f != g || (len(set) == 0) != (sig == 0) {
			t.Fatalf("%s: entity %d with direct types %v has signature %d, shared with entity %d; its set first appears at entity %d",
				name, e, set, sig, g, f)
		}
		if !slices.Equal(c.TypeAncestorsOf(id), c.TypeAncestorsOf(f)) {
			t.Fatalf("%s: entities %d and %d have direct types %v but T(E) %v and %v", name, f, e, set,
				c.TypeAncestorsOf(f), c.TypeAncestorsOf(id))
		}
		for ty := 0; ty < c.NumTypes(); ty++ {
			tid := catalog.TypeID(ty)
			d1, ok1 := c.Dist(f, tid)
			d2, ok2 := c.Dist(id, tid)
			r1, r2 := c.Relatedness(f, tid), c.Relatedness(id, tid)
			if d1 != d2 || ok1 != ok2 || math.Float64bits(r1) != math.Float64bits(r2) {
				t.Fatalf("%s: entities %d and %d share direct types %v; type %d: dist (%d,%t) vs (%d,%t), relatedness %v vs %v",
					name, f, e, set, ty, d1, ok1, d2, ok2, r1, r2)
			}
		}
	}
}

// TestTypeSignatureOracle: TypeSignature numbers direct-type sets, and
// entities with equal sets are interchangeable to every type-side lookup
// φ3 makes, on the worldgen
// catalogs and on random DAG catalogs (entities with repeated and with
// no direct types among them), before and after a Clone → remove →
// re-Freeze.
func TestTypeSignatureOracle(t *testing.T) {
	pub, truth := worldCatalogs(t)
	rng := rand.New(rand.NewSource(31))
	checkDirectTypeSets(t, "worldgen public", pub)
	checkDirectTypeSets(t, "worldgen true", truth)
	checkDirectTypeSets(t, "worldgen public degraded", degrade(t, rng, pub))
	for trial := 0; trial < 150; trial++ {
		c := mustFreeze(t, randomCatalog(t, rng))
		checkDirectTypeSets(t, fmt.Sprintf("random %d", trial), c)
		checkDirectTypeSets(t, fmt.Sprintf("random %d degraded", trial), degrade(t, rng, c))
	}
	for _, e := range []catalog.EntityID{-1, catalog.EntityID(pub.NumEntities())} {
		if sig := pub.TypeSignature(e); sig != -1 {
			t.Fatalf("TypeSignature(%d) = %d for an entity out of range, want -1", e, sig)
		}
	}
	if sig := catalog.New().TypeSignature(0); sig != -1 {
		t.Fatalf("TypeSignature on an unfrozen catalog = %d, want -1", sig)
	}
}
