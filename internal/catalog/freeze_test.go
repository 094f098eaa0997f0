package catalog_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/worldgen"
)

// TestFrozenLookupsDoNotAllocate: the annotator asks these of the frozen
// catalog once per potential-table entry, and the query planner asks
// IsSubtype once per posted column pair. Each is a search of a compiled
// run or a bit test (Objects and Subjects included), and RelationsBetween's list is a window into a run
// — nothing is built per call.
func TestFrozenLookupsDoNotAllocate(t *testing.T) {
	pub, _ := worldCatalogs(t)
	tuples := pub.Tuples(0)
	if len(tuples) == 0 {
		t.Fatal("relation 0 of the worldgen catalog has no tuples")
	}
	s, o := tuples[0].Subject, tuples[0].Object
	if len(pub.RelationsBetween(s, o)) == 0 {
		t.Fatalf("RelationsBetween(%d,%d) is empty for a recorded tuple", s, o)
	}
	nT, nE := pub.NumTypes(), pub.NumEntities()
	var sink float64
	var rels int
	if n := testing.AllocsPerRun(20, func() {
		for tp := 0; tp < nT; tp++ {
			for ty := 0; ty < nT; ty++ {
				sink += pub.OverlapFraction(catalog.TypeID(tp), catalog.TypeID(ty))
				if pub.IsSubtype(catalog.TypeID(tp), catalog.TypeID(ty)) {
					rels++
				}
			}
		}
		for e := 0; e < nE; e += 7 {
			sink += pub.Relatedness(catalog.EntityID(e), catalog.TypeID(e%nT))
			rels += int(pub.TypeSignature(catalog.EntityID(e)))
			rels += len(pub.RelationsBetween(catalog.EntityID(e), o))
			rels += len(pub.Objects(0, catalog.EntityID(e))) + len(pub.Subjects(0, catalog.EntityID(e)))
			if pub.HasTuple(0, catalog.EntityID(e), o) {
				rels++
			}
		}
		rels += len(pub.RelationsBetween(s, o)) + len(pub.RelationsBetween(o, s))
	}); n != 0 {
		t.Errorf("frozen catalog lookups allocate %v times per pass, want 0", n)
	}
	_, _ = sink, rels
}

// BenchmarkFreeze compiles the worldgen catalog: closures, co-membership
// counts and the relation index.
func BenchmarkFreeze(b *testing.B) {
	spec := worldgen.DefaultSpec()
	spec.Seed = 1
	w, err := worldgen.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := w.Public.Clone()
		b.StartTimer()
		if err := c.Freeze(); err != nil {
			b.Fatal(err)
		}
	}
}
