package search

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

// allocsFixture is four tables whose object column names the probe
// director in all 7 rows, then twelve candidate tables of the same shape
// — same headers, context, column types and relation, so every mode
// schedules and scans them — whose otherRows rows name somebody else:
// two rows in three by entity annotation, the third by text alone.
func allocsFixture(t testing.TB, otherRows int) (*Engine, Query) {
	return allocsFixtureSized(t, 4, 7, 12, otherRows)
}

// allocsFixtureSized is allocsFixture with matchTables tables of
// matchRows rows naming the probe director and otherTables of otherRows
// naming somebody else. Whatever the sizes, the answers are the same
// fifteen film names, so the same fifteen clusters.
func allocsFixtureSized(t testing.TB, matchTables, matchRows, otherTables, otherRows int) (*Engine, Query) {
	t.Helper()
	c := catalog.New()
	film, _ := c.AddType("Film", "movie")
	director, _ := c.AddType("Director", "director")
	directed, _ := c.AddRelation("directed", film, director, catalog.ManyToOne)
	d1, _ := c.AddEntity("Solo Auteur", nil, director)
	d2, _ := c.AddEntity("Somebody Else", nil, director)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	var tables []*table.Table
	var anns []*core.Annotation
	for ti := 0; ti < matchTables+otherTables; ti++ {
		tab := &table.Table{ID: fmt.Sprint("t", ti), Context: "films directed by people", Headers: []string{"Film", "Director"}}
		ann := &core.Annotation{
			ColumnTypes: []catalog.TypeID{film, director},
			Relations:   []core.RelationAnnotation{{Col1: 0, Col2: 1, Relation: directed, Forward: true}},
		}
		rows, name, ent := matchRows, "Solo Auteur", d1
		if ti >= matchTables {
			rows, name, ent = otherRows, "Somebody Else", d2
		}
		for r := 0; r < rows; r++ {
			e := ent
			if r%3 == 2 {
				e = catalog.None
			}
			tab.Cells = append(tab.Cells, []string{fmt.Sprintf("Film %d of table %d", r%5, ti%3), name})
			ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, e})
		}
		tables, anns = append(tables, tab), append(anns, ann)
	}
	return NewEngine(oneSegment(t, c, tables, anns)), Query{
		Relation: directed, T1: film, T2: director, E2: d1,
		RelationText: "directed", T1Text: "Film", T2Text: "Director", E2Text: "Solo Auteur",
	}
}

// TestExecuteAllocsIndependentOfRows: a query allocates for its answers —
// never per visited row. Doubling (and octupling) the rows of the tables
// that do not match leaves the allocation count of a TypeRel, a Type and
// a Baseline request where it was — to within the two or three the race
// detector's own bookkeeping adds or drops per run, against the 720 and
// 5040 more rows scanned — and that count stays under maxExecuteAllocs
// (measured: 84, 84 and 87 for this fixture's 15 answer clusters — about
// five per cluster, all of them fold's; the 16 candidate pairs and 28
// hits are the arena's).
func TestExecuteAllocsIndependentOfRows(t *testing.T) {
	const maxExecuteAllocs = 110
	for _, mode := range []Mode{TypeRel, Type, Baseline} {
		var base float64
		for i, otherRows := range []int{60, 120, 480} {
			e, q := allocsFixture(t, otherRows)
			req := Request{Query: q, Mode: mode, PageSize: 5}
			var rowsScanned int64
			n := testing.AllocsPerRun(20, func() {
				res, err := e.Execute(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				rowsScanned = res.Stats.RowsScanned
			})
			if want := int64(4*7 + 12*otherRows); rowsScanned != want {
				t.Fatalf("%v: scanned %d rows, want %d", mode, rowsScanned, want)
			}
			t.Logf("%v: %d rows scanned, %v allocations", mode, rowsScanned, n)
			if i == 0 {
				base = n
			}
			if math.Abs(n-base) > 4 || n > maxExecuteAllocs {
				t.Errorf("%v: %v allocations at %d rows per non-matching table, %v at 60; bound %d",
					mode, n, otherRows, base, maxExecuteAllocs)
			}
		}
	}
}

// measureAllocs returns the mean allocation count and bytes of one call
// of f, after a call that lets pooled buffers grow to size.
func measureAllocs(f func()) (count, bytes float64) {
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestExecuteAllocsBounded: what Execute allocates is what it returns —
// the page, its explanations, the stats — plus per-cluster bookkeeping in
// fold. Four times the candidate pairs (64 tables for 16) and four times
// the hits (28 matching rows a table for 7) leave the clusters, the page
// and therefore the allocation count and bytes of a request where they
// were, in every mode, with and without explanations: candidate pairs,
// hit log, hit lists and match sets all live in the pooled arena. The
// tolerance is the race detector's (a few objects a run) plus, with
// explanations, the bytes of the five answers' sources, of which a
// cluster with four times the hits shows more (up to MaxExplainSources
// each, in one allocation whatever their number).
func TestExecuteAllocsBounded(t *testing.T) {
	const pageSize = 5
	type size struct{ matchTables, matchRows, otherTables int }
	base := size{4, 7, 12}
	for _, mode := range []Mode{TypeRel, Type, Baseline} {
		for _, explain := range []bool{false, true} {
			var count0, bytes0 float64
			for i, sz := range []size{base, {4, 7, 60}, {4, 28, 12}, {16, 28, 48}} {
				e, q := allocsFixtureSized(t, sz.matchTables, sz.matchRows, sz.otherTables, 60)
				req := Request{Query: q, Mode: mode, PageSize: pageSize, Explain: explain}
				var st ExecStats
				count, bytes := measureAllocs(func() {
					res, err := e.Execute(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					st = *res.Stats
				})
				if int(st.CandidatePairs) != sz.matchTables+sz.otherTables || st.AnswersBeforeTopK != 15 {
					t.Fatalf("%v %+v: %d pairs, %d answers; want %d and 15", mode, sz, st.CandidatePairs, st.AnswersBeforeTopK, sz.matchTables+sz.otherTables)
				}
				t.Logf("%v explain=%v %+v: %.0f allocations, %.0f bytes", mode, explain, sz, count, bytes)
				if i == 0 {
					count0, bytes0 = count, bytes
					continue
				}
				moreCount, moreBytes := 4.0, 512.0
				if explain {
					moreBytes += pageSize * MaxExplainSources * 32
				}
				if count > count0+moreCount || bytes > bytes0+moreBytes {
					t.Errorf("%v explain=%v %+v: %.0f allocations and %.0f bytes, %.0f and %.0f at %+v: a request allocates by its pairs or hits",
						mode, explain, sz, count, bytes, count0, bytes0, base)
				}
			}
		}
	}
}

// TestExecutePartialAllocsOneHitArray: what ExecutePartial allocates is
// what its caller receives — the groups, one cluster slice a group, the
// text clusters' variant lists, the stats — and one array holding every
// hit: four times the hits cost the same number of objects, and 24 bytes
// more per hit (one PartialHit), give or take the allocator's size classes.
func TestExecutePartialAllocsOneHitArray(t *testing.T) {
	for _, mode := range []Mode{TypeRel, Type, Baseline} {
		var count0, bytes0 float64
		var hits0 int
		for i, matchRows := range []int{7, 28} {
			e, q := allocsFixtureSized(t, 4, matchRows, 12, 60)
			hits := 0
			count, bytes := measureAllocs(func() {
				groups, _, err := e.ExecutePartial(context.Background(), Request{Query: q, Mode: mode}, 0)
				if err != nil {
					t.Fatal(err)
				}
				hits = 0
				for _, g := range groups {
					for _, cp := range g.Clusters {
						hits += len(cp.Hits)
					}
				}
			})
			if hits != 4*matchRows {
				t.Fatalf("%v: %d hits, want %d", mode, hits, 4*matchRows)
			}
			t.Logf("%v: %d hits, %.0f allocations, %.0f bytes", mode, hits, count, bytes)
			if i == 0 {
				count0, bytes0, hits0 = count, bytes, hits
				continue
			}
			// 15 clusters, each at most its identity and a variant list.
			if count > count0+4 || count > 2*15+12 {
				t.Errorf("%v: %.0f allocations at %d hits, %.0f at %d: objects grow with hits", mode, count, hits, count0, hits0)
			}
			if more, want := bytes-bytes0, float64(24*(hits-hits0)); math.Abs(more-want) > 512 {
				t.Errorf("%v: %.0f more bytes for %d more hits, want %.0f: not exactly one hit array", mode, more, hits-hits0, want)
			}
		}
	}
}
