package search

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/searchidx"
	"repro/internal/segment"
	"repro/internal/table"
)

// partialFixture builds a corpus shaped to stress every distributed-merge
// path and returns the raw tables and annotations so callers can slice
// contiguous shard subsets. Two subject types (Film, Novel ⊆ Work)
// alternate table-by-table, so Type mode produces multiple partial
// groups that interleave across shards; answers mix one entity cluster
// with several text clusters whose spelling variants (and therefore the
// dominant surface form) only settle across shard boundaries; the top
// answers carry more sources than MaxExplainSources, so explanation
// truncation crosses shards too.
func partialFixture(t testing.TB, nTables, rowsPerTable int) (*catalog.Catalog, []*table.Table, []*core.Annotation, Query) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	c := catalog.New()
	work, err := c.AddType("Work", "work")
	must(err)
	film, err := c.AddType("Film", "movie")
	must(err)
	novel, err := c.AddType("Novel", "book")
	must(err)
	director, err := c.AddType("Director", "director")
	must(err)
	must(c.AddSubtype(film, work))
	must(c.AddSubtype(novel, work))
	directed, err := c.AddRelation("directed", work, director, catalog.ManyToOne)
	must(err)
	d1, err := c.AddEntity("Solo Auteur", nil, director)
	must(err)
	saga, err := c.AddEntity("Epic Saga", nil, film)
	must(err)
	must(c.Freeze())
	spell := func(i int) string {
		base := fmt.Sprintf("Answer Cluster %d", i%7)
		switch {
		case i%4 == 0:
			return "  " + base + " "
		case i%5 == 0:
			return strings.ToUpper(base)
		}
		return base
	}
	var tables []*table.Table
	var anns []*core.Annotation
	for ti := 0; ti < nTables; ti++ {
		subjType, header := film, "Film"
		if ti%2 == 1 {
			subjType, header = novel, "Novel"
		}
		tab := &table.Table{
			ID:      fmt.Sprintf("t%d", ti),
			Context: "works directed by people",
			Headers: []string{header, "Director"},
		}
		ann := &core.Annotation{
			ColumnTypes: []catalog.TypeID{subjType, director},
			Relations: []core.RelationAnnotation{{
				Col1: 0, Col2: 1, Relation: directed, Forward: true,
			}},
		}
		for r := 0; r < rowsPerTable; r++ {
			i := ti*rowsPerTable + r
			cellText := spell(i)
			cellEnt := catalog.EntityID(catalog.None)
			if i%11 == 3 {
				cellText, cellEnt = "Epic Saga", saga
			}
			tab.Cells = append(tab.Cells, []string{cellText, "Solo Auteur"})
			ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{cellEnt, d1})
		}
		tables = append(tables, tab)
		anns = append(anns, ann)
	}
	return c, tables, anns, Query{
		Relation: directed, T1: work, T2: director, E2: d1,
		RelationText: "directed", T1Text: "Film movie", T2Text: "Director person",
		E2Text: "Solo Auteur",
	}
}

// shardEngines builds one engine per contiguous table range. cuts are
// the exclusive end indexes of each shard (the last must equal
// len(tables)); the returned offsets are each shard's global table
// offset, exactly what a real shard derives from the snapshot manifest.
func shardEngines(t testing.TB, c *catalog.Catalog, tables []*table.Table, anns []*core.Annotation, cuts []int) (engines []*Engine, offsets []int) {
	t.Helper()
	lo := 0
	for _, hi := range cuts {
		engines = append(engines, NewEngineOver(searchidx.New(c, tables[lo:hi], anns[lo:hi])))
		offsets = append(offsets, lo)
		lo = hi
	}
	if lo != len(tables) {
		t.Fatalf("cuts %v do not cover %d tables", cuts, len(tables))
	}
	return engines, offsets
}

// collectPartials runs ExecutePartial on every shard engine in shard
// order — the scatter half of the distributed execution — returning
// each shard's partial groups and execution stats.
func collectPartials(t testing.TB, engines []*Engine, offsets []int, req Request) ([][]PartialGroup, []ExecStats) {
	t.Helper()
	out := make([][]PartialGroup, len(engines))
	stats := make([]ExecStats, len(engines))
	for i, eng := range engines {
		groups, st, err := eng.ExecutePartial(context.Background(), req, offsets[i])
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if st == nil {
			t.Fatalf("shard %d: nil stats", i)
		}
		out[i] = groups
		stats[i] = *st
	}
	return out, stats
}

// TestMergePartialsMatchesExecute is the subsystem's tentpole property
// at the engine level: for 1/2/3-way shard splits (even, degenerate
// single-table first shard, and an empty first shard), every mode ×
// page size × cursor chain × explanation merged from per-shard partials
// is identical — scores, order, totals, cursors, dominant surface
// forms, provenance and truncation counts — to a single engine over the
// whole corpus.
func TestMergePartialsMatchesExecute(t *testing.T) {
	c, tables, anns, q := partialFixture(t, 24, 7)
	full := NewEngineOver(searchidx.New(c, tables, anns))
	ctx := context.Background()
	n := len(tables)
	splits := [][]int{{n}, {12, n}, {8, 16, n}, {1, n}, {0, n}}
	sawTruncation := false
	for _, cuts := range splits {
		engines, offsets := shardEngines(t, c, tables, anns, cuts)
		for _, mode := range []Mode{Baseline, Type, TypeRel} {
			partials, shardStats := collectPartials(t, engines, offsets, Request{Query: q, Mode: mode})
			for _, pageSize := range []int{0, 1, 4, 100} {
				cursor := ""
				for page := 0; page < 30; page++ {
					req := Request{Query: q, Mode: mode, PageSize: pageSize, Cursor: cursor, Explain: true}
					want, err := full.Execute(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					got, err := MergePartials(partials, shardStats, pageSize, cursor, true)
					if err != nil {
						t.Fatal(err)
					}
					// Stats carry wall-clock timings (and shard-count-dependent
					// segment totals), so the byte-identity contract is asserted
					// with Stats stripped; the deterministic counters are compared
					// separately below.
					gotStats, wantStats := got.Stats, want.Stats
					got.Stats, want.Stats = nil, nil
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("cuts=%v %v pageSize=%d page=%d:\n got  %+v\n want %+v",
							cuts, mode, pageSize, page, got, want)
					}
					if gotStats == nil || wantStats == nil {
						t.Fatalf("cuts=%v %v: missing stats (merged %v, full %v)",
							cuts, mode, gotStats, wantStats)
					}
					if gotStats.CandidatePairs != wantStats.CandidatePairs ||
						gotStats.PairsMatched != wantStats.PairsMatched ||
						gotStats.RowsScanned != wantStats.RowsScanned ||
						gotStats.AnswersBeforeTopK != wantStats.AnswersBeforeTopK {
						t.Fatalf("cuts=%v %v pageSize=%d page=%d: merged counters diverge from single-node:\n got  %+v\n want %+v",
							cuts, mode, pageSize, page, *gotStats, *wantStats)
					}
					for _, a := range want.Answers {
						if a.Explanation != nil && a.Explanation.Truncated > 0 {
							sawTruncation = true
						}
					}
					cursor = want.NextCursor
					if cursor == "" {
						break
					}
				}
			}
		}
	}
	if !sawTruncation {
		t.Fatal("fixture never exceeded MaxExplainSources; truncation path untested")
	}
}

// TestExecutePartialTypeGroups pins the grouping contract: Type mode
// exports one group per matching subject type with keys strictly
// ascending (the serial type-major order), while Baseline and TypeRel
// export at most one group with key 0.
func TestExecutePartialTypeGroups(t *testing.T) {
	c, tables, anns, q := partialFixture(t, 12, 5)
	eng := NewEngineOver(searchidx.New(c, tables, anns))
	ctx := context.Background()

	groups, _, err := eng.ExecutePartial(ctx, Request{Query: q, Mode: Type}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 2 {
		t.Fatalf("Type mode exported %d groups, want >= 2 (one per subject type)", len(groups))
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].Key <= groups[i-1].Key {
			t.Fatalf("group keys not strictly ascending: %d then %d", groups[i-1].Key, groups[i].Key)
		}
	}
	for _, mode := range []Mode{Baseline, TypeRel} {
		groups, _, err := eng.ExecutePartial(ctx, Request{Query: q, Mode: mode}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 1 || groups[0].Key != 0 {
			t.Fatalf("%v exported %d groups (first key %d), want one group with key 0",
				mode, len(groups), groups[0].Key)
		}
	}
}

// TestExecutePartialDeterministic pins the wire-determinism contract:
// repeated calls, and a second engine over the same corpus, export
// identical partial groups (cluster order, hit order, variant order) —
// over a monolithic index and over a five-segment view with tombstones
// that leave the Novel subject type one candidate pair, so a Type plan
// has a one-pair replay group beside a many-pair one.
func TestExecutePartialDeterministic(t *testing.T) {
	c, tables, anns, q := partialFixture(t, 16, 6)
	ctx := context.Background()

	vc, vtables, vanns, vq := partialFixture(t, 24, 6)
	store, err := segment.New(vc, segment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	lo := 0
	for _, n := range []int{7, 6, 5, 4, 2} {
		if _, err := store.Add(ctx, vtables[lo:lo+n], vanns[lo:lo+n]); err != nil {
			t.Fatal(err)
		}
		lo += n
	}
	var dead []string
	for ti := 1; ti < len(vtables); ti += 2 { // the Novel tables, all but t9
		if ti != 9 {
			dead = append(dead, vtables[ti].ID)
		}
	}
	view, err := store.Remove(dead)
	if err != nil {
		t.Fatal(err)
	}
	if view.Segments() != 5 || view.Tombstones() != 11 {
		t.Fatalf("view has %d segments, %d tombstones; want 5 and 11", view.Segments(), view.Tombstones())
	}

	for _, tc := range []struct {
		name   string
		corpus Corpus
		q      Query
	}{
		{"monolithic", searchidx.New(c, tables, anns), q},
		{"segmented", view, vq},
	} {
		first, again := NewEngineOver(tc.corpus), NewEngineOver(tc.corpus)
		for _, mode := range []Mode{Baseline, Type, TypeRel} {
			req := Request{Query: tc.q, Mode: mode}
			want, _, err := first.ExecutePartial(ctx, req, 5)
			if err != nil {
				t.Fatal(err)
			}
			if tc.corpus == Corpus(view) && mode == Type {
				a := takeArena()
				p := again.plan(ctx, req, again.newStats(), a)
				if len(p.groups) != 2 || p.groups[1].start != len(p.pairs)-1 || len(p.pairs) < 4 {
					t.Fatalf("Type plan has groups %+v over %d pairs; want a many-pair group then a one-pair group",
						p.groups, len(p.pairs))
				}
				a.release()
			}
			for i := 0; i < 3; i++ {
				got, _, err := again.ExecutePartial(ctx, req, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v: repeated partials diverge:\n got  %+v\n want %+v", tc.name, mode, got, want)
				}
			}
		}
	}
}

// TestExecutePartialAppliesOffset checks that the table offset shifts
// every exported hit into the cluster-global numbering.
func TestExecutePartialAppliesOffset(t *testing.T) {
	c, tables, anns, q := partialFixture(t, 4, 3)
	eng := NewEngineOver(searchidx.New(c, tables, anns))
	base, _, err := eng.ExecutePartial(context.Background(), Request{Query: q, Mode: TypeRel}, 0)
	if err != nil {
		t.Fatal(err)
	}
	shifted, _, err := eng.ExecutePartial(context.Background(), Request{Query: q, Mode: TypeRel}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range base {
		for ci := range base[gi].Clusters {
			for hi, h := range base[gi].Clusters[ci].Hits {
				sh := shifted[gi].Clusters[ci].Hits[hi]
				if sh.Table != h.Table+100 || sh.Row != h.Row || sh.Col != h.Col || sh.Evidence != h.Evidence {
					t.Fatalf("hit %d/%d/%d: offset not applied: %+v vs %+v", gi, ci, hi, sh, h)
				}
			}
		}
	}
}

// TestExecutePartialValidates checks that a malformed request is
// rejected exactly as Execute rejects it, before any scan runs.
func TestExecutePartialValidates(t *testing.T) {
	c, tables, anns, q := partialFixture(t, 2, 2)
	eng := NewEngineOver(searchidx.New(c, tables, anns))
	_, _, err := eng.ExecutePartial(context.Background(), Request{Query: q, Mode: Mode(99)}, 0)
	if !errors.Is(err, ErrInvalidMode) {
		t.Fatalf("err = %v, want ErrInvalidMode", err)
	}
}

// TestValidateCursor covers the router's pre-flight cursor check.
func TestValidateCursor(t *testing.T) {
	if err := ValidateCursor(""); err != nil {
		t.Fatalf("empty cursor: %v", err)
	}
	if err := ValidateCursor("!!not a cursor!!"); !errors.Is(err, ErrInvalidCursor) {
		t.Fatalf("garbage cursor: err = %v, want ErrInvalidCursor", err)
	}
	for name, cursor := range forgedCursors() {
		if err := ValidateCursor(cursor); !errors.Is(err, ErrInvalidCursor) {
			t.Fatalf("%s: err = %v, want ErrInvalidCursor", name, err)
		}
	}
	// A cursor minted by a real execution must validate.
	c, tables, anns, q := partialFixture(t, 8, 4)
	res, err := NewEngineOver(searchidx.New(c, tables, anns)).
		Execute(context.Background(), Request{Query: q, Mode: TypeRel, PageSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NextCursor == "" {
		t.Fatal("fixture produced no next cursor")
	}
	if err := ValidateCursor(res.NextCursor); err != nil {
		t.Fatalf("real cursor rejected: %v", err)
	}
}

// TestMergePartialsBadInput pins the merge-time error contract: the
// same sentinel errors Execute reports, so the router maps them to the
// same HTTP statuses.
func TestMergePartialsBadInput(t *testing.T) {
	if _, err := MergePartials(nil, nil, -1, "", false); !errors.Is(err, ErrInvalidPageSize) {
		t.Fatalf("negative page size: err = %v, want ErrInvalidPageSize", err)
	}
	if _, err := MergePartials(nil, nil, 5, "garbage", false); !errors.Is(err, ErrInvalidCursor) {
		t.Fatalf("bad cursor: err = %v, want ErrInvalidCursor", err)
	}
	for name, cursor := range forgedCursors() {
		if _, err := MergePartials(nil, nil, 5, cursor, false); !errors.Is(err, ErrInvalidCursor) {
			t.Fatalf("%s: err = %v, want ErrInvalidCursor", name, err)
		}
	}
}

// TestMergePartialsEmpty checks the all-shards-empty degenerate case.
func TestMergePartialsEmpty(t *testing.T) {
	res, err := MergePartials([][]PartialGroup{nil, nil, nil}, nil, 5, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 0 || len(res.Answers) != 0 || res.NextCursor != "" {
		t.Fatalf("empty merge: %+v", res)
	}
}
