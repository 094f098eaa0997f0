package segment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/searchidx"
	"repro/internal/table"
)

// fixture is a hand-built world: two relations over three types (with a
// subtype), entities for annotated cells, and deliberately shared
// surface forms so answer clusters span tables and segments.
type fixture struct {
	cat      *catalog.Catalog
	film     catalog.TypeID
	action   catalog.TypeID
	director catalog.TypeID
	directed catalog.RelationID
	produced catalog.RelationID
	films    []catalog.EntityID
	dirs     []catalog.EntityID
	nextTab  int
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	f := &fixture{}
	c := catalog.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	var err error
	f.film, err = c.AddType("Film", "movie", "film")
	must(err)
	f.action, err = c.AddType("ActionFilm", "action")
	must(err)
	must(c.AddSubtype(f.action, f.film))
	f.director, err = c.AddType("Director", "director")
	must(err)
	f.directed, err = c.AddRelation("directed", f.film, f.director, catalog.ManyToOne)
	must(err)
	f.produced, err = c.AddRelation("produced", f.film, f.director, catalog.ManyToMany)
	must(err)
	for i := 0; i < 12; i++ {
		T := f.film
		if i%3 == 0 {
			T = f.action
		}
		e, err := c.AddEntity(fmt.Sprintf("Film %02d", i), nil, T)
		must(err)
		f.films = append(f.films, e)
	}
	for i := 0; i < 3; i++ {
		e, err := c.AddEntity(fmt.Sprintf("Director %d", i), nil, f.director)
		must(err)
		f.dirs = append(f.dirs, e)
	}
	must(c.Freeze())
	f.cat = c
	return f
}

// makeTable builds one two-column film/director table with n rows drawn
// from the fixture's entities. Every third row is left unannotated (with
// a shared surface form) so text clusters accumulate across tables; rel
// alternates so both relations have instances.
func (f *fixture) makeTable(rng *rand.Rand, annotated bool) (*table.Table, *core.Annotation) {
	id := fmt.Sprintf("tab-%03d", f.nextTab)
	f.nextTab++
	n := 3 + rng.Intn(4)
	tab := &table.Table{
		ID:      id,
		Context: "films and the directors who directed them",
		Headers: []string{"Film movie", "Director"},
	}
	rel := f.directed
	if rng.Intn(3) == 0 {
		rel = f.produced
	}
	subjT := f.film
	if rng.Intn(2) == 0 {
		subjT = f.action
	}
	ann := &core.Annotation{
		TableID:     id,
		ColumnTypes: []catalog.TypeID{subjT, f.director},
		Relations: []core.RelationAnnotation{{
			Col1: 0, Col2: 1, Relation: rel, Forward: true,
		}},
	}
	for r := 0; r < n; r++ {
		fe := f.films[rng.Intn(len(f.films))]
		de := f.dirs[rng.Intn(len(f.dirs))]
		fName := f.cat.EntityName(fe)
		dName := f.cat.EntityName(de)
		if r%3 == 2 {
			// Unannotated row with a shared surface form: becomes a
			// text-keyed cluster that spans tables and segments.
			tab.Cells = append(tab.Cells, []string{"Mystery Reel", dName})
			ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{catalog.None, de})
			continue
		}
		tab.Cells = append(tab.Cells, []string{fName, dName})
		ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{fe, de})
	}
	if !annotated {
		return tab, nil
	}
	return tab, ann
}

func (f *fixture) batch(rng *rand.Rand, n int) ([]*table.Table, []*core.Annotation) {
	tables := make([]*table.Table, n)
	anns := make([]*core.Annotation, n)
	for i := range tables {
		tables[i], anns[i] = f.makeTable(rng, rng.Intn(5) != 0)
	}
	return tables, anns
}

// requests covers all three modes with explanations and a small page
// size, probing both an in-catalog entity and a text-only probe.
func (f *fixture) requests() []search.Request {
	q := search.Query{
		Relation:     f.directed,
		T1:           f.film,
		T2:           f.director,
		E2:           f.dirs[1],
		RelationText: "directed",
		T1Text:       "film movie",
		T2Text:       "director",
		E2Text:       "Director 1",
	}
	qText := q
	qText.E2 = catalog.None
	qText.E2Text = "Director 2"
	var reqs []search.Request
	for _, mode := range []search.Mode{search.Baseline, search.Type, search.TypeRel} {
		reqs = append(reqs,
			search.Request{Query: q, Mode: mode, PageSize: 2, Explain: true},
			search.Request{Query: qText, Mode: mode, PageSize: 3, Explain: true},
		)
	}
	return reqs
}

// checkEquivalent is the subsystem's core property: executing over the
// segmented view is byte-identical — rankings, scores, totals, cursors,
// explanations — to executing over a from-scratch monolithic index built
// over the surviving tables in order.
func checkEquivalent(t *testing.T, f *fixture, v *View) {
	t.Helper()
	tables, anns := v.Flatten()
	ref := search.NewEngine(searchidx.New(f.cat, tables, anns))
	seg := search.NewEngineOver(v)
	ctx := context.Background()
	for ri, req := range f.requests() {
		for page := 0; page < 5; page++ {
			want, err1 := ref.Execute(ctx, req)
			got, err2 := seg.Execute(ctx, req)
			if err1 != nil || err2 != nil {
				t.Fatalf("req %d page %d: errs %v / %v", ri, page, err1, err2)
			}
			// Stats carry wall-clock timings (and the monolithic reference
			// reports a different segment count by construction); the
			// byte-identity contract covers the result, not the stats, so
			// compare with Stats stripped and check the representation-
			// independent scan counters separately.
			if got.Stats.RowsScanned != want.Stats.RowsScanned ||
				got.Stats.CandidatePairs != want.Stats.CandidatePairs ||
				got.Stats.PairsMatched != want.Stats.PairsMatched {
				t.Fatalf("req %d page %d: scan counters diverge: %+v vs %+v",
					ri, page, *got.Stats, *want.Stats)
			}
			got.Stats, want.Stats = nil, nil
			wantJSON, _ := json.Marshal(want)
			gotJSON, _ := json.Marshal(got)
			if string(wantJSON) != string(gotJSON) {
				t.Fatalf("req %d page %d (gen %d, %d segs, %d tombstones): results diverge\n monolithic: %s\n segmented:  %s",
					ri, page, v.Generation(), v.Segments(), v.Tombstones(), wantJSON, gotJSON)
			}
			if want.NextCursor == "" {
				break
			}
			req.Cursor = want.NextCursor
		}
	}
}

func newStore(t *testing.T, f *fixture, cfg Config) *Store {
	t.Helper()
	s, err := New(f.cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestScriptedInterleavingEquivalence walks a fixed add/remove/compact
// script, checking the rebuild-equivalence property after every step.
func TestScriptedInterleavingEquivalence(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(7))
	// MaxDeadFraction 0.01: any tombstoned table makes its segment
	// eligible for rewrite, so a full Compact drains every tombstone.
	s := newStore(t, f, Config{Policy: CompactionPolicy{MergeFactor: 2, TierBase: 4, MaxDeadFraction: 0.01}})
	ctx := context.Background()

	add := func(n int) *View {
		tabs, anns := f.batch(rng, n)
		v, err := s.Add(ctx, tabs, anns)
		if err != nil {
			t.Fatalf("add: %v", err)
		}
		return v
	}
	remove := func(ids ...string) *View {
		v, err := s.Remove(ids)
		if err != nil {
			t.Fatalf("remove %v: %v", ids, err)
		}
		return v
	}

	checkEquivalent(t, f, add(3))
	checkEquivalent(t, f, add(2))
	checkEquivalent(t, f, remove("tab-001"))
	checkEquivalent(t, f, add(4))
	v, err := s.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, f, v)
	checkEquivalent(t, f, remove("tab-000", "tab-004", "tab-007"))
	// Re-adding a removed ID must work: the tombstone names the old
	// physical copy, not the ID forever.
	reTab, reAnn := f.makeTable(rng, true)
	reTab.ID = "tab-004"
	if _, err := s.Add(ctx, []*table.Table{reTab}, []*core.Annotation{reAnn}); err != nil {
		t.Fatalf("re-add removed id: %v", err)
	}
	checkEquivalent(t, f, s.View())
	v, err = s.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Tombstones() != 0 {
		t.Fatalf("tombstones after full compaction = %d, want 0", v.Tombstones())
	}
	checkEquivalent(t, f, v)
}

// TestRandomInterleavingEquivalence fuzzes the mutation sequence with a
// seeded generator: adds, removes of random live tables, re-adds of
// removed IDs and compaction passes in random order, checking
// equivalence after every operation — and the directory against a model:
// Has of every ID ever used, and that removing a dead ID is refused and
// changes nothing.
func TestRandomInterleavingEquivalence(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(42))
	s := newStore(t, f, Config{Policy: CompactionPolicy{MergeFactor: 2, TierBase: 4, MaxDeadFraction: 0.3}})
	ctx := context.Background()

	live := map[string]bool{} // every ID ever added: whether it is live now
	liveIDs := func(v *View) []string {
		tables, _ := v.Flatten()
		ids := make([]string, len(tables))
		for i, tab := range tables {
			ids[i] = tab.ID
		}
		return ids
	}
	deadIDs := func() []string {
		var ids []string
		for id, ok := range live {
			if !ok {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		return ids
	}
	for step := 0; step < 40; step++ {
		v := s.View()
		var err error
		switch op := rng.Intn(5); {
		case op == 4 && len(deadIDs()) > 0: // re-add 1-2 removed IDs
			dead := deadIDs()
			rng.Shuffle(len(dead), func(i, j int) { dead[i], dead[j] = dead[j], dead[i] })
			tabs, anns := f.batch(rng, min(len(dead), 1+rng.Intn(2)))
			for i, tab := range tabs {
				tab.ID = dead[i]
				if anns[i] != nil {
					anns[i].TableID = dead[i]
				}
			}
			if v, err = s.Add(ctx, tabs, anns); err == nil {
				for _, tab := range tabs {
					live[tab.ID] = true
				}
			}
		case op <= 1 || op == 4 || v.Tables() < 2: // add
			tabs, anns := f.batch(rng, 1+rng.Intn(3))
			if v, err = s.Add(ctx, tabs, anns); err == nil {
				for _, tab := range tabs {
					live[tab.ID] = true
				}
			}
		case op == 2: // remove 1-2 random live tables
			ids := liveIDs(v)
			k := 1 + rng.Intn(2)
			if k > len(ids) {
				k = len(ids)
			}
			perm := rng.Perm(len(ids))
			pick := make([]string, k)
			for i := 0; i < k; i++ {
				pick[i] = ids[perm[i]]
			}
			if v, err = s.Remove(pick); err == nil {
				for _, id := range pick {
					live[id] = false
				}
			}
		default:
			v, err = s.Compact(ctx)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for id, want := range live {
			if got := v.Has(id); got != want {
				t.Fatalf("step %d: Has(%q) = %v, want %v", step, id, got, want)
			}
		}
		if v.Has("") {
			t.Fatalf("step %d: the empty ID is live", step)
		}
		if dead := deadIDs(); len(dead) > 0 {
			id := dead[rng.Intn(len(dead))]
			if _, err := s.Remove([]string{id}); !errors.Is(err, ErrUnknownTable) {
				t.Fatalf("step %d: Remove of dead %q: err = %v, want ErrUnknownTable", step, id, err)
			}
			if s.View() != v {
				t.Fatalf("step %d: a refused Remove of %q changed the view", step, id)
			}
		}
		checkEquivalent(t, f, v)
	}
}

// TestAddAllocationsIndependentOfCorpus: a mutation costs its batch and
// the manifest, not the corpus. Adding one fixed 2-table batch, and
// removing a table of the newest segment, take the same number of
// allocations — give or take a stray one — over a store seeded with one
// 64-table segment as over one seeded with one 4 096-table segment.
func TestAddAllocationsIndependentOfCorpus(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	const runs = 10
	// fixed returns n tables, the same every call but for their IDs.
	fixed := func(prefix string, n int) ([]*table.Table, []*core.Annotation) {
		tabs, anns := f.batch(rand.New(rand.NewSource(99)), n)
		for i, tab := range tabs {
			tab.ID = fmt.Sprintf("%s-%02d", prefix, i)
			if anns[i] != nil {
				anns[i].TableID = tab.ID
			}
		}
		return tabs, anns
	}
	measure := func(seeded int) (add, remove float64) {
		tabs, anns := f.batch(rand.New(rand.NewSource(23)), seeded)
		s := newStore(t, f, Config{Seeds: []Seed{{Index: searchidx.New(f.cat, tabs, anns)}}})
		batches := make([][]*table.Table, runs+1)
		batchAnns := make([][]*core.Annotation, runs+1)
		for k := range batches {
			batches[k], batchAnns[k] = fixed(fmt.Sprintf("add%02d", k), 2)
		}
		k := 0
		add = testing.AllocsPerRun(runs, func() {
			if _, err := s.Add(ctx, batches[k], batchAnns[k]); err != nil {
				t.Fatal(err)
			}
			k++
		})
		victims, vAnns := fixed("victim", runs+1)
		if _, err := s.Add(ctx, victims, vAnns); err != nil {
			t.Fatal(err)
		}
		k = 0
		remove = testing.AllocsPerRun(runs, func() {
			if _, err := s.Remove([]string{victims[k].ID}); err != nil {
				t.Fatal(err)
			}
			k++
		})
		return add, remove
	}
	addFew, removeFew := measure(64)
	addMany, removeMany := measure(4096)
	t.Logf("allocations per Add: %v over 64 tables, %v over 4096; per Remove: %v, %v", addFew, addMany, removeFew, removeMany)
	if addMany > addFew+2 {
		t.Errorf("Add over 4096 tables takes %v allocations, %v over 64: it costs the corpus", addMany, addFew)
	}
	if removeMany > removeFew+2 {
		t.Errorf("Remove over 4096 tables takes %v allocations, %v over 64: it costs the corpus", removeMany, removeFew)
	}
}

// TestViewImmutability: a view taken before a mutation answers from the
// old corpus, unchanged, while the store's current view moves on.
func TestViewImmutability(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(3))
	s := newStore(t, f, Config{})
	ctx := context.Background()
	tabs, anns := f.batch(rng, 3)
	old, err := s.Add(ctx, tabs, anns)
	if err != nil {
		t.Fatal(err)
	}
	oldTables, oldGen := old.Tables(), old.Generation()

	more, moreAnns := f.batch(rng, 2)
	if _, err := s.Add(ctx, more, moreAnns); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Remove([]string{tabs[0].ID}); err != nil {
		t.Fatal(err)
	}
	if old.Tables() != oldTables || old.Generation() != oldGen {
		t.Fatalf("pinned view changed: tables %d→%d gen %d→%d",
			oldTables, old.Tables(), oldGen, old.Generation())
	}
	if !old.Has(tabs[0].ID) {
		t.Fatal("pinned view lost a table removed later")
	}
	cur := s.View()
	if cur.Has(tabs[0].ID) {
		t.Fatal("current view still has removed table")
	}
	if cur.Generation() != oldGen+2 {
		t.Fatalf("generation = %d, want %d", cur.Generation(), oldGen+2)
	}
	// The pinned view still searches its old corpus.
	checkEquivalent(t, f, old)
}

func TestRemoveUnknownIsStructuredAndAtomic(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(5))
	s := newStore(t, f, Config{})
	ctx := context.Background()
	tabs, anns := f.batch(rng, 2)
	if _, err := s.Add(ctx, tabs, anns); err != nil {
		t.Fatal(err)
	}
	_, err := s.Remove([]string{tabs[0].ID, "nope", tabs[1].ID})
	if !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("err = %v, want ErrUnknownTable", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || len(be.Tables) != 1 || be.Tables[0].Index != 1 || be.Tables[0].ID != "nope" {
		t.Fatalf("batch error = %+v", err)
	}
	// All-or-nothing: the known tables must survive a partly-bad batch.
	if v := s.View(); v.Tables() != 2 || v.Tombstones() != 0 {
		t.Fatalf("corpus changed by failed remove: %+v", v.Stats())
	}
	// A repeated ID within one batch is unknown by the time it repeats.
	if _, err := s.Remove([]string{tabs[0].ID, tabs[0].ID}); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("duplicate-id remove err = %v, want ErrUnknownTable", err)
	}
}

func TestAddRejectsBadIDs(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(6))
	s := newStore(t, f, Config{})
	ctx := context.Background()
	tabs, anns := f.batch(rng, 2)
	if _, err := s.Add(ctx, tabs, anns); err != nil {
		t.Fatal(err)
	}
	dup, dupAnn := f.makeTable(rng, true)
	dup.ID = tabs[0].ID
	if _, err := s.Add(ctx, []*table.Table{dup}, []*core.Annotation{dupAnn}); !errors.Is(err, ErrDuplicateTable) {
		t.Fatalf("duplicate add err = %v, want ErrDuplicateTable", err)
	}
	anon, anonAnn := f.makeTable(rng, true)
	anon.ID = ""
	if _, err := s.Add(ctx, []*table.Table{anon}, []*core.Annotation{anonAnn}); !errors.Is(err, ErrMissingTableID) {
		t.Fatalf("missing-id add err = %v, want ErrMissingTableID", err)
	}
	// Two copies of one new ID within a single batch collide too.
	a, aAnn := f.makeTable(rng, true)
	b, bAnn := f.makeTable(rng, true)
	b.ID = a.ID
	if _, err := s.Add(ctx, []*table.Table{a, b}, []*core.Annotation{aAnn, bAnn}); !errors.Is(err, ErrDuplicateTable) {
		t.Fatalf("in-batch duplicate err = %v, want ErrDuplicateTable", err)
	}
	if v := s.View(); v.Tables() != 2 {
		t.Fatalf("corpus changed by failed adds: %+v", v.Stats())
	}
}

func TestCompactionMergesAndReclaims(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(9))
	s := newStore(t, f, Config{Policy: CompactionPolicy{MergeFactor: 3, TierBase: 8, MaxDeadFraction: 0.2}})
	ctx := context.Background()
	var firstBatch []*table.Table
	for i := 0; i < 4; i++ {
		tabs, anns := f.batch(rng, 2)
		if i == 0 {
			firstBatch = tabs
		}
		if _, err := s.Add(ctx, tabs, anns); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.View().Segments(); got != 4 {
		t.Fatalf("segments before compaction = %d, want 4", got)
	}
	v, err := s.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Segments() != 1 {
		t.Fatalf("segments after compaction = %d, want 1 (adjacent same-tier run merges)", v.Segments())
	}
	checkEquivalent(t, f, v)

	// Tombstone-heavy rewrite: removing both tables of the old first
	// batch leaves tombstones that a compaction pass must reclaim.
	if _, err := s.Remove([]string{firstBatch[0].ID, firstBatch[1].ID}); err != nil {
		t.Fatal(err)
	}
	v, err = s.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Tombstones() != 0 {
		t.Fatalf("tombstones after compaction = %d, want 0", v.Tombstones())
	}
	checkEquivalent(t, f, v)
}

func TestFullyDeadSegmentDroppedWithoutRebuild(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(11))
	// MergeFactor high enough that no merging happens; only the drop
	// path can change the manifest.
	s := newStore(t, f, Config{Policy: CompactionPolicy{MergeFactor: 99, MaxDeadFraction: 2}})
	ctx := context.Background()
	t1, a1 := f.batch(rng, 1)
	t2, a2 := f.batch(rng, 1)
	if _, err := s.Add(ctx, t1, a1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(ctx, t2, a2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Remove([]string{t1[0].ID}); err != nil {
		t.Fatal(err)
	}
	next := s.NextSegID()
	v, err := s.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Segments() != 1 || v.Tombstones() != 0 {
		t.Fatalf("after drop: %+v", v.Stats())
	}
	if got := s.NextSegID(); got != next {
		t.Fatalf("drop path consumed a segment id: %d → %d", next, got)
	}
	checkEquivalent(t, f, v)
}

func TestCompactionPolicyTiers(t *testing.T) {
	p := CompactionPolicy{TierBase: 8}.withDefaults()
	for _, tc := range []struct{ live, tier int }{
		{1, 0}, {8, 0}, {9, 1}, {64, 1}, {65, 2}, {512, 2}, {513, 3},
	} {
		if got := p.tier(tc.live); got != tc.tier {
			t.Errorf("tier(%d) = %d, want %d", tc.live, got, tc.tier)
		}
	}
}

// TestAutoCompactor: with AutoCompact on, mutations alone eventually
// shrink the manifest — no explicit Compact call.
func TestAutoCompactor(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(13))
	s := newStore(t, f, Config{AutoCompact: true, Policy: CompactionPolicy{MergeFactor: 2, TierBase: 4}})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		tabs, anns := f.batch(rng, 1)
		if _, err := s.Add(ctx, tabs, anns); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.View().Segments() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never merged: %+v", s.View().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkEquivalent(t, f, s.View())
	s.Close()
	// Close is idempotent and the store stays readable.
	s.Close()
	if s.View().Tables() == 0 {
		t.Fatal("view lost after Close")
	}
}

// TestSeedRestore: a store rebuilt from another store's manifests serves
// the same corpus, and the restored tombstones stay effective.
func TestSeedRestore(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(17))
	s := newStore(t, f, Config{})
	ctx := context.Background()
	tabs, anns := f.batch(rng, 3)
	if _, err := s.Add(ctx, tabs, anns); err != nil {
		t.Fatal(err)
	}
	more, moreAnns := f.batch(rng, 2)
	if _, err := s.Add(ctx, more, moreAnns); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Remove([]string{tabs[1].ID}); err != nil {
		t.Fatal(err)
	}
	// The removed ID comes back in a third segment: tombstoned in the
	// first, live in the last.
	again, againAnns := f.batch(rng, 1)
	again[0].ID, againAnns[0] = tabs[1].ID, nil
	if _, err := s.Add(ctx, again, againAnns); err != nil {
		t.Fatal(err)
	}
	v := s.View()

	seeds := make([]Seed, 0, v.Segments())
	for i := 0; i < v.Segments(); i++ {
		// A seed is the segment as a snapshot restores it: decoded from
		// its persistent form.
		ix, err := searchidx.DecodeSegment(ctx, f.cat, v.SegmentAt(i).Index().AppendTo(nil))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, Seed{ID: v.SegmentAt(i).ID(), Index: ix, Dead: v.DeadAt(i)})
	}
	restored, err := New(f.cat, Config{Seeds: seeds, Generation: v.Generation()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	rv := restored.View()
	if rv.Generation() != v.Generation() || rv.Tables() != v.Tables() ||
		rv.Segments() != v.Segments() || rv.Tombstones() != v.Tombstones() {
		t.Fatalf("restored stats %+v != original %+v", rv.Stats(), v.Stats())
	}
	if restored.NextSegID() <= v.SegmentAt(v.Segments()-1).ID() {
		t.Fatalf("restored next id %d not past max seed id", restored.NextSegID())
	}
	checkEquivalent(t, f, rv)
	if !rv.Has(tabs[1].ID) {
		t.Fatalf("restored view lost %q, live in its last segment", tabs[1].ID)
	}
	// The restored store keeps mutating: removing still-live tables —
	// one of them the ID whose first copy is tombstoned — and re-checking
	// equivalence exercises the restored tombstones.
	if _, err := restored.Remove([]string{more[0].ID, tabs[1].ID}); err != nil {
		t.Fatal(err)
	}
	if rv := restored.View(); rv.Has(tabs[1].ID) || rv.Tables() != v.Tables()-2 {
		t.Fatalf("after removing %q: Has = %v, %d tables, want false and %d", tabs[1].ID, rv.Has(tabs[1].ID), rv.Tables(), v.Tables()-2)
	}
	checkEquivalent(t, f, restored.View())
}

// TestConcurrentSearchDuringMutation hammers reads while mutating; run
// under -race in CI. Each search runs against whatever view it grabbed
// and must be internally consistent (Total stable across its own pages).
func TestConcurrentSearchDuringMutation(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(19))
	s := newStore(t, f, Config{AutoCompact: true, Policy: CompactionPolicy{MergeFactor: 2, TierBase: 4}})
	ctx := context.Background()
	tabs, anns := f.batch(rng, 3)
	if _, err := s.Add(ctx, tabs, anns); err != nil {
		t.Fatal(err)
	}
	req := f.requests()[5] // TypeRel, text probe
	done := make(chan struct{})
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			for {
				select {
				case <-done:
					errc <- nil
					return
				default:
				}
				v := s.View()
				eng := search.NewEngineOver(v)
				r := req
				var total = -1
				for {
					res, err := eng.Execute(ctx, r)
					if err != nil {
						errc <- fmt.Errorf("execute: %w", err)
						return
					}
					if total == -1 {
						total = res.Total
					} else if res.Total != total {
						errc <- fmt.Errorf("total drifted within one view: %d → %d", total, res.Total)
						return
					}
					if res.NextCursor == "" {
						break
					}
					r.Cursor = res.NextCursor
				}
			}
		}()
	}
	mrng := rand.New(rand.NewSource(23))
	for i := 0; i < 20; i++ {
		tabs, anns := f.batch(mrng, 1)
		if _, err := s.Add(ctx, tabs, anns); err != nil {
			t.Fatal(err)
		}
		ids, _ := s.View().Flatten()
		if len(ids) > 4 {
			if _, err := s.Remove([]string{ids[mrng.Intn(len(ids))].ID}); err != nil && !errors.Is(err, ErrUnknownTable) {
				t.Fatal(err)
			}
		}
	}
	close(done)
	for w := 0; w < 4; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreCopiesWhatItKeeps: a segment holds its own copy of the batch
// it was built from. Overwriting every cell, header, ID and context of
// the tables handed to Add, and every entity, type and relation of the
// annotations, changes neither what the view materialises nor what its
// segments dump — before a compaction or after one.
func TestStoreCopiesWhatItKeeps(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(23))
	s := newStore(t, f, Config{Policy: CompactionPolicy{MergeFactor: 2}})
	ctx := context.Background()
	var wantTables []*table.Table
	var wantAnns []*core.Annotation
	for i := 0; i < 2; i++ {
		tabs, anns := f.batch(rng, 4)
		for j, tab := range tabs {
			wantTables = append(wantTables, tab.Clone())
			var a *core.Annotation
			if anns[j] != nil {
				a = &core.Annotation{TableID: anns[j].TableID, Diag: anns[j].Diag,
					ColumnTypes: append([]catalog.TypeID{}, anns[j].ColumnTypes...), Relations: append([]core.RelationAnnotation(nil), anns[j].Relations...)}
				for _, row := range anns[j].CellEntities {
					a.CellEntities = append(a.CellEntities, append([]catalog.EntityID{}, row...))
				}
			}
			wantAnns = append(wantAnns, a)
		}
		if _, err := s.Add(ctx, tabs, anns); err != nil {
			t.Fatal(err)
		}
		for j, tab := range tabs {
			tab.ID, tab.Context = "scribbled", "scribbled"
			for c := range tab.Headers {
				tab.Headers[c] = "scribbled"
			}
			for _, row := range tab.Cells {
				for c := range row {
					row[c] = "scribbled"
				}
			}
			if a := anns[j]; a != nil {
				a.TableID = "scribbled"
				for c := range a.ColumnTypes {
					a.ColumnTypes[c] = catalog.None
				}
				for _, row := range a.CellEntities {
					for c := range row {
						row[c] = f.dirs[0]
					}
				}
				for r := range a.Relations {
					a.Relations[r] = core.RelationAnnotation{Col1: 1, Col2: 0, Relation: f.produced}
				}
			}
		}
	}
	check := func(when string, v *View) {
		t.Helper()
		tables, anns := v.Flatten()
		if len(tables) != len(wantTables) {
			t.Fatalf("%s: %d tables, want %d", when, len(tables), len(wantTables))
		}
		for i := range tables {
			if !reflect.DeepEqual(tables[i], wantTables[i]) {
				t.Errorf("%s: table %d = %+v, want %+v", when, i, tables[i], wantTables[i])
			}
			if !reflect.DeepEqual(anns[i], wantAnns[i]) {
				t.Errorf("%s: annotation %d = %+v, want %+v", when, i, anns[i], wantAnns[i])
			}
		}
	}
	check("after Add", s.View())
	v, err := s.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Segments() != 1 {
		t.Fatalf("compaction left %d segments, want the two merged into 1", v.Segments())
	}
	check("after Compact", v)
}

// TestViewResidentBytes: a view's resident bytes are its segments' own
// counts plus its table numbering — a global number per table held, and
// nothing per live table.
func TestViewResidentBytes(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(5))
	s := newStore(t, f, Config{})
	ctx := context.Background()
	var first string
	for i := 0; i < 3; i++ {
		tabs, anns := f.batch(rng, 3)
		if first == "" {
			first = tabs[0].ID
		}
		if _, err := s.Add(ctx, tabs, anns); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.Remove([]string{first})
	if err != nil {
		t.Fatal(err)
	}
	var want searchidx.ResidentBytes
	for i := 0; i < v.Segments(); i++ {
		want.Add(v.SegmentAt(i).Index().ResidentBytes())
	}
	want.Tables += 9 * 4
	if got := v.ResidentBytes(); got != want || want.Cells == 0 {
		t.Errorf("ResidentBytes = %+v, want %+v", got, want)
	}
}
