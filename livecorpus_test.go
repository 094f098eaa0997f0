// Tests of the live corpus surface: AddTables / RemoveTables /
// Compact / Close, the rebuild-equivalence acceptance property over a
// worldgen corpus, SearchAll's pinned-view guarantee under concurrent
// mutation, and the mutable snapshot round trip.
package webtable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	webtable "repro"
	"repro/internal/table"
	"repro/internal/worldgen"
)

// liveRequests is the query surface the equivalence tests compare over:
// every mode, explanations on, small pages so cursors are exercised.
func liveRequests(w *worldgen.World) []webtable.SearchRequest {
	workload := w.SearchWorkload([]string{"directed", "actedIn"}, 2, 11)
	var reqs []webtable.SearchRequest
	for _, wq := range workload {
		for _, mode := range []webtable.SearchMode{webtable.SearchBaseline, webtable.SearchType, webtable.SearchTypeRel} {
			req := w.Request(wq, mode, 3)
			req.Explain = true
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// checkSearchIdentical pages every request through both services and
// requires byte-identical results: rankings, scores, totals, cursors and
// explanations.
func checkSearchIdentical(t *testing.T, w *worldgen.World, got, want *webtable.Service, label string) {
	t.Helper()
	ctx := context.Background()
	for ri, req := range liveRequests(w) {
		for page := 0; page < 4; page++ {
			wantRes, err1 := want.Search(ctx, req)
			gotRes, err2 := got.Search(ctx, req)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: req %d page %d: errs %v / %v", label, ri, page, err1, err2)
			}
			// Stats carry wall-clock timings (and corpus-shape counters
			// that legitimately differ between a rebuilt reference and a
			// mutated corpus); byte-identity covers the result page, and
			// the scan counters are compared on their own.
			if gotRes.Stats.RowsScanned != wantRes.Stats.RowsScanned ||
				gotRes.Stats.CandidatePairs != wantRes.Stats.CandidatePairs ||
				gotRes.Stats.PairsMatched != wantRes.Stats.PairsMatched {
				t.Fatalf("%s: req %d page %d: scan counters diverge: %+v vs %+v",
					label, ri, page, *gotRes.Stats, *wantRes.Stats)
			}
			gotRes.Stats, wantRes.Stats = nil, nil
			wantJSON, _ := json.Marshal(wantRes)
			gotJSON, _ := json.Marshal(gotRes)
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("%s: req %d page %d: results diverge\n want: %s\n got:  %s",
					label, ri, page, wantJSON, gotJSON)
			}
			if wantRes.NextCursor == "" {
				break
			}
			req.Cursor = wantRes.NextCursor
		}
	}
}

// rebuildReference builds a from-scratch service over exactly the
// surviving tables, in live-corpus order — the acceptance criterion's
// ground truth.
func rebuildReference(t *testing.T, w *worldgen.World, surviving []*table.Table) *webtable.Service {
	t.Helper()
	ref, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.BuildIndex(context.Background(), surviving, webtable.WithMethod(webtable.MethodMajority)); err != nil {
		t.Fatalf("reference build: %v", err)
	}
	return ref
}

// TestLiveCorpusEquivalence is the tentpole acceptance test: after any
// interleaving of AddTables, RemoveTables and compaction over a worldgen
// corpus, Search results are identical to a from-scratch BuildIndex over
// the surviving tables.
func TestLiveCorpusEquivalence(t *testing.T) {
	w := testWorld(t)
	all := corpusTables(w, 14)
	ctx := context.Background()

	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4),
		webtable.WithoutAutoCompaction(),
		// MaxDeadFraction 0.01: any tombstone makes its segment eligible
		// for rewrite, so the final Compact drains them all.
		webtable.WithCompactionPolicy(webtable.CompactionPolicy{MergeFactor: 2, TierBase: 4, MaxDeadFraction: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// surviving mirrors what the live corpus must rank over: insertion
	// order, removals dropped in place.
	var surviving []*table.Table
	removeByID := func(id string) {
		for i, tab := range surviving {
			if tab.ID == id {
				surviving = append(surviving[:i], surviving[i+1:]...)
				return
			}
		}
		t.Fatalf("test bug: removing unknown id %s", id)
	}
	check := func(label string) {
		t.Helper()
		checkSearchIdentical(t, w, svc, rebuildReference(t, w, surviving), label)
	}

	add := func(batch []*table.Table) {
		t.Helper()
		if _, err := svc.AddTables(ctx, batch, webtable.WithMethod(webtable.MethodMajority)); err != nil {
			t.Fatalf("add: %v", err)
		}
		surviving = append(surviving, batch...)
	}
	remove := func(ids ...string) {
		t.Helper()
		if _, err := svc.RemoveTables(ctx, ids); err != nil {
			t.Fatalf("remove %v: %v", ids, err)
		}
		for _, id := range ids {
			removeByID(id)
		}
	}

	add(all[0:5]) // bootstrap purely through AddTables: no BuildIndex ever runs
	check("after first add")
	add(all[5:8])
	remove(all[2].ID, all[6].ID)
	check("after adds + removes")
	add(all[8:12])
	if _, err := svc.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	check("after compaction")
	remove(all[0].ID)
	add(all[12:14])
	// Re-add a removed table under its old ID.
	readd := *all[2]
	add([]*table.Table{&readd})
	check("after re-add")
	stats, err := svc.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tombstones != 0 {
		t.Fatalf("tombstones after aggressive compaction = %d, want 0", stats.Tombstones)
	}
	if stats.Tables != len(surviving) {
		t.Fatalf("live tables = %d, want %d", stats.Tables, len(surviving))
	}
	check("after final compaction")
}

// pinCorpus hand-builds tables whose director column repeats a small
// name pool, so a baseline query for one director deterministically
// matches many rows across many tables.
func pinCorpus(n, offset int) []*table.Table {
	tables := make([]*table.Table, n)
	for i := range tables {
		id := offset + i
		tables[i] = &table.Table{
			ID:      fmt.Sprintf("pin-%04d", id),
			Context: "a catalog of films and who directed them",
			Headers: []string{"Film", "Director"},
			Cells: [][]string{
				{fmt.Sprintf("Film %04d", id), fmt.Sprintf("Director %d", id%5)},
				{fmt.Sprintf("Film %04da", id), fmt.Sprintf("Director %d", (id+3)%5)},
			},
		}
	}
	return tables
}

// TestSearchAllPinnedAcrossMutation: an iteration started before a
// mutation streams the pre-mutation ranking to the end — Total, order
// and cursors cannot shift mid-stream (the satellite regression test).
func TestSearchAllPinnedAcrossMutation(t *testing.T) {
	ctx := context.Background()
	svc, err := webtable.NewService(webtable.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	corpus := pinCorpus(30, 0)
	if _, err := svc.BuildIndex(ctx, corpus[:20], webtable.WithoutAnnotations()); err != nil {
		t.Fatal(err)
	}

	req := webtable.SearchRequest{
		Query: webtable.SearchQuery{
			RelationText: "directed films",
			T1Text:       "Film",
			T2Text:       "Director",
			E2Text:       "Director 1",
		},
		Mode:     webtable.SearchBaseline,
		PageSize: 2,
	}
	// The pre-mutation ground truth: the full ranking in one page.
	full := req
	full.PageSize = 0
	wantRes, err := svc.Search(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	if wantRes.Total < 5 {
		t.Fatalf("fixture bug: Total = %d, want a multi-page ranking", wantRes.Total)
	}

	var streamed []webtable.SearchAnswer
	page := 0
	mutated := false
	for res, err := range svc.SearchAll(ctx, req) {
		if err != nil {
			t.Fatalf("page %d: %v", page, err)
		}
		if res.Total != wantRes.Total {
			t.Fatalf("page %d: Total drifted mid-stream: %d, want %d", page, res.Total, wantRes.Total)
		}
		streamed = append(streamed, res.Answers...)
		if !mutated {
			// Mutate between pages: ten more matching tables, then a
			// removal of one that contributed answers above.
			if _, err := svc.AddTables(ctx, corpus[20:], webtable.WithoutAnnotations()); err != nil {
				t.Fatalf("concurrent add: %v", err)
			}
			if _, err := svc.RemoveTables(ctx, []string{corpus[1].ID}); err != nil {
				t.Fatalf("concurrent remove: %v", err)
			}
			mutated = true
		}
		page++
	}
	if page < 3 {
		t.Fatalf("ranking fit in %d pages; mutation never landed mid-stream", page)
	}
	wantJSON, _ := json.Marshal(wantRes.Answers)
	gotJSON, _ := json.Marshal(streamed)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("streamed ranking != pinned pre-mutation ranking\n want: %s\n got:  %s", wantJSON, gotJSON)
	}
	// The mutations really did land: a fresh search sees the new corpus.
	stats, ok := svc.CorpusStats()
	if !ok || stats.Generation < 3 || stats.Tables != 29 {
		t.Fatalf("post-mutation stats = %+v, ok=%v", stats, ok)
	}
	afterRes, err := svc.Search(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	if afterRes.Total == wantRes.Total {
		t.Fatal("fixture bug: mutation did not change the full ranking")
	}
}

// TestRemoveTablesStructuredErrors: unknown IDs are a *CorpusError
// wrapping ErrUnknownTable (not silently ignored), removal is
// all-or-nothing, and mutation before any corpus exists is ErrNoIndex.
func TestRemoveTablesStructuredErrors(t *testing.T) {
	w := testWorld(t)
	all := corpusTables(w, 4)
	ctx := context.Background()
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if _, err := svc.RemoveTables(ctx, []string{"x"}); !errors.Is(err, webtable.ErrNoIndex) {
		t.Fatalf("remove before corpus: %v, want ErrNoIndex", err)
	}
	if _, err := svc.BuildIndex(ctx, all, webtable.WithMethod(webtable.MethodMajority)); err != nil {
		t.Fatal(err)
	}
	_, err = svc.RemoveTables(ctx, []string{all[1].ID, "no-such-table"})
	if !errors.Is(err, webtable.ErrUnknownTable) {
		t.Fatalf("err = %v, want ErrUnknownTable", err)
	}
	var ce *webtable.CorpusError
	if !errors.As(err, &ce) || len(ce.Failures) != 1 ||
		ce.Failures[0].TableID != "no-such-table" || ce.Failures[0].Index != 1 {
		t.Fatalf("corpus error shape = %+v", err)
	}
	if stats, _ := svc.CorpusStats(); stats.Tables != 4 || stats.Tombstones != 0 {
		t.Fatalf("failed remove mutated the corpus: %+v", stats)
	}

	// Duplicate adds surface the same structured shape.
	_, err = svc.AddTables(ctx, all[:1], webtable.WithMethod(webtable.MethodMajority))
	if !errors.Is(err, webtable.ErrDuplicateTable) {
		t.Fatalf("duplicate add err = %v, want ErrDuplicateTable", err)
	}
}

// TestMutableSnapshotRoundTrip: a mutated corpus saves its segment
// manifest and tombstones; the reload answers identically, reports the
// same counters, and keeps mutating from where the original stopped.
func TestMutableSnapshotRoundTrip(t *testing.T) {
	w := testWorld(t)
	all := corpusTables(w, 12)
	ctx := context.Background()
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4), webtable.WithoutAutoCompaction())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.AddTables(ctx, all[:6], webtable.WithMethod(webtable.MethodMajority)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddTables(ctx, all[6:10], webtable.WithMethod(webtable.MethodMajority)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RemoveTables(ctx, []string{all[3].ID}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := svc.SaveSnapshot(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := webtable.LoadService(ctx, bytes.NewReader(buf.Bytes()),
		webtable.WithWorkers(4), webtable.WithoutAutoCompaction())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	origStats, _ := svc.CorpusStats()
	gotStats, ok := loaded.CorpusStats()
	if !ok || gotStats != origStats {
		t.Fatalf("reloaded stats %+v != original %+v", gotStats, origStats)
	}
	if gotStats.Segments < 2 || gotStats.Tombstones != 1 {
		t.Fatalf("manifest not preserved: %+v", gotStats)
	}
	checkSearchIdentical(t, w, loaded, svc, "reloaded")

	// The reload resumes mutating: adds append, removes tombstone, and
	// the generation keeps counting from the persisted one.
	if _, err := loaded.AddTables(ctx, all[10:], webtable.WithMethod(webtable.MethodMajority)); err != nil {
		t.Fatalf("resume add: %v", err)
	}
	if _, err := loaded.RemoveTables(ctx, []string{all[0].ID}); err != nil {
		t.Fatalf("resume remove: %v", err)
	}
	resumed, _ := loaded.CorpusStats()
	if resumed.Generation != origStats.Generation+2 || resumed.Tables != origStats.Tables+1 {
		t.Fatalf("resume stats = %+v (from %+v)", resumed, origStats)
	}
}

// unannotatedCorpus hand-builds n tiny tables, cheap enough to index a
// thousand of in a test.
func unannotatedCorpus(n, offset int) []*table.Table {
	tables := make([]*table.Table, n)
	for i := range tables {
		id := offset + i
		tables[i] = &table.Table{
			ID:      fmt.Sprintf("bench-%05d", id),
			Context: "benchmark corpus of films",
			Headers: []string{"Film", "Director"},
			Cells: [][]string{
				{fmt.Sprintf("Film %05d", id), fmt.Sprintf("Director %03d", id%97)},
				{fmt.Sprintf("Film %05da", id), fmt.Sprintf("Director %03d", (id+13)%97)},
			},
		}
	}
	return tables
}

// TestAddTablesSpeedup is the acceptance guard for the incremental path,
// stated as the work done rather than the time it took: adding 10 tables
// to a 1000-table corpus (three segments, one tombstone) publishes one
// new segment holding exactly those 10 tables under the next generation
// and leaves every prior segment, table and tombstone as it was —
// indexing work is proportional to the batch, not the corpus.
// BenchmarkAddTables measures the gap this buys against a rebuild.
func TestAddTablesSpeedup(t *testing.T) {
	ctx := context.Background()
	base := unannotatedCorpus(1000, 0)
	batch := unannotatedCorpus(10, 1000)

	svc, err := webtable.NewService(webtable.NewCatalog(), webtable.WithoutAutoCompaction())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.BuildIndex(ctx, base[:800], webtable.WithoutAnnotations()); err != nil {
		t.Fatal(err)
	}
	for _, part := range [][]*table.Table{base[800:900], base[900:]} {
		if _, err := svc.AddTables(ctx, part, webtable.WithoutAnnotations()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.RemoveTables(ctx, []string{base[17].ID}); err != nil {
		t.Fatal(err)
	}
	before, _ := svc.CorpusStats()
	if before.Tables != 999 || before.Segments != 3 || before.Tombstones != 1 {
		t.Fatalf("corpus before the batch = %+v, want 999 tables in 3 segments with 1 tombstone", before)
	}

	added, err := svc.AddTables(ctx, batch, webtable.WithoutAnnotations())
	if err != nil {
		t.Fatal(err)
	}
	want := before
	want.Tables += len(batch)
	want.Segments++
	want.Generation++
	if added != want {
		t.Fatalf("AddTables of %d tables = %+v, want %+v (one new segment, nothing else moved)", len(batch), added, want)
	}
	if after, _ := svc.CorpusStats(); after != added {
		t.Fatalf("CorpusStats after the batch = %+v, AddTables reported %+v", after, added)
	}
}

// TestCorpusDoesNotAliasCallerTables: the corpus copies what it keeps.
// After BuildIndex and after AddTables the caller overwrites every cell,
// header, ID and context of the tables it handed in; the service must
// keep answering, saving and compacting exactly like a twin restored
// from a snapshot taken before the overwrite — same pages, surface forms
// included, and the same snapshot bytes before and after a compaction.
func TestCorpusDoesNotAliasCallerTables(t *testing.T) {
	w := testWorld(t)
	ctx := context.Background()
	opts := []webtable.ServiceOption{webtable.WithWorkers(4), webtable.WithoutAutoCompaction(),
		webtable.WithCompactionPolicy(webtable.CompactionPolicy{MergeFactor: 2, TierBase: 4, MaxDeadFraction: 0.4})}
	method := webtable.WithMethod(webtable.MethodMajority)
	for _, start := range []string{"BuildIndex", "AddTables"} {
		tables := corpusTables(w, 12)
		for i, tab := range tables {
			tables[i] = tab.Clone()
		}
		svc, err := webtable.NewService(w.Public, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if start == "BuildIndex" {
			_, err = svc.BuildIndex(ctx, tables[:6], method)
		} else {
			_, err = svc.AddTables(ctx, tables[:6], method)
		}
		if err != nil {
			t.Fatalf("%s: %v", start, err)
		}
		if _, err := svc.AddTables(ctx, tables[6:], method); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RemoveTables(ctx, []string{tables[2].ID}); err != nil {
			t.Fatal(err)
		}
		save := func(s *webtable.Service) []byte {
			t.Helper()
			var buf bytes.Buffer
			if err := s.SaveSnapshot(ctx, &buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		before := save(svc)
		twin, err := webtable.LoadService(ctx, bytes.NewReader(before), opts...)
		if err != nil {
			t.Fatal(err)
		}

		for _, tab := range tables {
			tab.ID, tab.Context = "scribbled", "scribbled"
			for c := range tab.Headers {
				tab.Headers[c] = "scribbled"
			}
			for _, row := range tab.Cells {
				for c := range row {
					row[c] = "scribbled"
				}
			}
		}

		checkSearchIdentical(t, w, svc, twin, start+", tables overwritten")
		if !bytes.Equal(save(svc), before) {
			t.Errorf("%s: overwriting the caller's tables changed what SaveSnapshot writes", start)
		}
		for _, s := range []*webtable.Service{svc, twin} {
			if _, err := s.Compact(ctx); err != nil {
				t.Fatal(err)
			}
		}
		checkSearchIdentical(t, w, svc, twin, start+", tables overwritten, compacted")
		if !bytes.Equal(save(svc), save(twin)) {
			t.Errorf("%s: after a compaction the service and its twin save different bytes", start)
		}
		svc.Close()
		twin.Close()
	}
}
