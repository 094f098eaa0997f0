package webtable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	webtable "repro"
	"repro/internal/snapshot"
	"repro/internal/table"
)

// TestSnapshotRoundTripSearchIdentical is the snapshot correctness
// property: Save then Load yields a service whose Search returns
// byte-identical result pages — same ranking, scores, cursors and
// totals — as the original in-memory service, across every mode and
// across pagination, without re-running annotation.
func TestSnapshotRoundTripSearchIdentical(t *testing.T) {
	w := testWorld(t)
	tables := corpusTables(w, 10)
	ctx := context.Background()

	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.BuildIndex(ctx, tables); err != nil {
		t.Fatalf("build index: %v", err)
	}

	var buf bytes.Buffer
	if err := svc.SaveSnapshot(ctx, &buf); err != nil {
		t.Fatalf("save snapshot: %v", err)
	}
	loaded, err := webtable.LoadService(ctx, bytes.NewReader(buf.Bytes()), webtable.WithWorkers(4))
	if err != nil {
		t.Fatalf("load service: %v", err)
	}

	workload := w.SearchWorkload([]string{"directed", "actedIn"}, 2, 11)
	if len(workload) == 0 {
		t.Fatal("empty workload")
	}
	for _, wq := range workload {
		for _, mode := range []webtable.SearchMode{webtable.SearchBaseline, webtable.SearchType, webtable.SearchTypeRel} {
			req := w.Request(wq, mode, 3)
			req.Explain = true
			for page := 0; page < 4; page++ {
				orig, err1 := svc.Search(ctx, req)
				got, err2 := loaded.Search(ctx, req)
				if err1 != nil || err2 != nil {
					t.Fatalf("mode %v page %d: search errs %v / %v", mode, page, err1, err2)
				}
				// Stats timings are wall clock; the round-trip identity
				// covers the result page, with the deterministic scan
				// counters checked on their own.
				if got.Stats.RowsScanned != orig.Stats.RowsScanned ||
					got.Stats.CandidatePairs != orig.Stats.CandidatePairs ||
					got.Stats.PairsMatched != orig.Stats.PairsMatched {
					t.Fatalf("mode %v page %d: scan counters diverge: %+v vs %+v",
						mode, page, *got.Stats, *orig.Stats)
				}
				got.Stats, orig.Stats = nil, nil
				origJSON, err := json.Marshal(orig)
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(origJSON, gotJSON) {
					t.Fatalf("mode %v page %d: results differ\n in-memory: %s\n loaded:    %s",
						mode, page, origJSON, gotJSON)
				}
				if orig.NextCursor == "" {
					break
				}
				req.Cursor = orig.NextCursor
			}
		}
	}

	// The loaded catalog resolves the same names.
	if _, err := loaded.ResolveQuery("directed", "Film", "Director", "whoever"); err != nil {
		t.Fatalf("loaded ResolveQuery: %v", err)
	}
}

// TestLoadGenerationZero: a segmented corpus saved at generation 0 (no
// writer here makes one) loads at generation 1, as a flat file does.
func TestLoadGenerationZero(t *testing.T) {
	w := testWorld(t)
	var saved bytes.Buffer
	seg := snapshot.Segment{ID: 1, Tables: corpusTables(w, 4)}
	if err := snapshot.Save(&saved, &snapshot.Snapshot{Catalog: w.Public.Snapshot(), Segments: []snapshot.Segment{seg}}); err != nil {
		t.Fatal(err)
	}
	svc, err := webtable.LoadService(context.Background(), &saved)
	if err != nil {
		t.Fatal(err)
	}
	if stats, ok := svc.CorpusStats(); !ok || stats.Generation != 1 || stats.Tables != 4 {
		t.Fatalf("loaded %+v (ok %v), want 4 tables at generation 1", stats, ok)
	}
}

func TestLoadServiceRejectsGarbage(t *testing.T) {
	_, err := webtable.LoadService(context.Background(), bytes.NewReader(bytes.Repeat([]byte("x"), 64)))
	if !errors.Is(err, webtable.ErrNotSnapshot) {
		t.Fatalf("err = %v, want ErrNotSnapshot", err)
	}
}

// TestLoadServiceCorruption: a snapshot damaged in transit is a checksum
// error through the public surface too.
func TestLoadServiceCorruption(t *testing.T) {
	w := testWorld(t)
	tables := corpusTables(w, 3)
	ctx := context.Background()
	svc, err := webtable.NewService(w.Public)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.BuildIndex(ctx, tables, webtable.WithMethod(webtable.MethodMajority)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svc.SaveSnapshot(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x40
	_, err = webtable.LoadService(ctx, bytes.NewReader(raw))
	if !errors.Is(err, webtable.ErrSnapshotChecksum) {
		t.Fatalf("err = %v, want ErrSnapshotChecksum", err)
	}
}

// TestLoadCancelled: a load under a cancelled context fails with
// context.Canceled, whole or by shard, and the goroutines it decoded on
// are gone once it has returned (given the moment a finished goroutine
// takes to exit).
func TestLoadCancelled(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("internal", "snapshot", "testdata", "segmented.snap"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	if _, err := webtable.LoadService(ctx, bytes.NewReader(raw)); !errors.Is(err, context.Canceled) {
		t.Errorf("LoadService: err = %v, want context.Canceled", err)
	}
	for shard := 0; shard < 2; shard++ {
		if _, _, err := webtable.LoadServiceShard(ctx, bytes.NewReader(raw), shard, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("LoadServiceShard %d: err = %v, want context.Canceled", shard, err)
		}
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines running after the loads, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotRoundTripRandomHistories generalises the round-trip
// property to corpora with a past: after a random history of AddTables
// (annotated and not), RemoveTables and Compact, a service reloaded from
// the saved snapshot reports the same counters, answers every request
// with the same pages, and saves back to the very same bytes — the
// segment manifest (identities, tables, annotations, tombstones,
// generation) survives a restart intact.
func TestSnapshotRoundTripRandomHistories(t *testing.T) {
	w := testWorld(t)
	pool := corpusTables(w, 30)
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		svc, err := webtable.NewService(w.Public, webtable.WithWorkers(4), webtable.WithoutAutoCompaction(),
			webtable.WithCompactionPolicy(webtable.CompactionPolicy{MergeFactor: 2, TierBase: 4, MaxDeadFraction: 0.4}))
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		var live []string
		history := ""
		for step := 0; step < 9 && next < len(pool); step++ {
			switch op := rng.Intn(6); {
			case op < 3 || len(live) == 0:
				n := min(1+rng.Intn(5), len(pool)-next)
				opts, what := []webtable.AnnotateOption{webtable.WithMethod(webtable.MethodMajority)}, "add"
				if rng.Intn(4) == 0 {
					opts, what = append(opts, webtable.WithoutAnnotations()), "add-unannotated"
				}
				batch := pool[next : next+n]
				next += n
				if _, err := svc.AddTables(ctx, batch, opts...); err != nil {
					t.Fatalf("seed %d%s: add: %v", seed, history, err)
				}
				for _, tab := range batch {
					live = append(live, tab.ID)
				}
				history += fmt.Sprintf(" %s%d", what, n)
			case op < 5:
				i := rng.Intn(len(live))
				if _, err := svc.RemoveTables(ctx, []string{live[i]}); err != nil {
					t.Fatalf("seed %d%s: remove: %v", seed, history, err)
				}
				live = append(live[:i], live[i+1:]...)
				history += " remove"
			default:
				if _, err := svc.Compact(ctx); err != nil {
					t.Fatalf("seed %d%s: compact: %v", seed, history, err)
				}
				history += " compact"
			}
		}
		label := fmt.Sprintf("seed %d%s", seed, history)
		t.Log(label)

		var saved bytes.Buffer
		if err := svc.SaveSnapshot(ctx, &saved); err != nil {
			t.Fatalf("%s: save: %v", label, err)
		}
		loaded, err := webtable.LoadService(ctx, bytes.NewReader(saved.Bytes()), webtable.WithWorkers(4), webtable.WithoutAutoCompaction())
		if err != nil {
			t.Fatalf("%s: load: %v", label, err)
		}
		want, _ := svc.CorpusStats()
		if got, ok := loaded.CorpusStats(); !ok || got != want {
			t.Fatalf("%s: reloaded stats %+v, saved %+v", label, got, want)
		}
		var again bytes.Buffer
		if err := loaded.SaveSnapshot(ctx, &again); err != nil {
			t.Fatalf("%s: save again: %v", label, err)
		}
		if !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("%s: save -> load -> save is not byte-identical (%d vs %d bytes)", label, saved.Len(), again.Len())
		}
		checkSearchIdentical(t, w, loaded, svc, label)
		svc.Close()
		loaded.Close()
	}
}

// goldenPages returns the blocks of internal/search/testdata/pages.golden
// that belong to one of its corpora.
func goldenPages(t *testing.T, corpus string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("internal", "search", "testdata", "pages.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	keep := false
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "== ") {
			keep = strings.HasPrefix(line, "== "+corpus+" ")
		}
		if keep {
			out.WriteString(line)
		}
	}
	if out.Len() == 0 {
		t.Fatalf("pages.golden has no corpus %q", corpus)
	}
	return out.String()
}

// servedPages walks one query through every mode, page size and explain
// setting to cursor exhaustion and renders the pages exactly as
// internal/search's renderPages does for pages.golden.
func servedPages(t *testing.T, corpus string, q webtable.SearchQuery, run func(webtable.SearchRequest) (*webtable.SearchResult, error)) string {
	t.Helper()
	var buf strings.Builder
	for _, mode := range []webtable.SearchMode{webtable.SearchBaseline, webtable.SearchType, webtable.SearchTypeRel} {
		for _, pageSize := range []int{0, 1, 7} {
			for _, explain := range []bool{false, true} {
				fmt.Fprintf(&buf, "== %s mode=%v page_size=%d explain=%v\n", corpus, mode, pageSize, explain)
				cursor := ""
				for page := 0; ; page++ {
					if page > 64 {
						t.Fatalf("%s %v pageSize=%d: runaway pagination", corpus, mode, pageSize)
					}
					res, err := run(webtable.SearchRequest{Query: q, Mode: mode, PageSize: pageSize, Cursor: cursor, Explain: explain})
					if err != nil {
						t.Fatalf("%s %v pageSize=%d page=%d: %v", corpus, mode, pageSize, page, err)
					}
					fmt.Fprintf(&buf, "page %d total=%d next=%q\n", page, res.Total, res.NextCursor)
					for _, a := range res.Answers {
						fmt.Fprintf(&buf, "  %q entity=%d score=%016x support=%d\n", a.Text, a.Entity, math.Float64bits(a.Score), a.Support)
						if a.Explanation == nil {
							continue
						}
						for _, s := range a.Explanation.Sources {
							fmt.Fprintf(&buf, "    src %d %d %d %016x\n", s.Table, s.Row, s.Col, math.Float64bits(s.Score))
						}
						fmt.Fprintf(&buf, "    truncated %d\n", a.Explanation.Truncated)
					}
					if cursor = res.NextCursor; cursor == "" {
						break
					}
				}
			}
		}
	}
	return buf.String()
}

// TestFrozenSnapshotsServeGoldenPages: a service loaded from each of the
// snapshot files frozen under internal/snapshot/testdata, a service
// loaded from what that one saves back, and a two-shard split of the
// file merged back all answer their corpus's requests of pages.golden
// byte for byte. The fixtures hold pages.golden's "partial" corpus as a
// four-segment manifest with tombstones and its "fraction" corpus in the
// flat shape (see internal/snapshot's golden_test.go); neither golden
// file may be regenerated to make this pass.
func TestFrozenSnapshotsServeGoldenPages(t *testing.T) {
	ctx := context.Background()
	for _, fx := range []struct {
		file, corpus, e2 string
	}{
		{"segmented.snap", "partial", "Solo Auteur"},
		{"flat.snap", "fraction", ""},
	} {
		raw, err := os.ReadFile(filepath.Join("internal", "snapshot", "testdata", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		want := goldenPages(t, fx.corpus)
		svc, err := webtable.LoadService(ctx, bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		q, err := svc.ResolveQuery("directed", "Work", "Director", fx.e2)
		if err != nil {
			t.Fatal(err)
		}
		q.T1Text, q.T2Text = "Film movie", "Director person"
		if fx.e2 == "" {
			q.E2Text = "Solo Auteur Grand Prix"
		}
		search := func(svc *webtable.Service) func(webtable.SearchRequest) (*webtable.SearchResult, error) {
			return func(req webtable.SearchRequest) (*webtable.SearchResult, error) { return svc.Search(ctx, req) }
		}
		if got := servedPages(t, fx.corpus, q, search(svc)); got != want {
			t.Errorf("%s: served pages diverge from pages.golden", fx.file)
		}

		var resaved bytes.Buffer
		if err := svc.SaveSnapshot(ctx, &resaved); err != nil {
			t.Fatalf("%s: save: %v", fx.file, err)
		}
		again, err := webtable.LoadService(ctx, bytes.NewReader(resaved.Bytes()))
		if err != nil {
			t.Fatalf("%s: reload: %v", fx.file, err)
		}
		if got := servedPages(t, fx.corpus, q, search(again)); got != want {
			t.Errorf("%s: pages served after save -> load diverge from pages.golden", fx.file)
		}
		before, _ := svc.CorpusStats()
		if after, _ := again.CorpusStats(); after != before {
			t.Errorf("%s: stats after save -> load %+v, before %+v", fx.file, after, before)
		}

		for _, file := range [][]byte{raw, resaved.Bytes()} {
			var shards []*webtable.Service
			var offsets []int
			for i := 0; i < 2; i++ {
				sh, asn, err := webtable.LoadServiceShard(ctx, bytes.NewReader(file), i, 2)
				if err != nil {
					t.Fatalf("%s: shard %d: %v", fx.file, i, err)
				}
				shards, offsets = append(shards, sh), append(offsets, asn.TableOffset)
			}
			merged := func(req webtable.SearchRequest) (*webtable.SearchResult, error) {
				var partials [][]webtable.PartialGroup
				var stats []webtable.SearchExecStats
				for i, sh := range shards {
					groups, st, err := sh.SearchPartial(ctx, webtable.SearchRequest{Query: req.Query, Mode: req.Mode}, offsets[i])
					if err != nil {
						return nil, err
					}
					partials, stats = append(partials, groups), append(stats, *st)
				}
				return webtable.MergeSearchPartials(partials, stats, req.PageSize, req.Cursor, req.Explain)
			}
			if got := servedPages(t, fx.corpus, q, merged); got != want {
				t.Errorf("%s: pages merged from two shards diverge from pages.golden", fx.file)
			}
		}
	}
}

// TestShardLoadsOnlyItsSections: each shard of a cluster reads the
// manifest and its own slice of the file. With one byte damaged inside a
// section shard 1 owns, shard 0 still loads and serves its tables, shard
// 1 fails with ErrSnapshotChecksum, and so does a load of the whole file
// — by LoadService and by snapshot.Load alike.
func TestShardLoadsOnlyItsSections(t *testing.T) {
	ctx := context.Background()
	old, err := os.ReadFile(filepath.Join("internal", "snapshot", "testdata", "segmented.snap"))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := webtable.LoadService(ctx, bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := whole.SaveSnapshot(ctx, &saved); err != nil {
		t.Fatal(err)
	}
	raw := saved.Bytes()
	_, asn, err := webtable.LoadServiceShard(ctx, bytes.NewReader(raw), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if asn.Lo < 1 || asn.Segments() < 1 {
		t.Fatalf("shard 1 owns segments [%d, %d): the split leaves nothing to damage", asn.Lo, asn.Hi)
	}
	// The sections lie back to back at the end of the file in manifest
	// order, so the last byte belongs to the last segment: shard 1's.
	raw[len(raw)-1] ^= 0x04

	shard0, asn0, err := webtable.LoadServiceShard(ctx, bytes.NewReader(raw), 0, 2)
	if err != nil {
		t.Fatalf("shard 0 of a file damaged in shard 1's section: %v", err)
	}
	q, err := shard0.ResolveQuery("directed", "Work", "Director", "Solo Auteur")
	if err != nil {
		t.Fatal(err)
	}
	groups, _, err := shard0.SearchPartial(ctx, webtable.SearchRequest{Query: q, Mode: webtable.SearchTypeRel}, asn0.TableOffset)
	if err != nil || len(groups) == 0 {
		t.Fatalf("shard 0 serves %d groups (%v), want evidence from its %d tables", len(groups), err, asn0.Tables)
	}
	if _, _, err := webtable.LoadServiceShard(ctx, bytes.NewReader(raw), 1, 2); !errors.Is(err, webtable.ErrSnapshotChecksum) {
		t.Fatalf("shard 1: err = %v, want ErrSnapshotChecksum", err)
	}
	if _, err := webtable.LoadService(ctx, bytes.NewReader(raw)); !errors.Is(err, webtable.ErrSnapshotChecksum) {
		t.Fatalf("LoadService of the whole file: err = %v, want ErrSnapshotChecksum", err)
	}
	if _, err := snapshot.Load(bytes.NewReader(raw)); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("snapshot.Load of the whole file: err = %v, want ErrChecksum", err)
	}
}

// TestLoadServiceAllocations: restoring a service from a snapshot
// allocates per table and per distinct string, not per cell or per row:
// a segment's strings are one blob, its cells one array of IDs, and no
// table or annotation object is built. Two corpora of 400 tables over
// the same pool of strings, one with five times the rows, must take the
// same number of allocations to load to within the growth steps of a few
// maps and lists — and, beyond what an empty corpus over the same catalog
// takes, no more than 5.5 per table (measured: 4.5 — the normalized
// header and context strings while their tokens are posted, and the
// growth steps of the posting lists; 6.5 when each annotation's column
// types and relations were objects of their own and the view kept a
// directory of every table ID). The empty load itself stays within 3 600
// (measured: 3 010; 5 340 while a load built the lemma index).
func TestLoadServiceAllocations(t *testing.T) {
	ctx := context.Background()
	w := testWorld(t)
	film, _ := w.Public.TypeByName("Film")
	director, _ := w.Public.TypeByName("Director")
	directed, _ := w.Public.RelationByName("directed")
	const tables = 400
	snapshotOf := func(n, rows int) []byte {
		sg := snapshot.Segment{ID: 1}
		for ti := 0; ti < n; ti++ {
			tab := &table.Table{ID: fmt.Sprintf("t%04d", ti), Context: "films and the directors who directed them", Headers: []string{"Film", "Director"}}
			ann := &webtable.Annotation{
				TableID:     tab.ID,
				ColumnTypes: []webtable.TypeID{film, director},
				Relations:   []webtable.RelationAnnotation{{Col1: 0, Col2: 1, Relation: directed, Forward: true}},
			}
			for r := 0; r < rows; r++ {
				tab.Cells = append(tab.Cells, []string{fmt.Sprintf("Film %d", (ti+r)%8), fmt.Sprintf("Director %d", r%8)})
				ann.CellEntities = append(ann.CellEntities, []webtable.EntityID{webtable.None, webtable.EntityID(r % 8)})
			}
			sg.Tables, sg.Anns = append(sg.Tables, tab), append(sg.Anns, ann)
		}
		var buf bytes.Buffer
		if err := snapshot.Save(&buf, &snapshot.Snapshot{Catalog: w.Public.Snapshot(), Segments: []snapshot.Segment{sg}, Generation: 1}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	allocs := func(raw []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			svc, err := webtable.LoadService(ctx, bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			svc.Close()
		})
	}
	none, few, many := allocs(snapshotOf(0, 0)), allocs(snapshotOf(tables, 8)), allocs(snapshotOf(tables, 40))
	t.Logf("allocations per LoadService: %v for no table, %v for %d tables of 8 rows, %v of 40 rows", none, few, tables, many)
	if none > 3600 {
		t.Errorf("loading an empty corpus takes %v allocations, budget 3 600: does a load build the lemma index again?", none)
	}
	if many > few+64 {
		t.Errorf("loading 5x the cells takes %v allocations, %v for the smaller corpus: something is allocated per cell or per row", many, few)
	}
	if perTable := (many - none) / tables; perTable > 5.5 {
		t.Errorf("%.1f allocations per table, budget 5.5", perTable)
	}
}

// TestLoadedHeapPerTable states what a loaded corpus costs to keep: over
// 400 annotated 10×2 tables in which every cell is a string of its own
// with a token of its own — nothing for a dictionary to share — the heap
// a LoadService leaves behind, beyond what an empty corpus over the same
// catalog leaves, stays within loadedBytesPerTable per table (measured:
// 3.10 KB, of which the cell IDs are 80 B and nearly all the rest is
// what twenty distinct strings cost in four dictionaries and a token
// index — with no spelling repeated, a cell's entity moves into its
// spelling's first entity and the annotated IDs' index rather than
// going away, so this is 41 B above the 3.06 KB of the two cell arrays
// of 160 B; 3.26 KB when an annotation's metadata held three slices
// and the view a table-ID map, 4.78 KB when each cell also kept its text
// ID and each segment a spelling → text map, 5.6 KB when a segment also
// kept its tables and annotations), and within a factor of what
// Service.ResidentBytes counts from array lengths (measured: 1.4) — the
// gap being the buckets of the maps and the allocator's size classes,
// which it leaves out.
func TestLoadedHeapPerTable(t *testing.T) {
	const tables, rows, loadedBytesPerTable = 400, 10, 3250
	ctx := context.Background()
	w := testWorld(t)
	film, _ := w.Public.TypeByName("Film")
	director, _ := w.Public.TypeByName("Director")
	directed, _ := w.Public.RelationByName("directed")
	sg := snapshot.Segment{ID: 1}
	for ti := 0; ti < tables; ti++ {
		tab := &table.Table{ID: fmt.Sprintf("t%04d", ti), Context: "films and the directors who directed them", Headers: []string{"Film", "Director"}}
		ann := &webtable.Annotation{
			TableID:     tab.ID,
			ColumnTypes: []webtable.TypeID{film, director},
			Relations:   []webtable.RelationAnnotation{{Col1: 0, Col2: 1, Relation: directed, Forward: true}},
		}
		for r := 0; r < rows; r++ {
			tab.Cells = append(tab.Cells, []string{fmt.Sprintf("Film f%dr%d", ti, r), fmt.Sprintf("Director d%dr%d", ti, r)})
			ann.CellEntities = append(ann.CellEntities, []webtable.EntityID{webtable.None, webtable.EntityID(r % 8)})
		}
		sg.Tables, sg.Anns = append(sg.Tables, tab), append(sg.Anns, ann)
	}
	snapshotOf := func(segs []snapshot.Segment) []byte {
		var buf bytes.Buffer
		if err := snapshot.Save(&buf, &snapshot.Snapshot{Catalog: w.Public.Snapshot(), Segments: segs, Generation: 1}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	retained := func(raw []byte) (uint64, webtable.ResidentBytes) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		svc, err := webtable.LoadService(ctx, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		counted, _ := svc.ResidentBytes()
		svc.Close()
		return after.HeapAlloc - before.HeapAlloc, counted
	}
	empty, _ := retained(snapshotOf(nil))
	full, counted := retained(snapshotOf([]snapshot.Segment{sg}))
	perTable := float64(full-empty) / tables
	sum := counted.Cells + counted.Dictionaries + counted.Postings + counted.Tables
	t.Logf("%.0f heap bytes per table; counted %+v = %.0f per table", perTable, counted, float64(sum)/tables)
	if counted.Cells != 4*tables*rows*2 {
		t.Errorf("counted %d bytes of cells, want one 4-byte ID for each of %d cells", counted.Cells, tables*rows*2)
	}
	if perTable > loadedBytesPerTable {
		t.Errorf("%.0f heap bytes per loaded table, budget %d", perTable, loadedBytesPerTable)
	}
	if float64(full-empty) > 1.8*float64(sum) || float64(full-empty) < float64(sum) {
		t.Errorf("the heap grew by %d bytes; ResidentBytes counts %d", full-empty, sum)
	}
}
