// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), one Benchmark per exhibit, plus micro-benchmarks for
// the annotator's hot paths. Accuracy-style results are attached as
// custom benchmark metrics so `go test -bench` output doubles as the
// experiment record; cmd/tabeval prints the same numbers as tables.
package webtable_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	webtable "repro"
	"repro/internal/benchfix"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/factorgraph"
	"repro/internal/feature"
	"repro/internal/lemmaindex"
	"repro/internal/snapshot"
	"repro/internal/table"
	"repro/internal/worldgen"
)

// benchScale keeps each figure bench to a few seconds per iteration while
// exercising every code path; cmd/tabeval runs the same drivers at larger
// scales.
const benchScale = 0.08

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		spec := worldgen.DefaultSpec()
		spec.FilmsPerGenre = 30
		spec.NovelsPerGenre = 25
		spec.PeoplePerRole = 40
		spec.AlbumCount = 60
		spec.CountryCount = 20
		spec.CitiesPerCountry = 3
		spec.LanguageCount = 15
		envVal, envErr = experiments.NewEnv(spec, benchScale)
	})
	if envErr != nil {
		b.Fatalf("env: %v", envErr)
	}
	return envVal
}

// BenchmarkFigure5DatasetSummary regenerates the dataset summary table.
func BenchmarkFigure5DatasetSummary(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows := env.Figure5()
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFigure6AnnotationAccuracy regenerates the accuracy matrix
// (LCA / Majority / Collective × entity / type / relation). The headline
// numbers are attached as metrics (percent).
func BenchmarkFigure6AnnotationAccuracy(b *testing.B) {
	env := benchEnv(b)
	var last experiments.Fig6Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = env.Figure6()
	}
	b.StopTimer()
	b.ReportMetric(last.Entity[0].Collective, "entityAcc%")
	b.ReportMetric(last.Type[0].Collective, "typeF1%")
	b.ReportMetric(last.Relation[0].Collective, "relF1%")
	b.ReportMetric(last.Entity[0].Collective-last.Entity[0].Majority, "entityLift%")
	if last.Entity[0].Collective < last.Entity[0].Majority {
		b.Fatal("collective lost to majority; shape violated")
	}
}

// BenchmarkFigure7AnnotationTime regenerates the per-table annotation
// timing study; the paper's headline split (candidate generation
// dominates, inference negligible) is attached as metrics.
func BenchmarkFigure7AnnotationTime(b *testing.B) {
	env := benchEnv(b)
	var last experiments.Fig7Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = env.Figure7(50)
	}
	b.StopTimer()
	b.ReportMetric(float64(last.AvgPerTable.Microseconds()), "µs/table")
	b.ReportMetric(100*last.CandGenFrac, "candGen%")
	b.ReportMetric(100*last.InferenceFrac, "inference%")
}

// BenchmarkFigure8FeatureAblation regenerates the type-entity
// compatibility ablation (1/sqrt(dist) vs 1/dist vs IDF).
func BenchmarkFigure8FeatureAblation(b *testing.B) {
	env := benchEnv(b)
	var rows []experiments.Fig8Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = env.Figure8()
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Dataset == "WikiManual" {
			switch r.Mode {
			case "1/sqrt(dist)":
				b.ReportMetric(r.TypeF1, "sqrtTypeF1%")
			case "IDF":
				b.ReportMetric(r.TypeF1, "idfTypeF1%")
			}
		}
	}
}

// BenchmarkFigure9SearchMAP regenerates the search MAP comparison
// (Baseline vs Type vs Type+Rel over the five workload relations).
func BenchmarkFigure9SearchMAP(b *testing.B) {
	env := benchEnv(b)
	var rows []experiments.Fig9Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = env.Figure9(60, 4)
	}
	b.StopTimer()
	var sb, st, str float64
	for _, r := range rows {
		sb += r.Baseline
		st += r.Type
		str += r.TypeRel
	}
	n := float64(len(rows))
	b.ReportMetric(sb/n, "baselineMAP")
	b.ReportMetric(st/n, "typeMAP")
	b.ReportMetric(str/n, "typeRelMAP")
	if str < st || st < sb {
		b.Fatal("MAP ordering violated; shape broken")
	}
}

// BenchmarkAblationSimplifiedInference regenerates the Eq.1-vs-Eq.2
// ablation (what the relation variables buy).
func BenchmarkAblationSimplifiedInference(b *testing.B) {
	env := benchEnv(b)
	var rows []experiments.AblationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = env.AblationSimplified()
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Task == "entity" {
			b.ReportMetric(r.Collective-r.Simplified, "entityLift%")
		}
	}
}

// BenchmarkThresholdSweep regenerates the §6.1.1 Majority-threshold sweep.
func BenchmarkThresholdSweep(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows := env.ThresholdSweep([]float64{0.5, 0.6, 0.8, 1.0})
		if len(rows) != 4 {
			b.Fatal("bad sweep")
		}
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks: the annotator's hot paths.
// ---------------------------------------------------------------------

func benchTable(env *experiments.Env) *table.Table {
	ds := env.World.WikiManual(0.03) // 1 table
	return ds.Tables[0].Table
}

// BenchmarkCollectivePerTable measures one full collective annotation.
func BenchmarkCollectivePerTable(b *testing.B) {
	env := benchEnv(b)
	tab := benchTable(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Ann.AnnotateCollective(tab)
	}
}

// BenchmarkSimplePerTable measures the Figure-2 polynomial special case.
func BenchmarkSimplePerTable(b *testing.B) {
	env := benchEnv(b)
	tab := benchTable(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Ann.AnnotateSimple(tab)
	}
}

// BenchmarkBaselinesPerTable measures LCA + Majority on one table.
func BenchmarkBaselinesPerTable(b *testing.B) {
	env := benchEnv(b)
	tab := benchTable(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Ann.AnnotateLCA(tab)
		env.Ann.AnnotateMajority(tab)
	}
}

// BenchmarkCandidateGeneration isolates the lemma-probing stage: ~80% of
// annotation time in the paper; here `tabeval -exp fig7 -scale 0.05`
// attributes about 61% of a collective annotation to candidate
// generation (probing plus the per-column type space and φ3 scores), 20%
// to potential construction and 19% to inference (see the lemmaindex
// package comment).
func BenchmarkCandidateGeneration(b *testing.B) {
	env := benchEnv(b)
	tab := benchTable(env)
	ix := env.Ann.Index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < tab.Rows(); r++ {
			for c := 0; c < tab.Cols(); c++ {
				ix.CandidateEntities(tab.Cell(r, c))
			}
		}
	}
}

// BenchmarkLemmaIndexBuild measures index construction over the public
// catalog (the annotator's setup cost).
func BenchmarkLemmaIndexBuild(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lemmaindex.Build(env.World.Public, lemmaindex.DefaultConfig())
	}
}

// BenchmarkMessagePassing isolates BP on a representative factor graph by
// re-running inference with candidate generation excluded (simplified via
// config reuse).
func BenchmarkMessagePassing(b *testing.B) {
	g := factorgraph.New()
	// A 3-column, 10-row table-shaped graph: types (domain 20), cells
	// (domain 9), one relation var (domain 5).
	var typeVars [3]factorgraph.VarID
	for c := range typeVars {
		typeVars[c] = g.AddVariable("t", 20)
		unary := make([]float64, 20)
		for x := range unary {
			unary[x] = float64(x%3) * 0.1
		}
		g.AddUnary("phi2", typeVars[c], unary)
	}
	rel := g.AddVariable("b", 5)
	for r := 0; r < 10; r++ {
		var rowCells [3]factorgraph.VarID
		for c := 0; c < 3; c++ {
			e := g.AddVariable("e", 9)
			rowCells[c] = e
			unary := make([]float64, 9)
			for x := range unary {
				unary[x] = float64(x%4) * 0.2
			}
			g.AddUnary("phi1", e, unary)
			pair := make([]float64, 20*9)
			for x := range pair {
				pair[x] = float64(x%7) * 0.05
			}
			g.AddFactor("phi3", []factorgraph.VarID{typeVars[c], e}, pair)
		}
		tri := make([]float64, 5*9*9)
		for x := range tri {
			tri[x] = float64(x%11) * 0.02
		}
		g.AddFactor("phi5", []factorgraph.VarID{rel, rowCells[0], rowCells[1]}, tri)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.InitMessages()
		g.RunFlooding(5, 1e-6)
		g.MAPAssignment()
	}
}

// ---------------------------------------------------------------------
// Service benchmarks: the public concurrent surface.
// ---------------------------------------------------------------------

var (
	svcOnce   sync.Once
	svcVal    *webtable.Service
	svcTables []*table.Table
	svcErr    error
)

func benchService(b *testing.B) (*webtable.Service, []*table.Table) {
	b.Helper()
	env := benchEnv(b)
	svcOnce.Do(func() {
		svcVal, svcErr = webtable.NewService(env.World.Public)
		if svcErr != nil {
			return
		}
		ds := env.World.SearchCorpus(24, 7)
		for _, lt := range ds.Tables {
			svcTables = append(svcTables, lt.Table)
		}
	})
	if svcErr != nil {
		b.Fatalf("service: %v", svcErr)
	}
	return svcVal, svcTables
}

// BenchmarkServiceAnnotateCorpus measures the parallel fan-out of the
// Service API over its worker pool (GOMAXPROCS workers).
func BenchmarkServiceAnnotateCorpus(b *testing.B) {
	svc, tables := benchService(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.AnnotateCorpus(ctx, tables); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(tables)), "tables/op")
}

// BenchmarkServiceAnnotateCorpusSerial is the same workload annotated
// one table at a time, the parallelism baseline.
func BenchmarkServiceAnnotateCorpusSerial(b *testing.B) {
	svc, tables := benchService(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			if _, err := svc.AnnotateTable(ctx, t); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(tables)), "tables/op")
}

// BenchmarkServiceSearch measures query latency over a built index.
func BenchmarkServiceSearch(b *testing.B) {
	svc, tables := benchService(b)
	env := benchEnv(b)
	ctx := context.Background()
	if _, err := svc.BuildIndex(ctx, tables); err != nil {
		b.Fatal(err)
	}
	workload := env.World.SearchWorkload([]string{"directed"}, 1, 7)
	if len(workload) == 0 {
		b.Fatal("empty workload")
	}
	req := env.World.Request(workload[0], webtable.SearchTypeRel, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Search(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchBatch measures the concurrent fan-out of many requests
// over the service worker pool against one index snapshot.
func BenchmarkSearchBatch(b *testing.B) {
	svc, tables := benchService(b)
	env := benchEnv(b)
	ctx := context.Background()
	if _, err := svc.BuildIndex(ctx, tables); err != nil {
		b.Fatal(err)
	}
	workload := env.World.SearchWorkload(worldgen.SearchRelations, 2, 7)
	if len(workload) == 0 {
		b.Fatal("empty workload")
	}
	var reqs []webtable.SearchRequest
	for _, wq := range workload {
		for _, mode := range []webtable.SearchMode{webtable.SearchType, webtable.SearchTypeRel} {
			reqs = append(reqs, env.World.Request(wq, mode, 10))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.SearchBatch(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(reqs)), "requests/op")
}

// searchScaleFixture hand-builds an annotated one-relation corpus with
// nAnswers distinct subjects related to a single probe entity, so the
// ranking stage sees exactly nAnswers answer clusters. The corpus reaches
// the Service as a flat snapshot of the hand-built annotations (no
// annotator runs) and is indexed outside the timer; only query
// execution is measured.
func searchScaleFixture(b *testing.B, nAnswers int) (*webtable.Service, webtable.SearchRequest) {
	b.Helper()
	cat := webtable.NewCatalog()
	film, err := cat.AddType("Film", "movie")
	if err != nil {
		b.Fatal(err)
	}
	director, err := cat.AddType("Director", "director")
	if err != nil {
		b.Fatal(err)
	}
	directed, err := cat.AddRelation("directed", film, director, webtable.ManyToOne)
	if err != nil {
		b.Fatal(err)
	}
	d1, err := cat.AddEntity("Prolific Director", nil, director)
	if err != nil {
		b.Fatal(err)
	}

	const rowsPerTable = 50
	var (
		tables []*table.Table
		anns   []*core.Annotation
	)
	for start := 0; start < nAnswers; start += rowsPerTable {
		n := rowsPerTable
		if start+n > nAnswers {
			n = nAnswers - start
		}
		tab := &table.Table{
			ID:      fmt.Sprintf("t%d", start),
			Context: "films and their directors",
			Headers: []string{"Film", "Director"},
		}
		ann := &core.Annotation{
			TableID:     tab.ID,
			ColumnTypes: []catalog.TypeID{film, director},
			Relations: []core.RelationAnnotation{{
				Col1: 0, Col2: 1, Relation: directed, Forward: true,
			}},
		}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("Film %06d", start+i)
			f, err := cat.AddEntity(name, nil, film)
			if err != nil {
				b.Fatal(err)
			}
			tab.Cells = append(tab.Cells, []string{name, "Prolific Director"})
			ann.CellEntities = append(ann.CellEntities, []catalog.EntityID{f, d1})
		}
		tables = append(tables, tab)
		anns = append(anns, ann)
	}
	if err := cat.Freeze(); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := snapshot.Save(&snap, &snapshot.Snapshot{Catalog: cat.Snapshot(), Tables: tables, Anns: anns}); err != nil {
		b.Fatal(err)
	}
	svc, err := webtable.LoadService(context.Background(), &snap)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	req := webtable.SearchRequest{
		Query: webtable.SearchQuery{
			Relation: directed, T1: film, T2: director, E2: d1,
			RelationText: "directors", T1Text: "Film", T2Text: "Director",
			E2Text: "Prolific Director",
		},
		Mode: webtable.SearchTypeRel,
	}
	return svc, req
}

// BenchmarkSearchTopK contrasts bounded top-k page selection (the
// O(n log k) min-heap) against ranking the full answer set (the old
// sort-everything path, PageSize 0) as the corpus answer count grows.
// The top-10 latency should scale sublinearly in answers versus full.
func BenchmarkSearchTopK(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{1000, 10000} {
		svc, req := searchScaleFixture(b, n)
		for _, bench := range []struct {
			name     string
			pageSize int
		}{{"top10", 10}, {"full", 0}} {
			req := req
			req.PageSize = bench.pageSize
			b.Run(fmt.Sprintf("answers=%d/%s", n, bench.name), func(b *testing.B) {
				var total int
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := svc.Search(ctx, req)
					if err != nil {
						b.Fatal(err)
					}
					total = res.Total
				}
				if total != n {
					b.Fatalf("total = %d, want %d", total, n)
				}
				b.ReportMetric(float64(total), "answers")
			})
		}
	}
}

// BenchmarkAddTables contrasts incremental corpus growth against the
// pre-live-corpus alternative at 1k tables: AddTables indexes only the
// 10-table batch (work proportional to the batch, plus an O(corpus)
// manifest renumbering), while BuildIndex re-indexes all 1010 tables.
// The incremental path is typically ~100x faster; TestAddTablesSpeedup
// asserts its cause (one new segment of 10 tables, every prior segment
// untouched), not the ratio.
func BenchmarkAddTables(b *testing.B) {
	ctx := context.Background()
	base := unannotatedCorpus(1000, 0)

	b.Run("incremental-10", func(b *testing.B) {
		svc, err := webtable.NewService(webtable.NewCatalog(), webtable.WithoutAutoCompaction())
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		if _, err := svc.BuildIndex(ctx, base, webtable.WithoutAnnotations()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Fresh IDs each iteration: the corpus grows, it is never
			// rebuilt.
			batch := unannotatedCorpus(10, 1000+10*i)
			if _, err := svc.AddTables(ctx, batch, webtable.WithoutAnnotations()); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		stats, _ := svc.CorpusStats()
		b.ReportMetric(float64(stats.Tables), "tables")
	})

	b.Run("rebuild-1010", func(b *testing.B) {
		svc, err := webtable.NewService(webtable.NewCatalog(), webtable.WithoutAutoCompaction())
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		all := append(append([]*table.Table{}, base...), unannotatedCorpus(10, 1000)...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.BuildIndex(ctx, all, webtable.WithoutAnnotations()); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(all)), "tables")
	})
}

// BenchmarkAnnotateBatch is the repository benchmark's ingest workload in
// process: one op is one AddTables of an eight-table batch of fresh noisy
// tables (benchfix.Ingest) on a one-worker service, which annotates the
// batch collectively and appends it to the live corpus as a segment. A new
// service, built off the clock, takes over after every pass over the
// batches, so no table ID repeats.
func BenchmarkAnnotateBatch(b *testing.B) {
	const batches = 16
	cat, tabs := benchfix.Ingest(b, batches)
	ctx := context.Background()
	var svc *webtable.Service
	tables := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := tabs[8*(i%batches) : 8*(i%batches+1)]
		if i%batches == 0 {
			b.StopTimer()
			if svc != nil {
				svc.Close()
			}
			var err error
			if svc, err = webtable.NewService(cat, webtable.WithWorkers(1)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := svc.AddTables(ctx, batch); err != nil {
			b.Fatal(err)
		}
		tables += len(batch)
	}
	b.StopTimer()
	svc.Close()
	b.ReportMetric(float64(tables)/b.Elapsed().Seconds(), "tables/s")
}

// BenchmarkIngestSteady is BenchmarkAnnotateBatch in steady state: one op
// is one one-worker service over benchfix.Ingest's 82 batches, of which
// the first two warm it up off the clock and the other 80 are timed. The
// service's candidate memo and the arena free list are warm then, as they
// are for most of a long-running ingest.
func BenchmarkIngestSteady(b *testing.B) {
	const warm, timed = 2, 80
	cat, tabs := benchfix.Ingest(b, warm+timed)
	ctx := context.Background()
	tables := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, err := webtable.NewService(cat, webtable.WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < warm+timed; k++ {
			if k == warm {
				b.StartTimer()
			}
			if _, err := svc.AddTables(ctx, tabs[8*k:8*(k+1)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		svc.Close()
		tables += 8 * timed
	}
	b.ReportMetric(float64(tables)/b.Elapsed().Seconds(), "tables/s")
}

// BenchmarkLoadServing restores benchfix.Serving's 6 000-table, 7-segment
// snapshot with LoadService, as the repository benchmark's serve-single
// workload does. Besides time and allocations it reports heap-B/table:
// the live heap the loaded service adds, read after two collections the
// way that workload reads heap_mb, per table of the corpus.
func BenchmarkLoadServing(b *testing.B) {
	snap, _ := benchfix.Serving(b)
	ctx := context.Background()
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var added, tables float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := live()
		b.StartTimer()
		svc, err := webtable.LoadService(ctx, bytes.NewReader(snap), webtable.WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		added += float64(live()) - float64(before)
		st, _ := svc.CorpusStats()
		tables += float64(st.Tables)
		svc.Close()
		b.StartTimer()
	}
	b.ReportMetric(added/tables, "heap-B/table")
}

// BenchmarkTraining measures one epoch of structured training on a small
// training set.
func BenchmarkTraining(b *testing.B) {
	env := benchEnv(b)
	ds := env.World.WikiManual(0.06)
	ann := core.NewWithIndex(env.World.Public, env.Ann.Index(), feature.DefaultWeights(), env.Ann.Config())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lt := range ds.Tables {
			gold := goldLabels(lt)
			pred := ann.AnnotateLossAugmented(lt.Table, gold, 0.5)
			_ = ann.FeatureVector(lt.Table, pred)
		}
	}
}

// goldLabels converts worldgen ground truth into core gold labels.
func goldLabels(lt worldgen.LabeledTable) core.GoldLabels {
	gold := core.GoldLabels{
		ColumnTypes: make(map[int]catalog.TypeID, len(lt.GT.ColumnTypes)),
		Cells:       make(map[[2]int]catalog.EntityID, len(lt.GT.Cells)),
	}
	for c, T := range lt.GT.ColumnTypes {
		gold.ColumnTypes[c] = T
	}
	for ref, e := range lt.GT.Cells {
		gold.Cells[[2]int{ref.Row, ref.Col}] = e
	}
	return gold
}
