package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/feature"
	"repro/internal/search"
	"repro/internal/searchidx"
	"repro/internal/segment"
	"repro/internal/table"
	"repro/internal/worldgen"
)

// ---------------------------------------------------------------------
// Figure 5: dataset summary.
// ---------------------------------------------------------------------

// Figure5 generates the four datasets and returns their summary rows.
func (e *Env) Figure5() []worldgen.DatasetStats {
	return []worldgen.DatasetStats{
		e.World.WikiManual(e.Scale).Stats(),
		e.World.WebManual(e.Scale).Stats(),
		e.World.WebRelations(e.Scale).Stats(),
		e.World.WikiLink(e.Scale * 0.1).Stats(), // WikiLink is 6085 tables at scale 1; keep it 10x lighter
	}
}

// PrintFigure5 renders the Figure-5 table.
func PrintFigure5(w io.Writer, rows []worldgen.DatasetStats) {
	fmt.Fprintln(w, "Figure 5: Summary of data sets")
	fmt.Fprintf(w, "%-14s %8s %9s %9s %7s %5s\n", "Dataset", "#Tables", "AvgRows", "Entity", "Type", "Rel")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %9.1f %9d %7d %5d\n",
			r.Name, r.Tables, r.AvgRows, r.EntityGT, r.TypeGT, r.RelationGT)
	}
}

// ---------------------------------------------------------------------
// Figure 6: annotation accuracy, LCA vs Majority vs Collective.
// ---------------------------------------------------------------------

// MethodScores holds one accuracy row of Figure 6.
type MethodScores struct {
	Dataset    string
	LCA        float64
	Majority   float64
	Collective float64
}

// Fig6Result groups the three tasks of Figure 6.
type Fig6Result struct {
	Entity   []MethodScores // 0/1 accuracy
	Type     []MethodScores // F1
	Relation []MethodScores // F1 (LCA column stays 0: LCA emits no relations)
}

// Figure6 runs all three methods over the Figure-6 dataset matrix:
// entity accuracy on WikiManual/WebManual/WikiLink, type F1 on
// WikiManual/WebManual, relation F1 on WikiManual/WebRelations/WebManual.
func (e *Env) Figure6() Fig6Result {
	wiki := e.World.WikiManual(e.Scale)
	web := e.World.WebManual(e.Scale)
	webRel := e.World.WebRelations(e.Scale)
	link := e.World.WikiLink(e.Scale * 0.1)

	type scored struct {
		entity      eval.Counts
		typeP, relP eval.PRF
	}
	run := func(ds worldgen.Dataset) (lca, maj, col scored) {
		for _, lt := range ds.Tables {
			l := e.Ann.AnnotateLCA(lt.Table)
			m := e.Ann.AnnotateMajority(lt.Table)
			c := e.Ann.AnnotateCollective(lt.Table)

			lca.entity.Add(eval.EntityCells(&l.Annotation, lt.GT))
			maj.entity.Add(eval.EntityCells(&m.Annotation, lt.GT))
			col.entity.Add(eval.EntityCells(c, lt.GT))

			lca.typeP.Add(eval.ColumnTypesSet(l.ColumnTypeSets, lt.GT))
			maj.typeP.Add(eval.ColumnTypesSet(m.ColumnTypeSets, lt.GT))
			col.typeP.Add(eval.ColumnTypesSingle(c, lt.GT))

			maj.relP.Add(eval.Relations(m.Relations, lt.GT))
			col.relP.Add(eval.Relations(c.Relations, lt.GT))
		}
		return lca, maj, col
	}

	wikiL, wikiM, wikiC := run(wiki)
	webL, webM, webC := run(web)
	_, webRelM, webRelC := run(webRel)
	linkL, linkM, linkC := run(link)

	return Fig6Result{
		Entity: []MethodScores{
			{"WikiManual", 100 * wikiL.entity.Accuracy(), 100 * wikiM.entity.Accuracy(), 100 * wikiC.entity.Accuracy()},
			{"WebManual", 100 * webL.entity.Accuracy(), 100 * webM.entity.Accuracy(), 100 * webC.entity.Accuracy()},
			{"WikiLink", 100 * linkL.entity.Accuracy(), 100 * linkM.entity.Accuracy(), 100 * linkC.entity.Accuracy()},
		},
		Type: []MethodScores{
			{"WikiManual", 100 * wikiL.typeP.F1(), 100 * wikiM.typeP.F1(), 100 * wikiC.typeP.F1()},
			{"WebManual", 100 * webL.typeP.F1(), 100 * webM.typeP.F1(), 100 * webC.typeP.F1()},
		},
		Relation: []MethodScores{
			{"WikiManual", 0, 100 * wikiM.relP.F1(), 100 * wikiC.relP.F1()},
			{"WebRelations", 0, 100 * webRelM.relP.F1(), 100 * webRelC.relP.F1()},
			{"WebManual", 0, 100 * webM.relP.F1(), 100 * webC.relP.F1()},
		},
	}
}

// PrintFigure6 renders the three accuracy tables.
func PrintFigure6(w io.Writer, r Fig6Result) {
	section := func(title string, rows []MethodScores, lcaNA bool) {
		fmt.Fprintf(w, "\n%s\n", title)
		fmt.Fprintf(w, "%-14s %8s %9s %11s\n", "Dataset", "LCA", "Majority", "Collective")
		for _, row := range rows {
			lca := fmt.Sprintf("%8.2f", row.LCA)
			if lcaNA {
				lca = "       -"
			}
			fmt.Fprintf(w, "%-14s %s %9.2f %11.2f\n", row.Dataset, lca, row.Majority, row.Collective)
		}
	}
	fmt.Fprintln(w, "Figure 6: Accuracy of entity, type, and relation annotations")
	section("Entity annotation accuracy (0/1)", r.Entity, false)
	section("Type annotation accuracy (F1)", r.Type, false)
	section("Relation annotation accuracy (F1)", r.Relation, true)
}

// ---------------------------------------------------------------------
// Figure 7: annotation time.
// ---------------------------------------------------------------------

// Fig7Result summarizes per-table annotation latency over a corpus
// snapshot, split into candidate generation, potential construction and
// inference. The paper reports ~80% lemma probing / similarity and <1%
// inference; this repo, whose lemmas are compiled once at index build,
// measures about 44% / 35% / 21% (see the lemmaindex package comment).
// The three fractions partition Diagnostics.Total, so they sum to 1.
type Fig7Result struct {
	Tables        int
	TotalTime     time.Duration
	AvgPerTable   time.Duration
	MaxPerTable   time.Duration
	CandGenFrac   float64 // fraction of time in candidate generation
	GraphFrac     float64 // fraction in potential construction
	InferenceFrac float64 // fraction in message passing
	// PerTable is the latency series (the scatter of Figure 7).
	PerTable []time.Duration
}

// Figure7 annotates a corpus snapshot of n tables and measures timing.
func (e *Env) Figure7(n int) Fig7Result {
	ds := e.World.GenerateDatasetForTiming(n)
	var res Fig7Result
	var cand, graph, infer time.Duration
	for _, lt := range ds.Tables {
		ann := e.Ann.AnnotateCollective(lt.Table)
		d := ann.Diag
		total := d.Total()
		res.PerTable = append(res.PerTable, total)
		res.TotalTime += total
		if total > res.MaxPerTable {
			res.MaxPerTable = total
		}
		cand += d.CandidateGen
		graph += d.GraphBuild
		infer += d.Inference
	}
	res.Tables = len(ds.Tables)
	if res.Tables > 0 {
		res.AvgPerTable = res.TotalTime / time.Duration(res.Tables)
	}
	if res.TotalTime > 0 {
		res.CandGenFrac = float64(cand) / float64(res.TotalTime)
		res.GraphFrac = float64(graph) / float64(res.TotalTime)
		res.InferenceFrac = float64(infer) / float64(res.TotalTime)
	}
	return res
}

// PrintFigure7 renders the timing summary.
func PrintFigure7(w io.Writer, r Fig7Result) {
	fmt.Fprintln(w, "Figure 7: Time spent in annotating tables")
	fmt.Fprintf(w, "tables=%d total=%v avg/table=%v max/table=%v\n",
		r.Tables, r.TotalTime.Round(time.Millisecond), r.AvgPerTable.Round(time.Microsecond), r.MaxPerTable.Round(time.Microsecond))
	fmt.Fprintf(w, "time split: candidate-gen %.1f%%  potential-build %.1f%%  inference %.1f%%\n",
		100*r.CandGenFrac, 100*r.GraphFrac, 100*r.InferenceFrac)
	// Compact latency histogram instead of the paper's scatter plot.
	buckets := []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond, time.Second}
	counts := make([]int, len(buckets)+1)
	for _, d := range r.PerTable {
		placed := false
		for i, b := range buckets {
			if d <= b {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(buckets)]++
		}
	}
	labels := []string{"<=1ms", "<=5ms", "<=20ms", "<=100ms", "<=1s", ">1s"}
	for i, l := range labels {
		fmt.Fprintf(w, "  %-8s %d\n", l, counts[i])
	}
}

// ---------------------------------------------------------------------
// Figure 8: type-entity compatibility feature ablation.
// ---------------------------------------------------------------------

// Fig8Row is one (mode, dataset) accuracy pair.
type Fig8Row struct {
	Mode      string
	Dataset   string
	EntityAcc float64 // percent
	TypeF1    float64 // percent
}

// Figure8 evaluates the three f3 settings of §4.2.3 on WikiManual and
// WebManual, reusing one lemma index across modes.
func (e *Env) Figure8() []Fig8Row {
	wiki := e.World.WikiManual(e.Scale)
	web := e.World.WebManual(e.Scale)
	var out []Fig8Row
	for _, mode := range []feature.TypeEntityMode{feature.ModeSqrtDist, feature.ModeDist, feature.ModeIDF} {
		cfg := e.Ann.Config()
		cfg.Mode = mode
		ann := core.NewWithIndex(e.World.Public, e.Ann.Index(), e.Ann.Weights(), cfg)
		for _, ds := range []worldgen.Dataset{wiki, web} {
			var ec eval.Counts
			var tp eval.PRF
			for _, lt := range ds.Tables {
				c := ann.AnnotateCollective(lt.Table)
				ec.Add(eval.EntityCells(c, lt.GT))
				tp.Add(eval.ColumnTypesSingle(c, lt.GT))
			}
			out = append(out, Fig8Row{
				Mode: mode.String(), Dataset: ds.Name,
				EntityAcc: 100 * ec.Accuracy(), TypeF1: 100 * tp.F1(),
			})
		}
	}
	return out
}

// PrintFigure8 renders the ablation table.
func PrintFigure8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintln(w, "Figure 8: Type-entity compatibility features")
	fmt.Fprintf(w, "%-14s %-14s %10s %8s\n", "Mode", "Dataset", "EntityAcc", "TypeF1")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-14s %10.2f %8.2f\n", r.Mode, r.Dataset, r.EntityAcc, r.TypeF1)
	}
}

// ---------------------------------------------------------------------
// Figure 9: search MAP.
// ---------------------------------------------------------------------

// Fig9Row is the MAP of the three search modes on one relation.
type Fig9Row struct {
	Relation string
	Baseline float64
	Type     float64
	TypeRel  float64
}

// Figure9 generates a search corpus, annotates it collectively, indexes
// it, and evaluates the query workload under the three modes of §6.2.
func (e *Env) Figure9(corpusTables, queriesPerRel int) []Fig9Row {
	corpus := e.World.SearchCorpus(corpusTables, e.World.Spec.Seed+900)
	tables := make([]*table.Table, len(corpus.Tables))
	anns := make([]*core.Annotation, len(corpus.Tables))
	for i, lt := range corpus.Tables {
		tables[i] = lt.Table
		anns[i] = e.Ann.AnnotateCollective(lt.Table)
	}
	ix, err := searchidx.BuildContext(context.Background(), e.World.Public, tables, anns)
	if err != nil {
		panic(fmt.Sprintf("experiments: figure 9 index: %v", err))
	}
	st, err := segment.New(e.World.Public, segment.Config{Seeds: []segment.Seed{{Index: ix}}})
	if err != nil {
		panic(fmt.Sprintf("experiments: figure 9 corpus: %v", err))
	}
	defer st.Close()
	engine := search.NewEngine(st.View())

	queries := e.World.SearchWorkload(worldgen.SearchRelations, queriesPerRel, e.World.Spec.Seed+901)
	aps := make(map[string]map[search.Mode][]float64)
	for _, q := range queries {
		if aps[q.RelationName] == nil {
			aps[q.RelationName] = make(map[search.Mode][]float64)
		}
		for _, mode := range []search.Mode{search.Baseline, search.Type, search.TypeRel} {
			// MAP evaluates the full ranking: PageSize 0 requests every
			// answer in one page. With a background context and these
			// fixed request shapes an error means the harness itself is
			// broken — fail loudly rather than skew the figure by
			// silently dropping queries.
			res, err := engine.Execute(context.Background(), e.World.Request(q, mode, 0))
			if err != nil {
				panic(fmt.Sprintf("experiments: figure 9 query failed: %v", err))
			}
			ranked := make([]string, len(res.Answers))
			for i, a := range res.Answers {
				ranked[i] = a.Text
			}
			ap := eval.AveragePrecision(ranked, q.WantE1, e.World.True)
			aps[q.RelationName][mode] = append(aps[q.RelationName][mode], ap)
		}
	}
	var out []Fig9Row
	var names []string
	for name := range aps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, Fig9Row{
			Relation: name,
			Baseline: eval.MeanAveragePrecision(aps[name][search.Baseline]),
			Type:     eval.MeanAveragePrecision(aps[name][search.Type]),
			TypeRel:  eval.MeanAveragePrecision(aps[name][search.TypeRel]),
		})
	}
	return out
}

// PrintFigure9 renders the MAP table.
func PrintFigure9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9: MAP for attribute-value queries")
	fmt.Fprintf(w, "%-12s %9s %7s %9s\n", "Relation", "Baseline", "Type", "Type+Rel")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %9.3f %7.3f %9.3f\n", r.Relation, r.Baseline, r.Type, r.TypeRel)
	}
}
