// Command tabsearch runs one relational query R(E1 ∈ T1, E2) over a table
// corpus in each of the three modes of §6.2 (baseline / type / type+rel)
// and prints the ranked answers side by side. The corpus is annotated in
// parallel over the service worker pool; Ctrl-C cancels cleanly. -k sets
// the page size, -pages walks the ranking across pagination cursors, and
// -explain prints each answer's contributing table cells.
//
// -load serves a snapshot saved earlier (by -save here, or tabann -save)
// instead of re-annotating a corpus; -json switches the output to the
// exact wire shape of tabserved's POST /v1/search (one JSON object per
// page per mode), so CLI and HTTP results are diffable.
//
// Usage:
//
//	tabsearch -catalog data/catalog.json -corpus data/corpus.json \
//	          -relation wrote -t1 Novel -t2 Novelist -e2 "Some Author" \
//	          [-k 10] [-pages 2] [-explain] [-json] [-save corpus.snap]
//	tabsearch -load corpus.snap -relation wrote -t1 Novel -t2 Novelist -e2 "Some Author"
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	webtable "repro"
	"repro/internal/cmdio"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tabsearch: %v\n", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("missing required flags (-relation -t1 -t2 -e2, plus -catalog/-corpus or -load)")

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tabsearch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		catPath  = fs.String("catalog", "", "catalog JSON path (required)")
		corpus   = fs.String("corpus", "", "table corpus JSON path (required)")
		relName  = fs.String("relation", "", "relation name (required)")
		t1Name   = fs.String("t1", "", "answer type name (required)")
		t2Name   = fs.String("t2", "", "probe type name (required)")
		e2Text   = fs.String("e2", "", "probe entity text (required)")
		topK     = fs.Int("k", 10, "answers per page per mode")
		pages    = fs.Int("pages", 1, "pages of k answers to print per mode")
		explain  = fs.Bool("explain", false, "print contributing table cells per answer")
		debug    = fs.Bool("debug", false, "print per-page execution stats (EXPLAIN ANALYZE); with -json, attach the debug block")
		ctxWords = fs.String("context", "", "baseline context keywords (defaults to relation name)")
		workers  = fs.Int("workers", 0, "annotation workers (0 = GOMAXPROCS)")
		load     = fs.String("load", "", "serve a corpus snapshot instead of annotating -catalog/-corpus: segments are decoded from the file, not rebuilt")
		save     = fs.String("save", "", "write the annotated corpus as a snapshot file after indexing")
		jsonOut  = fs.Bool("json", false, "emit each page as the POST /v1/search wire JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *relName == "" || *t1Name == "" || *t2Name == "" || *e2Text == "" {
		fs.Usage()
		return errUsage
	}
	if (*load == "") == (*catPath == "" || *corpus == "") {
		fs.Usage()
		return errUsage
	}

	var svc *webtable.Service
	if *load != "" {
		var err error
		svc, _, err = cmdio.LoadSnapshotService(ctx, *load, 0, 1, *workers)
		if err != nil {
			return err
		}
		stats, _ := svc.CorpusStats()
		fmt.Fprintf(stderr, "loaded snapshot %s (%d tables, %d segments)\n", *load, stats.Tables, stats.Segments)
	} else {
		cat, err := cmdio.LoadCatalog(*catPath)
		if err != nil {
			return err
		}
		tables, err := cmdio.LoadCorpus(*corpus)
		if err != nil {
			return err
		}
		svc, err = cmdio.NewService(cat, *workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "annotating %d tables (%d workers)...\n", len(tables), svc.Workers())
		if _, err := svc.BuildIndex(ctx, tables); err != nil {
			return fmt.Errorf("build index: %w", err)
		}
	}
	if *save != "" {
		if err := cmdio.SaveSnapshot(ctx, svc, *save); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote snapshot %s\n", *save)
	}

	// Resolve the query up front: unknown relation/type names are hard
	// errors now, not silent no-match queries. An unknown -e2 is fine
	// (text fallback per §5).
	q, err := svc.ResolveQuery(*relName, *t1Name, *t2Name, *e2Text)
	if err != nil {
		return err
	}
	if *ctxWords != "" {
		q.RelationText = *ctxWords
	}

	for _, mode := range []webtable.SearchMode{webtable.SearchBaseline, webtable.SearchType, webtable.SearchTypeRel} {
		rank, cursor := 0, ""
		for page := 0; page < *pages; page++ {
			res, err := svc.Search(ctx, webtable.SearchRequest{
				Query:    q,
				Mode:     mode,
				PageSize: *topK,
				Cursor:   cursor,
				Explain:  *explain,
			})
			if err != nil {
				return fmt.Errorf("search (%v): %w", mode, err)
			}
			if *jsonOut {
				// The exact POST /v1/search response shape, one JSON
				// object per page, newline-delimited; modes in
				// Baseline, Type, Type+Rel order.
				resp := server.ToSearchResponse(svc.Catalog(), res)
				if *debug {
					resp.Debug = &server.SearchDebug{Stats: server.ToExecStatsWire(res.Stats)}
				}
				if err := json.NewEncoder(stdout).Encode(resp); err != nil {
					return fmt.Errorf("encode: %w", err)
				}
				cursor = res.NextCursor
				if cursor == "" {
					break
				}
				continue
			}
			if page == 0 {
				fmt.Fprintf(stdout, "\n== %s (%d answers) ==\n", mode, res.Total)
			}
			for _, a := range res.Answers {
				rank++
				tag := ""
				if a.Entity != webtable.None {
					tag = " [entity]"
				}
				fmt.Fprintf(stdout, "%2d. %-40s score=%.2f support=%d%s\n", rank, a.Text, a.Score, a.Support, tag)
				if a.Explanation != nil {
					for _, src := range a.Explanation.Sources {
						fmt.Fprintf(stdout, "      <- table %d row %d col %d (%.2f)\n", src.Table, src.Row, src.Col, src.Score)
					}
					if a.Explanation.Truncated > 0 {
						fmt.Fprintf(stdout, "      <- ... %d more\n", a.Explanation.Truncated)
					}
				}
			}
			if *debug && res.Stats != nil {
				st := res.Stats
				fmt.Fprintf(stdout, "    -- stats: pairs=%d matched=%d rows=%d segments=%d tombstones=%d eligible=%d\n",
					st.CandidatePairs, st.PairsMatched, st.RowsScanned,
					st.SegmentsVisited, st.TombstonesSkipped, st.AnswersBeforeTopK)
				fmt.Fprintf(stdout, "    -- stage ms: validate=%.3f plan=%.3f scan=%.3f aggregate=%.3f select=%.3f explain=%.3f\n",
					float64(st.Stage.Validate)/1e6, float64(st.Stage.Plan)/1e6, float64(st.Stage.Scan)/1e6,
					float64(st.Stage.Aggregate)/1e6, float64(st.Stage.Select)/1e6, float64(st.Stage.Explain)/1e6)
			}
			cursor = res.NextCursor
			if cursor == "" {
				break
			}
		}
	}
	return nil
}
