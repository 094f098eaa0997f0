// Command tabann annotates a table corpus against a catalog and emits the
// annotations as JSON: per table, the column types, cell entities and
// column-pair relations (na entries omitted), in the same wire shape as
// tabserved's POST /v1/annotate. Tables are annotated in parallel over
// the service worker pool; Ctrl-C cancels cleanly mid-corpus. -save also
// persists the annotated corpus as a snapshot that tabserved -load and
// tabsearch -load serve without re-annotating.
//
// Usage:
//
//	tabann -catalog data/catalog.json -corpus data/corpus.json > annotations.json
//	tabann -catalog data/catalog.json -corpus data/corpus.json -save corpus.snap
//	tabann -catalog data/catalog.json -html page.html -method simple
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
	"time"

	webtable "repro"
	"repro/internal/cmdio"
	"repro/internal/server"
	"repro/internal/snapshot"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tabann: %v\n", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("missing required flags (-catalog plus -corpus or -html)")

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tabann", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		catPath = fs.String("catalog", "", "catalog JSON path (required)")
		corpus  = fs.String("corpus", "", "table corpus JSON path")
		html    = fs.String("html", "", "HTML file to extract tables from (alternative to -corpus)")
		method  = fs.String("method", "collective", "inference: collective|simple|lca|majority")
		filter  = fs.Bool("filter", true, "screen out formatting tables first")
		workers = fs.Int("workers", 0, "annotation workers (0 = GOMAXPROCS)")
		save    = fs.String("save", "", "also write the annotated corpus as a snapshot file (its index segment persisted compiled) for tabserved/tabsearch -load")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *catPath == "" || (*corpus == "" && *html == "") {
		fs.Usage()
		return errUsage
	}

	m, err := webtable.ParseMethod(*method)
	if err != nil {
		return err
	}

	cat, err := cmdio.LoadCatalog(*catPath)
	if err != nil {
		return err
	}

	var tables []*webtable.Table
	if *corpus != "" {
		tables, err = cmdio.LoadCorpus(*corpus)
		if err != nil {
			return err
		}
	} else {
		doc, err := os.ReadFile(*html)
		if err != nil {
			return err
		}
		tables = webtable.ExtractHTML(string(doc), *html)
	}
	if *filter {
		kept, rejected := webtable.FilterRelational(tables)
		if len(rejected) > 0 {
			fmt.Fprintf(stderr, "tabann: screened out %v\n", rejected)
		}
		tables = kept
	}

	svc, err := cmdio.NewService(cat, *workers)
	if err != nil {
		return err
	}

	start := time.Now()
	anns, err := svc.AnnotateCorpus(ctx, tables, webtable.WithMethod(m))
	if err != nil {
		return fmt.Errorf("annotate: %w", err)
	}
	enc := json.NewEncoder(stdout)
	for _, a := range anns {
		if err := enc.Encode(server.ToAnnotation(cat, a)); err != nil {
			return fmt.Errorf("encode: %w", err)
		}
	}
	fmt.Fprintf(stderr, "tabann: %d tables in %v (%s, %d workers)\n",
		len(tables), time.Since(start).Round(time.Millisecond), m, svc.Workers())

	if *save != "" {
		// One-segment live-corpus manifest at generation 1: tabserved
		// -load resumes it as a mutable corpus (POST /v1/tables appends
		// further segments).
		err := cmdio.AtomicWriteFile(*save, func(w io.Writer) error {
			return snapshot.Save(w, &snapshot.Snapshot{
				Catalog:    cat.Snapshot(),
				Segments:   []snapshot.Segment{{ID: 1, Tables: tables, Anns: anns}},
				Generation: 1,
			})
		})
		if err != nil {
			return fmt.Errorf("save snapshot: %w", err)
		}
		fmt.Fprintf(stderr, "tabann: wrote snapshot %s\n", *save)
	}
	return nil
}
