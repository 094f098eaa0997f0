package search

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from Execute")

// pageRunner answers one request over a fixed corpus by some execution
// route (one engine, or a shard split merged back).
type pageRunner struct {
	name string
	run  func(Request) (*Result, error)
}

// TestPagesGolden freezes the ranked pages of the partialFixture,
// variantFixture and fractionCorpus corpora — every mode × page size
// {0, 1, 7} × explain {off, on}, cursors walked to exhaustion, scores
// as IEEE bit patterns — in testdata/pages.golden. The file was written
// by the fused serial scan (aggregate while scanning, no intermediate
// form) before the execution paths were collapsed into one pipeline, and
// every route a query can take must keep reproducing it bit for bit:
// Execute, and 1-, 2- and 3-way ExecutePartial + MergePartials splits.
func TestPagesGolden(t *testing.T) {
	type corpus struct {
		name   string
		cat    *catalog.Catalog
		tables []*table.Table
		anns   []*core.Annotation
		q      Query
	}
	var corpora []corpus
	{
		c, tables, anns, q := partialFixture(t, 24, 7)
		corpora = append(corpora, corpus{"partial", c, tables, anns, q})
	}
	{
		c, tables, anns, q := variantCorpus(t, 24, 7)
		corpora = append(corpora, corpus{"variant", c, tables, anns, q})
	}
	{
		c, tables, anns, q := fractionCorpus(t)
		corpora = append(corpora, corpus{"fraction", c, tables, anns, q})
	}

	// routes[corpus][i] is route i over that corpus; one document per
	// route concatenates the corpora.
	var routes [][]pageRunner
	for _, co := range corpora {
		var rs []pageRunner
		// The route names say par=1 because they are older than the removal
		// of the in-query parallel scan (whose par=2 and par=8 routes went
		// with it); they are kept so that a test's history lines up.
		eng := NewEngine(oneSegment(t, co.cat, co.tables, co.anns))
		rs = append(rs, pageRunner{
			name: "execute/par=1",
			run:  func(req Request) (*Result, error) { return eng.Execute(context.Background(), req) },
		})
		n := len(co.tables)
		for _, cuts := range [][]int{{n}, {n / 2, n}, {n / 3, 2 * n / 3, n}} {
			engines, offsets := shardEngines(t, co.cat, co.tables, co.anns, cuts)
			rs = append(rs, pageRunner{
				name: fmt.Sprintf("partial/%d-way/par=1", len(cuts)),
				run: func(req Request) (*Result, error) {
					partials, stats := collectPartials(t, engines, offsets, Request{Query: req.Query, Mode: req.Mode})
					return MergePartials(partials, stats, req.PageSize, req.Cursor, req.Explain)
				},
			})
		}
		routes = append(routes, rs)
	}

	path := filepath.Join("testdata", "pages.golden")
	render := func(route int) []byte {
		var buf bytes.Buffer
		for ci, co := range corpora {
			renderPages(t, &buf, co.name, co.q, routes[ci][route].run)
		}
		return buf.Bytes()
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, render(0), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestPagesGolden -update to create it)", err)
	}
	for route := range routes[0] {
		name := routes[0][route].name
		t.Run(name, func(t *testing.T) {
			if got := render(route); !bytes.Equal(got, want) {
				t.Fatalf("pages diverge from %s at byte %d:\n%s", path, firstDiff(got, want), diffContext(got, want))
			}
		})
	}
}

// fractionCorpus is partialFixture with the probe column respelled so a
// text probe (no E2 entity) matches it at Jaccard 1/2, 3/5, 3/4, 4/5 and
// 1. Both fixtures above only ever sum evidence of 1 and 1.5, which is
// exact in any order; 3/5 and 4/5 are not binary fractions, so here a
// cluster's score bits change if its evidence is folded in any order
// but the serial scan's — across rows, tables, subject-type runs or
// shards.
func fractionCorpus(t testing.TB) (*catalog.Catalog, []*table.Table, []*core.Annotation, Query) {
	t.Helper()
	c, tables, anns, q := partialFixture(t, 24, 7)
	probes := []string{
		"Solo Auteur Grand Prix",             // 4/4
		"Solo Auteur Grand Prix Winner",      // 4/5
		"Grand Prix Solo",                    // 3/4
		"Solo Auteur Grand Gala",             // 3/5
		"Solo Auteur",                        // 2/4
		"Solo Auteur Grand Prix Gala Winner", // 4/6
		"Unrelated Person",                   // no match
	}
	i := 0
	for _, tab := range tables {
		for _, row := range tab.Cells {
			row[1] = probes[(i*i+i/3)%len(probes)]
			i++
		}
	}
	q.E2, q.E2Text = catalog.None, "Solo Auteur Grand Prix"
	return c, tables, anns, q
}

// renderPages walks every mode × page size × explain combination of one
// corpus to cursor exhaustion and serializes each page. Scores print as
// IEEE-754 bit patterns: the contract is bit-exactness, which %v's
// shortest-round-trip decimal would also pin but hide.
func renderPages(t *testing.T, buf *bytes.Buffer, corpus string, q Query, run func(Request) (*Result, error)) {
	t.Helper()
	for _, mode := range []Mode{Baseline, Type, TypeRel} {
		for _, pageSize := range []int{0, 1, 7} {
			for _, explain := range []bool{false, true} {
				fmt.Fprintf(buf, "== %s mode=%v page_size=%d explain=%v\n", corpus, mode, pageSize, explain)
				cursor := ""
				for page := 0; ; page++ {
					if page > 64 {
						t.Fatalf("%s %v pageSize=%d: runaway pagination", corpus, mode, pageSize)
					}
					res, err := run(Request{Query: q, Mode: mode, PageSize: pageSize, Cursor: cursor, Explain: explain})
					if err != nil {
						t.Fatalf("%s %v pageSize=%d page=%d: %v", corpus, mode, pageSize, page, err)
					}
					fmt.Fprintf(buf, "page %d total=%d next=%q\n", page, res.Total, res.NextCursor)
					for _, a := range res.Answers {
						fmt.Fprintf(buf, "  %q entity=%d score=%016x support=%d\n",
							a.Text, a.Entity, math.Float64bits(a.Score), a.Support)
						if (a.Explanation != nil) != explain {
							t.Fatalf("%s %v: explanation presence = %v, want %v", corpus, mode, a.Explanation != nil, explain)
						}
						if a.Explanation == nil {
							continue
						}
						for _, s := range a.Explanation.Sources {
							fmt.Fprintf(buf, "    src %d %d %d %016x\n", s.Table, s.Row, s.Col, math.Float64bits(s.Score))
						}
						fmt.Fprintf(buf, "    truncated %d\n", a.Explanation.Truncated)
					}
					if cursor = res.NextCursor; cursor == "" {
						break
					}
				}
			}
		}
	}
}

// firstDiff returns the offset of the first differing byte.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// diffContext shows the lines around the first divergence of got from
// want.
func diffContext(got, want []byte) string {
	at := firstDiff(got, want)
	window := func(b []byte) []byte {
		lo := max(0, at-200)
		if i := bytes.LastIndexByte(b[:lo], '\n'); i >= 0 {
			lo = i + 1
		}
		return b[lo:min(len(b), at+200)]
	}
	return fmt.Sprintf("--- got\n%s\n--- want\n%s", window(got), window(want))
}
