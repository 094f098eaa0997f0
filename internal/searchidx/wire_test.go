package searchidx

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

// oddSegment is a segment of the shapes annotators do not produce but
// the format must carry: no headers, empty and non-ASCII cells,
// spellings that differ only in case or spacing, an annotation grid
// smaller than its table and one larger, a backward relation, an empty
// annotation, a table without one, diagnostics, IDs no catalog holds —
// the least int32 among them, as a spelling's first entity too.
func oddSegment() ([]*table.Table, []*core.Annotation) {
	tables := []*table.Table{
		{ID: "a", Context: "Œuvres — réalisées", Cells: [][]string{
			{"Épopée  Saga", "", "Solo Auteur"},
			{"epic saga", "1999", "SOLO  AUTEUR"},
			{"  ", "n/a", "solo-auteur"},
		}},
		{ID: "b", Headers: []string{"Film", ""}, Cells: [][]string{{"Epic Saga", "Solo Auteur"}, {"EPIC SAGA", "x"}}},
		{ID: "c", Headers: []string{"only"}, Cells: [][]string{{"\xff\xfe not utf-8"}}},
		{ID: "", Context: "no id, no annotation", Cells: [][]string{{"Epic Saga"}}},
		{ID: "e", Cells: [][]string{{"solo auteur", "Epic Saga"}, {"solo auteur", "Epic Saga"}}},
	}
	anns := []*core.Annotation{
		{
			TableID:      "a",
			ColumnTypes:  []catalog.TypeID{1, catalog.None, 3},
			CellEntities: [][]catalog.EntityID{{7, catalog.None, 0}, {7, catalog.None, 0}},
			Relations:    []core.RelationAnnotation{{Col1: 2, Col2: 0, Relation: 0, Forward: false}, {Col1: 0, Col2: 2, Relation: 5, Forward: true}},
			Diag:         core.Diagnostics{CandidateGen: 1234567, GraphBuild: 89 * time.Microsecond, Inference: time.Hour, Iterations: 3, Converged: true, NumVars: 17, NumFactors: 29},
		},
		{
			ColumnTypes:  []catalog.TypeID{1, 3, 4},
			CellEntities: [][]catalog.EntityID{{7, 0, 9}, {8, catalog.None, 9}, {7, 7, 7}},
			Diag:         core.Diagnostics{Iterations: 1},
		},
		{},
		nil,
		{TableID: "e", ColumnTypes: []catalog.TypeID{-7, 1 << 30}, CellEntities: [][]catalog.EntityID{{-2147483648, -2147483648}, {0, catalog.None}}},
	}
	return tables, anns
}

// TestSegmentRoundTrip: the index BuildContext compiles from tables and
// annotations, the one decoded from its dump and the one decoded from
// what AppendSegment writes are one segment field for field —
// dictionaries, IDs, cell arrays, metadata and every posting list — dump
// to the same bytes, and materialise the tables and annotations they
// came from (CheckOnePath).
func TestSegmentRoundTrip(t *testing.T) {
	c, benchTables, benchAnns, _, _ := benchCorpus(t, 40, 12)
	oddTables, oddAnns := oddSegment()
	for _, tc := range []struct {
		name   string
		tables []*table.Table
		anns   []*core.Annotation
	}{
		{"bench", benchTables, benchAnns},
		{"unannotated", benchTables, nil},
		{"no annotation present", benchTables[:3], make([]*core.Annotation, 3)},
		{"odd shapes", oddTables, oddAnns},
		{"one table", benchTables[:1], benchAnns[:1]},
		{"empty", nil, nil},
		{"empty annotated", nil, []*core.Annotation{}},
	} {
		CheckOnePath(t, tc.name, c, tc.tables, tc.anns, false)
	}
}

// TestAppendSegmentRejects: shapes DecodeSegment would refuse are
// refused when writing, so that nothing written fails to load.
func TestAppendSegmentRejects(t *testing.T) {
	tab := &table.Table{ID: "t", Cells: [][]string{{"a", "b"}}}
	for name, tc := range map[string]struct {
		tables []*table.Table
		anns   []*core.Annotation
	}{
		"annotation count":    {[]*table.Table{tab}, []*core.Annotation{}},
		"ragged table":        {[]*table.Table{{ID: "r", Cells: [][]string{{"a"}, {"b", "c"}}}}, nil},
		"empty table":         {[]*table.Table{{ID: "e"}}, nil},
		"ragged annotation":   {[]*table.Table{tab}, []*core.Annotation{{ColumnTypes: []catalog.TypeID{0, 1}, CellEntities: [][]catalog.EntityID{{0}}}}},
		"rows without column": {[]*table.Table{tab}, []*core.Annotation{{CellEntities: [][]catalog.EntityID{{}}}}},
		"relation column":     {[]*table.Table{tab}, []*core.Annotation{{ColumnTypes: []catalog.TypeID{0, 1}, Relations: []core.RelationAnnotation{{Col1: 0, Col2: 2}}}}},
		"negative relation":   {[]*table.Table{tab}, []*core.Annotation{{ColumnTypes: []catalog.TypeID{0, 1}, Relations: []core.RelationAnnotation{{Col1: -1, Col2: 1}}}}},
	} {
		if _, err := AppendSegment(nil, tc.tables, tc.anns); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeSegmentRejectsDamage: every truncation of a valid segment,
// and a trailing byte, is ErrBadSegment, a truncation's naming a byte
// offset within what is left; a flipped bit is ErrBadSegment
// or a segment that decodes (it may have hit a string or an ID with
// room to move) — never a panic. A segment that lists one normalized
// text twice is ErrBadSegment, by DecodeSegment and DecodeTables alike,
// though the same cells with the text listed once decode.
func TestDecodeSegmentRejectsDamage(t *testing.T) {
	tables, anns := oddSegment()
	data, err := AppendSegment(nil, tables, anns)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for n := 0; n < len(data); n++ {
		_, err := DecodeSegment(ctx, data[:n])
		if !errors.Is(err, ErrBadSegment) {
			t.Fatalf("truncated at %d of %d: err = %v, want ErrBadSegment", n, len(data), err)
		}
		if at := faultAt(err); at < 0 || at > n {
			t.Fatalf("truncated at %d of %d: err = %q names no byte offset within the prefix", n, len(data), err)
		}
	}
	if _, err := DecodeSegment(ctx, append(append([]byte(nil), data...), 0)); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("trailing byte: err = %v, want ErrBadSegment", err)
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			damaged := append([]byte(nil), data...)
			damaged[i] ^= 1 << bit
			if _, err := DecodeSegment(ctx, damaged); err != nil && !errors.Is(err, ErrBadSegment) {
				t.Fatalf("bit %d of byte %d: err = %v, want ErrBadSegment or nil", bit, i, err)
			}
		}
	}

	// One 1×2 table spelled "A", "a": one table, no annotations, two
	// spellings, then the blob, each spelling's length and text, the
	// table's ID and context lengths, shape and no headers, and both
	// cells new.
	once := []byte{1, 0, 2, 1, 3, 'A', 'a', 'a', 1, 0, 1, 1, 1, 0, 0, 1, 2, 0, 0, 0}
	if _, err := DecodeSegment(ctx, once); err != nil {
		t.Fatalf("two spellings of one text: %v", err)
	}
	twice := []byte{1, 0, 2, 2, 4, 'A', 'a', 'a', 'a', 1, 0, 1, 1, 0, 1, 0, 0, 1, 2, 0, 0, 0}
	if _, err := DecodeSegment(ctx, twice); !errors.Is(err, ErrBadSegment) || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("text listed twice: err = %v, want ErrBadSegment", err)
	}
	if _, _, err := DecodeTables(ctx, twice); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("text listed twice, DecodeTables: err = %v, want ErrBadSegment", err)
	}
}

var faultOffset = regexp.MustCompile(`byte (\d+)`)

// faultAt returns the byte offset a decode error names, or -1.
func faultAt(err error) int {
	m := faultOffset.FindStringSubmatch(err.Error())
	if m == nil {
		return -1
	}
	at, _ := strconv.Atoi(m[1])
	return at
}

// TestDecodeSegmentObservesCancellation: a dead context stops a decode.
func TestDecodeSegmentObservesCancellation(t *testing.T) {
	_, tables, anns, _, _ := benchCorpus(t, 8, 4)
	data, err := AppendSegment(nil, tables, anns)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecodeSegment(ctx, data); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDecodeSegmentAllocations: decoding allocates per table and per
// distinct token, never per cell or per row — the cells are two arrays
// per segment and no table or annotation object is built. Two segments
// of the same 64 tables' worth of headers, annotations and distinct
// strings, one with five times the rows of the other, must cost the same
// number of allocations (give or take a stray one the runtime makes),
// and no more than 9.7 per table (measured: 7.6; 9.4 when an
// annotation's column types and relations were objects of their own): the
// normalized spelling of the table's context and of each header while
// their tokens are posted, and the growth steps of the posting lists and
// annotation runs it lands on.
func TestDecodeSegmentAllocations(t *testing.T) {
	allocs := func(rows int) float64 {
		_, tables, anns, _, _ := benchCorpus(t, 64, rows)
		// The same strings whatever the row count: cells cycle through a
		// fixed pool, so only the number of cells differs.
		for _, tab := range tables {
			for r, row := range tab.Cells {
				row[0], row[1], row[2] = fmt.Sprintf("Film %d", r%8), fmt.Sprintf("Director %d", r%8), fmt.Sprint(1950+r%8)
			}
		}
		data, err := AppendSegment(nil, tables, anns)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := DecodeSegment(context.Background(), data); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(8), allocs(40)
	t.Logf("allocations per decode of 64 tables: %v with 8 rows each, %v with 40", few, many)
	if many > few+4 {
		t.Errorf("decoding 5x the cells takes %v allocations, %v for the smaller segment: something is allocated per cell or per row", many, few)
	}
	if many > 9.7*64 {
		t.Errorf("%v allocations for 64 tables, budget 9.7 per table", many)
	}
}
