// Package searchidx is the corpus index of the search application (§5):
// the stand-in for the paper's Lucene index over 25M web tables. One
// Index is one immutable compiled segment — a batch of tables, with
// their annotations when they have any, laid out for the one thing the
// query processor of Figures 3 and 4 does: walk candidate column pairs
// and look for E2 down the object column.
//
// # The compiled segment
//
// Cells are dictionary-encoded. The segment interns every distinct raw
// cell spelling once (and the text it normalizes to), every distinct
// normalized text once (its spelling, its number of distinct tokens and
// the spellings that normalize to it) and every distinct token once (the
// ascending IDs of the texts that contain it). A table is then stored
// column-major: each column is a contiguous run of raw-spelling IDs and
// a parallel run of entity annotations (catalog.None where the cell has
// none). Nothing per cell holds a pointer, a string or a map.
//
// A query never compares strings against cells. Its E2 probe is compiled
// once per segment into a MatchSet — the handful of spellings it
// matches, ascending, each with the evidence of its text: |Q∩C| / |Q∪C|
// over distinct tokens for every text where that reaches 0.5, counted
// off the token postings with the same integers the map-based matcher
// used (oracle_test.go keeps that matcher as the reference); the text
// spelled like the probe shares all of the probe's tokens and no other,
// so it gets exactly 1. ScanColumn then walks a column slice at an
// entity compare and a one-word bit test per row; only the few cells
// those do not settle are looked up in the MatchSet.
//
// Candidate retrieval is posting lists, all in ascending table order so
// a plan can walk them in place: oriented column pairs per relation
// (annotated column types baked in), every ordered pair of distinct
// type-annotated columns keyed by the subject column's type, and for
// the string baseline header-token → (table, column) and context-token
// → table.
//
// What is not indexed: there is no cell-token → cell posting list and
// no entity → cell posting list. No query path ever probed a cell by
// token or by entity — both modes reach cells through candidate columns
// — and at web-table scale those two maps and the per-cell token sets
// they came with were three quarters of the serving heap.
//
// # What a segment holds
//
// The compiled form is the only form: a segment keeps no table.Table and
// no core.Annotation, and nothing the caller handed in — BuildContext
// copies what it keeps, so mutating a table afterwards changes nothing.
// Every string of the segment lives once in one blob: each distinct raw
// cell spelling, each distinct normalized text, and the tables' IDs,
// contexts and headers. Everything else is integers:
//
//   - stored: the raw dictionary (where a spelling lies in the blob and
//     which text it normalizes to), the text dictionary (where a text
//     lies), two parallel column-major cell arrays (raw-spelling ID,
//     entity), per table its shape and where its strings lie, and per
//     annotation one fixed record — its diagnostics, its entity grid's
//     shape and where its column types, its relations and, only when
//     that shape is not the table's, its grid lie in three runs the
//     segment's annotations share. Beside its cells and strings a table
//     costs a fixed number of bytes and no heap object of its own;
//   - derived from those, by derive, for a built segment and a loaded
//     one alike: each text's spellings, token postings, the ID index (the
//     local table numbers sorted by ID, which is how a segmented corpus
//     finds a table by ID), header, context, relation and typed-pair
//     postings;
//   - materialised on demand, for the callers that want objects
//     (snapshot.Load, compaction, tools, tests): Table and Annotation
//     assemble a table.Table and a core.Annotation whose strings are
//     substrings of the blob.
//
// Spellings and texts are numbered in order of first appearance walking
// tables, then rows, then columns. That numbering has one author,
// intern: BuildContext is intern then derive, and the persistent form
// (wire.go) is a dump of what intern left — AppendSegment is intern then
// that dump, DecodeSegment fills the same arrays from the dump and then
// derives. So a loaded segment equals a built one field for field, a
// query cannot tell them apart, and a restart never parses, normalizes
// or interns a cell. The price is that this package's layout is a file
// format: changing what a segment stores, or the order IDs are assigned
// in, is a new snapshot format version (internal/snapshot), with the old
// decoder kept for the files already written.
package searchidx

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/text"
)

// ColKey is one header posting: a segment-local table and a column,
// packed table-major so postings order — and merge — as plain integers.
type ColKey uint64

// Table returns the posting's segment-local table number.
func (k ColKey) Table() int32 { return int32(k >> 32) }

// Col returns the posting's column.
func (k ColKey) Col() int32 { return int32(uint32(k)) }

// ColumnPair is one precomputed candidate column pair: an oriented
// (subject, object) pairing of two distinct annotated columns of one
// table, with their annotated types baked in so the query processor can
// test type compatibility without further lookups.
type ColumnPair struct {
	Table, SubjCol, ObjCol int32
	SubjType, ObjType      catalog.TypeID
}

// Index is one compiled segment: a batch of tables with their optional
// annotations, and everything derived from them at build time. It is
// immutable and safe for concurrent use.
type Index struct {
	cat *catalog.Catalog

	// Baseline posting lists, ascending.
	headerPost  map[string][]ColKey
	contextPost map[string][]int32

	// relPairs holds the oriented candidate pairs per relation;
	// typedPairs every ordered pair of distinct type-annotated columns,
	// keyed by the subject column's annotated type, and subjTypes its keys
	// in ascending order. Lists ascend by table, per-table in annotation
	// order.
	relPairs   map[catalog.RelationID][]ColumnPair
	typedPairs map[catalog.TypeID][]ColumnPair
	subjTypes  []catalog.TypeID

	// blob holds every string of the segment exactly once, in the order
	// the persistent form lists them (wire.go): each raw spelling followed
	// by its normalized text when no earlier spelling had that text, then
	// per table its ID, context and headers, then the annotations' table
	// IDs. A strRef is a string of it.
	blob string
	// The raw dictionary: ID → the spelling and the ID of the text it
	// normalizes to.
	raws []rawSpelling
	// The text dictionary: ID → normalized spelling, distinct-token count
	// and the ascending IDs of the spellings that normalize to it. The
	// empty spelling (a blank or punctuation-only cell) has an ID like any
	// other.
	texts      []strRef
	textTokens []uint32
	textRaws   csr
	// The token dictionary: token → ID → ascending IDs of the texts
	// containing it.
	tokenIDs   map[string]uint32
	tokenTexts csr

	// Per table: where its strings lie and how wide it is (spans has its
	// height), its headers as a run of headers, and its annotation. anns
	// is nil when the segment was built without an annotation list; the
	// annotations' column types, relations and own-shape entity grids lie
	// in three runs, in table order, that their metadata addresses.
	tables   []tableMeta
	headers  []strRef
	anns     []annMeta
	annTypes []catalog.TypeID
	annRels  []relMeta
	annGrid  []catalog.EntityID
	// byID is the local table numbers sorted by ID, then by number.
	byID []uint32

	// Column-major cells: column c of table t is the spans[t].rows
	// entries of cellRaw and cellEnts from spans[t].off+c*spans[t].rows —
	// the cell's spelling as the source wrote it (raws gives its text) and
	// its entity annotation (catalog.None without one).
	spans    []tableSpan
	cellRaw  []uint32
	cellEnts []catalog.EntityID

	// identity maps every table to itself: the local→global table map of
	// an index serving as a whole corpus.
	identity []int32

	resident ResidentBytes
}

// tableSpan locates one table's cells: where they start and how many
// rows each column runs for.
type tableSpan struct{ off, rows uint32 }

// strRef is one string of a segment's blob.
type strRef struct{ off, len uint32 }

func (ix *Index) str(r strRef) string { return ix.blob[r.off : r.off+r.len] }

// rawSpelling is one entry of the raw dictionary.
type rawSpelling struct {
	strRef
	text uint32
}

// csr is a compressed sparse row run: key k's ascending IDs are
// ids[off[k]:off[k+1]], all keys' in one array.
type csr struct{ off, ids []uint32 }

func (r *csr) of(k uint32) []uint32 { return r.ids[r.off[k]:r.off[k+1]] }

// groupBy returns the csr run over keys [0, keys) that lists, for each,
// val(i) of every i in [0, n) with key(i) = k, in ascending order of i.
func groupBy(keys, n int, key, val func(i int) uint32) csr {
	r := csr{off: make([]uint32, keys+1), ids: make([]uint32, n)}
	for i := range n {
		r.off[key(i)]++
	}
	for k := 1; k < keys; k++ {
		r.off[k] += r.off[k-1]
	}
	r.off[keys] = uint32(n)
	// Each off[k] now ends its run; placing from the back leaves it at the
	// run's start.
	for i := n - 1; i >= 0; i-- {
		k := key(i)
		r.off[k]--
		r.ids[r.off[k]] = val(i)
	}
	return r
}

// tableMeta is what a segment keeps of a table beside its cells. headers
// is the index of its first header in Index.headers, -1 for a table
// without a header row.
type tableMeta struct {
	id, context strRef
	cols        uint32
	headers     int32
}

// annMeta is what a segment keeps of an annotation beside the entities
// in cellEnts, a fixed record without a pointer: the zero annMeta for a
// table without one. rows × cols is the shape of its entity grid, cols
// also the number of its column types, annTypes[types:]; its relations
// are annRels[rels:][:nRels]. When the grid's shape is the table's it is
// the table's run of cellEnts; otherwise annGrid[grid:] holds it,
// row-major (and cellEnts the part of it over the table). diag holds the
// diagnostics' integers in their order.
type annMeta struct {
	tableID     strRef
	rows, cols  uint32
	types, grid uint32
	rels, nRels uint32
	diag        [6]int64
	flags       uint8
}

// annConverged is annMeta's flag, never persisted, for Diagnostics.Converged.
const annConverged = 1 << 2

// relMeta is one relation of an annotation, packed: 16 bytes where a
// core.RelationAnnotation takes 24.
type relMeta struct {
	col1, col2 uint32
	rel        catalog.RelationID
	forward    bool
}

// exact returns s in an array of its own length, so that what append
// grew while a segment was filled is not kept with it.
func exact[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// New builds an index over a corpus. anns may be nil (baseline mode) or
// parallel to tables; a nil entry disables annotation lookups for that
// table. Invalid input (see BuildContext) panics with the cause — New
// has no error return, and a silent nil index would only defer the crash
// to the first lookup. Use BuildContext to handle the error instead.
func New(cat *catalog.Catalog, tables []*table.Table, anns []*core.Annotation) *Index {
	ix, err := BuildContext(context.Background(), cat, tables, anns)
	if err != nil {
		panic(err)
	}
	return ix
}

// rowCheckInterval is how many cells are indexed between context polls,
// mirroring the row-scan idiom in internal/search/exec.go. Power of two
// so the check compiles to a mask, not a division.
const rowCheckInterval = 1024

// BuildContext is New with input validation and cancellation. It accepts
// what a snapshot can hold, so that whatever is indexed can be saved: a
// non-nil anns slice must be parallel to tables, every table must pass
// Validate, and an annotation must be a rectangular grid as wide as its
// column types (and empty when it has none) whose relations name columns
// of that grid — the shapes annotators produce. A segment whose tables,
// cells or string bytes outnumber what its 32-bit IDs and offsets can
// address is refused (distinct spellings, texts and tokens cannot
// outnumber those). The
// index copies what it keeps: the caller's tables and annotations are
// not referenced once BuildContext returns. The context is checked
// between tables — and every rowCheckInterval cells within a table — so
// indexing a corpus with one oversized table still aborts promptly.
func BuildContext(ctx context.Context, cat *catalog.Catalog, tables []*table.Table, anns []*core.Annotation) (*Index, error) {
	ix, err := intern(ctx, cat, tables, anns)
	if err != nil {
		return nil, err
	}
	if err := ix.derive(ctx); err != nil {
		return nil, err
	}
	return ix, nil
}

// layCells sizes the cell arrays for the tables whose spans are set: no
// spelling chosen yet and no entity in any cell.
func (ix *Index) layCells(cells uint64) {
	ix.cellRaw = make([]uint32, cells)
	ix.cellEnts = make([]catalog.EntityID, cells)
	for i := range ix.cellEnts {
		ix.cellEnts[i] = catalog.None
	}
}

// intern compiles everything a segment stores — the blob, both
// dictionaries, the cell arrays, table and annotation metadata — from
// tables and annotations, and derives nothing. It is the one place a
// cell is normalized and the one author of the numbering the persistent
// form relies on: a spelling gets the next raw ID the first time a cell,
// walking tables, then rows, then columns, is spelled that way, and only
// then is it normalized and its text, if new, given the next text ID.
func intern(ctx context.Context, cat *catalog.Catalog, tables []*table.Table, anns []*core.Annotation) (*Index, error) {
	if anns != nil && len(anns) != len(tables) {
		return nil, fmt.Errorf("searchidx: %d annotations for %d tables", len(anns), len(tables))
	}
	if len(tables) > math.MaxInt32 {
		return nil, fmt.Errorf("searchidx: %d tables exceed one segment's 32-bit table numbers", len(tables))
	}
	ix := &Index{
		cat:      cat,
		tables:   make([]tableMeta, len(tables)),
		spans:    make([]tableSpan, len(tables)),
		identity: make([]int32, len(tables)),
	}
	cells := uint64(0)
	for ti, t := range tables {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		ix.identity[ti] = int32(ti)
		ix.spans[ti] = tableSpan{off: uint32(cells), rows: uint32(t.Rows())}
		if cells += uint64(t.Rows()) * uint64(t.Cols()); cells > math.MaxUint32 {
			return nil, fmt.Errorf("searchidx: more than %d cells in one segment (at table %d)", uint32(math.MaxUint32), ti)
		}
	}
	ix.layCells(cells)

	var blob []byte
	add := func(s string) strRef {
		r := strRef{off: uint32(len(blob)), len: uint32(len(s))}
		blob = append(blob, s...)
		return r
	}
	rawIDs := make(map[string]uint32)
	textIDs := make(map[string]uint32)
	for ti, t := range tables {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows, cols := t.Rows(), t.Cols()
		off := ix.spans[ti].off
		for r, row := range t.Cells {
			for c, cell := range row {
				if n := r*cols + c; n&(rowCheckInterval-1) == rowCheckInterval-1 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				id, seen := rawIDs[cell]
				if !seen {
					id = uint32(len(ix.raws))
					rawIDs[cell] = id
					ref := add(cell)
					norm := text.Normalize(cell)
					tid, seen := textIDs[norm]
					if !seen {
						tid = uint32(len(ix.texts))
						textIDs[norm] = tid
						ix.texts = append(ix.texts, add(norm))
					}
					ix.raws = append(ix.raws, rawSpelling{strRef: ref, text: tid})
				}
				ix.cellRaw[off+uint32(c*rows+r)] = id
			}
		}
	}
	for ti, t := range tables {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := &ix.tables[ti]
		m.id, m.context, m.cols, m.headers = add(t.ID), add(t.Context), uint32(t.Cols()), -1
		if t.Headers != nil {
			m.headers = int32(len(ix.headers))
			for _, h := range t.Headers {
				ix.headers = append(ix.headers, add(h))
			}
		}
	}
	ix.headers = exact(ix.headers)
	if anns != nil {
		ix.anns = make([]annMeta, len(anns))
	}
	for ti, a := range anns {
		if a == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows, cols := len(a.CellEntities), len(a.ColumnTypes)
		if cols == 0 && rows > 0 {
			return nil, fmt.Errorf("searchidx: annotation %q has %d rows and no column", a.TableID, rows)
		}
		for _, ra := range a.Relations {
			if ra.Col1 < 0 || ra.Col1 >= cols || ra.Col2 < 0 || ra.Col2 >= cols {
				return nil, fmt.Errorf("searchidx: annotation %q: relation columns (%d,%d) outside %d columns", a.TableID, ra.Col1, ra.Col2, cols)
			}
		}
		m := &ix.anns[ti]
		*m = annMeta{
			tableID: add(a.TableID), rows: uint32(rows), cols: uint32(cols),
			types: uint32(len(ix.annTypes)), grid: uint32(len(ix.annGrid)), rels: uint32(len(ix.annRels)), nRels: uint32(len(a.Relations)),
		}
		d := a.Diag
		m.diag = [6]int64{int64(d.CandidateGen), int64(d.GraphBuild), int64(d.Inference), int64(d.Iterations), int64(d.NumVars), int64(d.NumFactors)}
		if m.flags = annPresent; d.Converged {
			m.flags |= annConverged
		}
		ix.annTypes = append(ix.annTypes, a.ColumnTypes...)
		for _, ra := range a.Relations {
			ix.annRels = append(ix.annRels, relMeta{uint32(ra.Col1), uint32(ra.Col2), ra.Relation, ra.Forward})
		}
		tRows, tCols := int(ix.spans[ti].rows), int(ix.tables[ti].cols)
		own := rows != tRows || cols != tCols
		ents := ix.cellEnts[ix.spans[ti].off:]
		for r, row := range a.CellEntities {
			if len(row) != cols {
				return nil, fmt.Errorf("searchidx: annotation %q row %d has %d cells for %d columns", a.TableID, r, len(row), cols)
			}
			if r&(rowCheckInterval-1) == rowCheckInterval-1 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if own {
				ix.annGrid = append(ix.annGrid, row...)
			}
			if r < tRows {
				for c, e := range row[:min(cols, tCols)] {
					ents[c*tRows+r] = e
				}
			}
		}
	}
	if len(blob) > math.MaxUint32 || len(ix.annTypes) > math.MaxUint32 || len(ix.annRels) > math.MaxUint32 || len(ix.annGrid) > math.MaxUint32 {
		return nil, fmt.Errorf("searchidx: more than %d bytes of strings, or annotation entries, in one segment", uint32(math.MaxUint32))
	}
	ix.blob = string(blob)
	ix.annTypes, ix.annRels, ix.annGrid = exact(ix.annTypes), exact(ix.annRels), exact(ix.annGrid)
	return ix, nil
}

// derive computes what an index holds beyond what it stores, all of it a
// function of the two dictionaries, the tables' IDs, headers and contexts
// and the annotations: each text's spellings and the token postings, the
// ID index, the baseline's header and context postings, the relation and
// typed-pair postings, and the subject types. It is the one place they
// are computed, for a built segment and a loaded one alike.
func (ix *Index) derive(ctx context.Context) error {
	ix.headerPost = make(map[string][]ColKey)
	ix.contextPost = make(map[string][]int32)
	ix.relPairs = make(map[catalog.RelationID][]ColumnPair)
	ix.typedPairs = make(map[catalog.TypeID][]ColumnPair)
	ix.textRaws = groupBy(len(ix.texts), len(ix.raws), func(i int) uint32 { return ix.raws[i].text }, func(i int) uint32 { return uint32(i) })
	if err := ix.deriveTokens(ctx); err != nil {
		return err
	}
	ix.byID = make([]uint32, len(ix.tables))
	for i := range ix.byID {
		ix.byID[i] = uint32(i)
	}
	slices.SortFunc(ix.byID, func(a, b uint32) int {
		return cmp.Or(strings.Compare(ix.TableID(int(a)), ix.TableID(int(b))), cmp.Compare(a, b))
	})
	var toks []string
	for ti, m := range ix.tables {
		if err := ctx.Err(); err != nil {
			return err
		}
		toks = distinctTokens(toks[:0], ix.str(m.context))
		for _, tok := range toks {
			ix.contextPost[tok] = append(ix.contextPost[tok], int32(ti))
		}
		if m.headers >= 0 {
			//lint:allow ctxpoll -- bounded by column count × header tokens, not row-scale
			for c, h := range ix.headers[m.headers:][:m.cols] {
				toks = distinctTokens(toks[:0], ix.str(h))
				for _, tok := range toks {
					ix.headerPost[tok] = append(ix.headerPost[tok], ColKey(ti)<<32|ColKey(c))
				}
			}
		}
		if ix.Annotated(ti) {
			ix.indexAnnotation(int32(ti), &ix.anns[ti])
		}
	}
	ix.subjTypes = make([]catalog.TypeID, 0, len(ix.typedPairs))
	for T := range ix.typedPairs {
		ix.subjTypes = append(ix.subjTypes, T)
	}
	slices.Sort(ix.subjTypes)
	ix.resident = ix.measure()
	return nil
}

// distinctTokens appends the distinct tokens of s to dst: the words of
// its normalized spelling, which is its tokens joined by single spaces.
func distinctTokens(dst []string, s string) []string {
	for rest := text.Normalize(s); rest != ""; {
		var tok string
		tok, rest, _ = strings.Cut(rest, " ")
		if !slices.Contains(dst, tok) {
			dst = append(dst, tok)
		}
	}
	return dst
}

// deriveTokens numbers the tokens of the texts in order of first
// appearance, counts each text's distinct tokens and posts every text to
// each of them. Token IDs cannot run out: there are fewer distinct
// tokens than bytes in the blob.
func (ix *Index) deriveTokens(ctx context.Context) error {
	ix.tokenIDs = make(map[string]uint32)
	ix.textTokens = make([]uint32, len(ix.texts))
	// Each text's distinct tokens, text after text, as token<<32 | text;
	// and per token the last text that listed it, plus one.
	var posts []uint64
	var last []uint32
	for i, ref := range ix.texts {
		if i&(rowCheckInterval-1) == rowCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// A normalized spelling is its tokens joined by single spaces.
		for rest := ix.str(ref); rest != ""; {
			var tok string
			tok, rest, _ = strings.Cut(rest, " ")
			tid, ok := ix.tokenIDs[tok]
			if !ok {
				tid = uint32(len(last))
				ix.tokenIDs[tok] = tid
				last = append(last, 0)
			}
			if last[tid] != uint32(i)+1 {
				last[tid] = uint32(i) + 1
				posts = append(posts, uint64(tid)<<32|uint64(i))
				ix.textTokens[i]++
			}
		}
	}
	ix.tokenTexts = groupBy(len(last), len(posts), func(i int) uint32 { return uint32(posts[i] >> 32) }, func(i int) uint32 { return uint32(posts[i]) })
	return nil
}

// indexAnnotation appends table ti's candidate column pairs to the
// relation and typed-pair posting lists.
func (ix *Index) indexAnnotation(ti int32, ann *annMeta) {
	cols := int(ix.tables[ti].cols)
	colT := make([]catalog.TypeID, cols)
	for c := range colT {
		colT[c] = catalog.None
	}
	for c, T := range ix.annTypes[ann.types:][:ann.cols] {
		if c < cols {
			colT[c] = T
		}
	}
	typeOf := func(c int) catalog.TypeID {
		if c < 0 || c >= cols {
			return catalog.None
		}
		return colT[c]
	}
	// Relation posting lists: one oriented pair per annotated relation
	// instance, subject column first.
	for _, ra := range ix.annRels[ann.rels:][:ann.nRels] {
		sc, oc := int(ra.col1), int(ra.col2)
		if !ra.forward {
			sc, oc = oc, sc
		}
		ix.relPairs[ra.rel] = append(ix.relPairs[ra.rel], ColumnPair{
			Table: ti, SubjCol: int32(sc), ObjCol: int32(oc),
			SubjType: typeOf(sc), ObjType: typeOf(oc),
		})
	}
	// Typed-pair posting list: every ordered pair of distinct
	// type-annotated columns, the type-only mode's candidates.
	for c1 := 0; c1 < cols; c1++ {
		if colT[c1] == catalog.None {
			continue
		}
		for c2 := 0; c2 < cols; c2++ {
			if c2 == c1 || colT[c2] == catalog.None {
				continue
			}
			ix.typedPairs[colT[c1]] = append(ix.typedPairs[colT[c1]], ColumnPair{
				Table: ti, SubjCol: int32(c1), ObjCol: int32(c2),
				SubjType: colT[c1], ObjType: colT[c2],
			})
		}
	}
}

// Len returns the number of tables the segment holds.
func (ix *Index) Len() int { return len(ix.tables) }

// TableID returns the ID of table t.
func (ix *Index) TableID(t int) string { return ix.str(ix.tables[t].id) }

// Annotated reports whether table t has an annotation.
func (ix *Index) Annotated(t int) bool { return ix.anns != nil && ix.anns[t].flags&annPresent != 0 }

// TablesWithID returns the ascending local numbers of the tables whose ID
// is id, a slice of the ID index that callers must not mutate.
func (ix *Index) TablesWithID(id string) []uint32 {
	lo, _ := slices.BinarySearchFunc(ix.byID, id, func(t uint32, id string) int { return strings.Compare(ix.TableID(int(t)), id) })
	hi := lo
	for hi < len(ix.byID) && ix.TableID(int(ix.byID[hi])) == id {
		hi++
	}
	return ix.byID[lo:hi]
}

// Surface returns the cell of table t at (row, col) as the source table
// spelled it. The string is a substring of the segment's blob.
func (ix *Index) Surface(t, row, col int) string {
	sp := ix.spans[t]
	return ix.str(ix.raws[ix.cellRaw[int(sp.off)+col*int(sp.rows)+row]].strRef)
}

// Table materialises table t: a new table.Table equal to the one the
// segment was compiled from, headerless if that one was. Its strings are
// substrings of the segment's blob; its slices are its own.
func (ix *Index) Table(t int) *table.Table {
	m, rows := ix.tables[t], int(ix.spans[t].rows)
	out := &table.Table{ID: ix.str(m.id), Context: ix.str(m.context), Cells: newGrid[string](rows, int(m.cols))}
	if m.headers >= 0 {
		out.Headers = make([]string, m.cols)
		for c := range out.Headers {
			out.Headers[c] = ix.str(ix.headers[int(m.headers)+c])
		}
	}
	raws := ix.cellRaw[ix.spans[t].off:]
	for r, row := range out.Cells {
		for c := range row {
			row[c] = ix.str(ix.raws[raws[c*rows+r]].strRef)
		}
	}
	return out
}

// Annotation materialises table t's annotation — a new core.Annotation
// equal to the one the segment was compiled from — or returns nil when
// the table has none.
func (ix *Index) Annotation(t int) *core.Annotation {
	if !ix.Annotated(t) {
		return nil
	}
	m := &ix.anns[t]
	d := m.diag
	out := &core.Annotation{
		TableID:      ix.str(m.tableID),
		ColumnTypes:  append(make([]catalog.TypeID, 0, m.cols), ix.annTypes[m.types:][:m.cols]...),
		CellEntities: newGrid[catalog.EntityID](int(m.rows), int(m.cols)),
		Diag: core.Diagnostics{
			CandidateGen: time.Duration(d[0]), GraphBuild: time.Duration(d[1]), Inference: time.Duration(d[2]),
			Iterations: int(d[3]), NumVars: int(d[4]), NumFactors: int(d[5]), Converged: m.flags&annConverged != 0,
		},
	}
	if m.nRels > 0 {
		out.Relations = make([]core.RelationAnnotation, m.nRels)
		for i, ra := range ix.annRels[m.rels:][:m.nRels] {
			out.Relations[i] = core.RelationAnnotation{Col1: int(ra.col1), Col2: int(ra.col2), Relation: ra.rel, Forward: ra.forward}
		}
	}
	own := m.rows != ix.spans[t].rows || m.cols != ix.tables[t].cols
	rows, ents := int(ix.spans[t].rows), ix.cellEnts[ix.spans[t].off:]
	for r, row := range out.CellEntities {
		if own {
			copy(row, ix.annGrid[int(m.grid)+r*int(m.cols):])
			continue
		}
		for c := range row {
			row[c] = ents[c*rows+r]
		}
	}
	return out
}

// newGrid allocates a rows × cols grid as one array cut into rows.
func newGrid[T any](rows, cols int) [][]T {
	cells := make([]T, rows*cols)
	grid := make([][]T, rows)
	for i := range grid {
		grid[i], cells = cells[:cols:cols], cells[cols:]
	}
	return grid
}

// ResidentBytes is what a segment keeps in memory, by part, counted from
// array lengths and element sizes: Cells the two cell arrays (and the
// entity grids of annotations shaped unlike their table), Dictionaries
// the raw spellings and normalized texts in the blob with the three
// dictionaries' arrays and the token map, Postings every derived
// posting list, Tables the rest of the blob and the per-table and
// per-annotation metadata. A map counts as its keys and values; the buckets Go keeps
// around them are not counted.
type ResidentBytes struct {
	Cells, Dictionaries, Postings, Tables int64
}

// Add adds o to r, part by part.
func (r *ResidentBytes) Add(o ResidentBytes) {
	r.Cells += o.Cells
	r.Dictionaries += o.Dictionaries
	r.Postings += o.Postings
	r.Tables += o.Tables
}

// ResidentBytes returns the segment's memory by part, measured once when
// the segment was derived.
func (ix *Index) ResidentBytes() ResidentBytes { return ix.resident }

func (ix *Index) measure() ResidentBytes {
	const (
		u32    = int64(unsafe.Sizeof(uint32(0)))
		str    = int64(unsafe.Sizeof(""))
		slice  = int64(unsafe.Sizeof([]uint32(nil)))
		ref    = int64(unsafe.Sizeof(strRef{}))
		pair   = int64(unsafe.Sizeof(ColumnPair{}))
		colKey = int64(unsafe.Sizeof(ColKey(0)))
	)
	var r ResidentBytes
	dict := int64(0) // bytes of the blob the dictionaries take: it lists them before the first table's ID
	if len(ix.tables) > 0 {
		dict = int64(ix.tables[0].id.off)
	}
	r.Cells = u32 * int64(len(ix.cellRaw)+len(ix.cellEnts))
	r.Dictionaries = dict + int64(unsafe.Sizeof(rawSpelling{}))*int64(len(ix.raws)) + (ref+u32)*int64(len(ix.texts)) +
		u32*int64(len(ix.textRaws.off)+len(ix.textRaws.ids)) + (str+u32)*int64(len(ix.tokenIDs))
	r.Cells += u32 * int64(len(ix.annGrid))
	r.Tables = int64(len(ix.blob)) - dict + int64(unsafe.Sizeof(tableMeta{}))*int64(len(ix.tables)) + ref*int64(len(ix.headers)) +
		int64(unsafe.Sizeof(tableSpan{}))*int64(len(ix.spans)) + u32*int64(len(ix.identity)+len(ix.byID)) + int64(unsafe.Sizeof(annMeta{}))*int64(len(ix.anns)) +
		u32*int64(len(ix.annTypes)) + int64(unsafe.Sizeof(relMeta{}))*int64(len(ix.annRels))
	r.Postings += u32 * int64(len(ix.tokenTexts.off)+len(ix.tokenTexts.ids))
	for tok, post := range ix.headerPost {
		r.Postings += str + int64(len(tok)) + slice + colKey*int64(len(post))
	}
	for tok, post := range ix.contextPost {
		r.Postings += str + int64(len(tok)) + slice + u32*int64(len(post))
	}
	for _, post := range ix.relPairs {
		r.Postings += u32 + slice + pair*int64(len(post))
	}
	for _, post := range ix.typedPairs {
		r.Postings += u32 + slice + pair*int64(len(post))
	}
	r.Postings += u32 * int64(len(ix.subjTypes))
	return r
}

// Catalog returns the catalog the annotations refer to.
func (ix *Index) Catalog() *catalog.Catalog { return ix.cat }

// Segments reports the one segment an index is when it serves as a whole
// corpus (see search.Corpus).
func (ix *Index) Segments() int { return 1 }

// Segment returns that segment: the index itself, every table numbered
// as it is.
func (ix *Index) Segment(int) (*Index, []int32) { return ix, ix.identity }

// SubjectTypes returns every subject type the typed-pair posting list is
// keyed by, in ascending ID order. The slice is shared; callers must not
// mutate it.
func (ix *Index) SubjectTypes() []catalog.TypeID { return ix.subjTypes }

// Tombstones reports no removed tables: an index holds exactly the
// tables it was built over.
func (ix *Index) Tombstones() int { return 0 }

// RelationPairs returns the precomputed oriented candidate column pairs
// carrying relation b, subject column first, with annotated types baked
// in, ascending by table. The slice is shared; callers must not mutate
// it.
func (ix *Index) RelationPairs(b catalog.RelationID) []ColumnPair { return ix.relPairs[b] }

// TypedPairsOf returns the typed-pair posting list of exactly subject
// type T (no subtype closure), ascending by table. The slice is shared;
// callers must not mutate it.
func (ix *Index) TypedPairsOf(T catalog.TypeID) []ColumnPair { return ix.typedPairs[T] }

// HeaderMatches returns the columns whose header shares a token with p,
// ascending by (table, column). The result is a posting list of the
// index when only one of p's tokens has one — shared, not to be mutated
// — and otherwise their union written over *buf.
func (ix *Index) HeaderMatches(p *Probe, buf *[]ColKey) []ColKey {
	return unionPostings(ix.headerPost, p.Tokens, buf)
}

// unionPostings returns the ascending union of the header posting lists
// of toks: the list itself when only one is non-empty, else a k-way
// merge into *buf (k is the handful of tokens of one query string).
func unionPostings(post map[string][]ColKey, toks []string, buf *[]ColKey) []ColKey {
	var few [4][]ColKey
	lists := few[:0]
	for _, tok := range toks {
		if l := post[tok]; len(l) > 0 {
			lists = append(lists, l)
		}
	}
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	out := (*buf)[:0]
	for {
		least, any := ColKey(0), false
		for _, l := range lists {
			if len(l) > 0 && (!any || l[0] < least) {
				least, any = l[0], true
			}
		}
		if !any {
			*buf = out
			return out
		}
		out = append(out, least)
		for i, l := range lists {
			if len(l) > 0 && l[0] == least {
				lists[i] = l[1:]
			}
		}
	}
}

// ContextCursor answers, for ascending table numbers, whether a table's
// context shares a token with a probe: one cursor per posted token of
// the probe, each only ever moving forward, so a whole pass costs at
// most the lists' combined length and writes nothing.
type ContextCursor struct {
	lists [][]int32
}

// ContextMatches points cc at the start of the context postings of p's
// tokens in this segment.
func (ix *Index) ContextMatches(p *Probe, cc *ContextCursor) {
	cc.lists = cc.lists[:0]
	for _, tok := range p.Tokens {
		if l := ix.contextPost[tok]; len(l) > 0 {
			cc.lists = append(cc.lists, l)
		}
	}
}

// Contains reports whether table t's context matches. Successive calls
// must pass ascending table numbers.
func (cc *ContextCursor) Contains(t int32) bool {
	found := false
	for i, l := range cc.lists {
		for len(l) > 0 && l[0] < t {
			l = l[1:]
		}
		cc.lists[i] = l
		found = found || (len(l) > 0 && l[0] == t)
	}
	return found
}

// Column returns one column of an indexed table, top to bottom: each
// cell's raw-spelling ID and its entity annotation (catalog.None if
// absent). The slices are the index's own; callers must not mutate them.
func (ix *Index) Column(table, col int) (raws []uint32, ents []catalog.EntityID) {
	rows := int(ix.spans[table].rows)
	lo := int(ix.spans[table].off) + col*rows
	return ix.cellRaw[lo : lo+rows : lo+rows], ix.cellEnts[lo : lo+rows : lo+rows]
}

// Spelling returns the normalized text of a raw-spelling ID: the cell's
// tokens joined by single spaces, empty for a cell without any.
func (ix *Index) Spelling(raw uint32) string { return ix.str(ix.texts[ix.raws[raw].text]) }

// Probe is one query string compiled once per request: the distinct
// tokens of its normalized spelling, in ascending order. A Probe also
// carries the scratch space Compile merges in and the storage of every
// MatchSet compiled from it, so it is not safe for concurrent use, and
// those MatchSets are good until the Probe is Reset or dropped.
type Probe struct {
	Tokens []string

	cur, next []tally
	matches   []rawMatch
}

// tally counts, for one text, how many of the probe's tokens it holds.
type tally struct{ text, shared uint32 }

// NewProbe compiles a query string.
func NewProbe(s string) Probe {
	var p Probe
	p.Reset(s)
	return p
}

// Reset compiles another query string into p, reusing its storage. The
// tokens are cut out of the normalized spelling, which is exactly those
// tokens joined by single spaces.
func (p *Probe) Reset(s string) {
	p.Tokens = p.Tokens[:0]
	for rest := text.Normalize(s); rest != ""; {
		var tok string
		tok, rest, _ = strings.Cut(rest, " ")
		p.Tokens = append(p.Tokens, tok)
	}
	slices.Sort(p.Tokens)
	p.Tokens = slices.Compact(p.Tokens)
	p.matches = p.matches[:0]
}

// MatchSet is a probe compiled against one segment: the raw spellings
// it matches, ascending by ID, each with the evidence a cell spelled so
// contributes. The zero MatchSet matches nothing.
type MatchSet struct {
	raws []rawMatch
	// mask has bit id%64 set for every matched ID: one word that tells
	// a row loop, for all but a few cells in 64, that a cell cannot match.
	mask uint64
}

type rawMatch struct {
	id       uint32
	evidence float64
}

// Compile compiles p against the segment. A text matches with its
// token-set Jaccard similarity to the probe when that reaches 0.5,
// counted off the token postings: the text spelled like the probe holds
// exactly the probe's distinct tokens, so its evidence is exactly 1, and
// a probe without a spelling has no token and matches nothing. Each
// matched text then lends its evidence to every spelling of it, and the
// spellings are sorted for Lookup.
func (ix *Index) Compile(p *Probe) MatchSet {
	// Merge the postings of the probe's tokens, counting per text how
	// many of them list it.
	cur, next := p.cur[:0], p.next[:0]
	for _, tok := range p.Tokens {
		tid, ok := ix.tokenIDs[tok]
		if !ok {
			continue
		}
		next = next[:0]
		i := 0
		for _, id := range ix.tokenTexts.of(tid) {
			for ; i < len(cur) && cur[i].text < id; i++ {
				next = append(next, cur[i])
			}
			if i < len(cur) && cur[i].text == id {
				next = append(next, tally{id, cur[i].shared + 1})
				i++
			} else {
				next = append(next, tally{id, 1})
			}
		}
		next = append(next, cur[i:]...)
		cur, next = next, cur
	}
	p.cur, p.next = cur, next
	// The matches go after those of the segments compiled before; if that
	// moves the array, the earlier sets keep the old one.
	var m MatchSet
	first := len(p.matches)
	for _, t := range cur {
		union := len(p.Tokens) + int(ix.textTokens[t.text]) - int(t.shared)
		ev := float64(t.shared) / float64(union)
		if ev < 0.5 {
			continue
		}
		for _, raw := range ix.textRaws.of(t.text) {
			p.matches = append(p.matches, rawMatch{raw, ev})
			m.mask |= 1 << (raw % 64)
		}
	}
	m.raws = p.matches[first:len(p.matches):len(p.matches)]
	slices.SortFunc(m.raws, func(a, b rawMatch) int { return cmp.Compare(a.id, b.id) })
	return m
}

// Lookup returns the evidence a cell of the given raw spelling
// contributes, 0 when the probe does not match it. It runs once per
// unsettled row of a scan, so it is a plain loop: halve the few matches
// down to a handful, then compare.
func (m *MatchSet) Lookup(id uint32) float64 {
	ts := m.raws
	for len(ts) > 4 {
		if h := len(ts) / 2; ts[h].id <= id {
			ts = ts[h:]
		} else {
			ts = ts[:h]
		}
	}
	for _, t := range ts {
		if t.id == id {
			return t.evidence
		}
	}
	return 0
}

// RowHit is one matching row of a scanned column.
type RowHit struct {
	Row      int32
	Evidence float64
}

// ScanColumn is the query processor's row loop over one column slice,
// raws and ents as Column returns them (or a sub-slice of both, base
// being the row number of their first entry). It appends to dst every
// row whose cell matches, and returns dst. With an E2 entity, a cell
// annotated with it is evidence 1.5 — an exact entity match beats any
// text match — a cell annotated with another entity is no evidence, and
// an unannotated cell falls back to the text match m holds. With e2 =
// catalog.None annotations are ignored and every cell is matched by
// text. Per row that is an entity compare and, for the cells it does not
// settle, a bit test against m's mask; only the survivors are looked up.
func ScanColumn(dst []RowHit, base int, raws []uint32, ents []catalog.EntityID, e2 catalog.EntityID, m *MatchSet) []RowHit {
	mask := m.mask
	if e2 == catalog.None {
		for r, id := range raws {
			if mask>>(id%64)&1 != 0 {
				if ev := m.Lookup(id); ev > 0 {
					dst = append(dst, RowHit{Row: int32(base + r), Evidence: ev})
				}
			}
		}
		return dst
	}
	raws = raws[:len(ents)]
	for r, e := range ents {
		if e == e2 {
			dst = append(dst, RowHit{Row: int32(base + r), Evidence: 1.5})
		} else if e == catalog.None && mask>>(raws[r]%64)&1 != 0 {
			if ev := m.Lookup(raws[r]); ev > 0 {
				dst = append(dst, RowHit{Row: int32(base + r), Evidence: ev})
			}
		}
	}
	return dst
}
