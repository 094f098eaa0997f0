// Package searchidx is the corpus index of the search application (§5):
// the stand-in for the paper's Lucene index over 25M web tables. One
// Index is one immutable compiled segment — a batch of tables, with
// their annotations when they have any, laid out for the one thing the
// query processor of Figures 3 and 4 does: walk candidate column pairs
// and look for E2 down the object column.
//
// # The compiled segment
//
// Cells are dictionary-encoded. The segment interns every distinct
// normalized cell text once (its spelling and its number of distinct
// tokens) and every distinct token once (the ascending IDs of the texts
// that contain it). A table is then stored column-major: each column is
// a contiguous run of text IDs and a parallel run of entity annotations
// (catalog.None where the cell has none). Nothing per cell holds a
// pointer, a string or a map.
//
// A query never compares strings against cells. Its E2 probe is compiled
// once per segment into a MatchSet — the handful of text IDs it matches,
// ascending, each with its evidence: 1 for the text spelled like the
// probe, |Q∩C| / |Q∪C| over distinct tokens for every text where that
// reaches 0.5, counted off the token postings with the same integers the
// map-based matcher used (oracle_test.go keeps that matcher as the
// reference). ScanColumn then walks a column slice at an entity compare
// and a one-word bit test per row; only the few cells those do not
// settle are looked up in the MatchSet.
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
// # The persistent form
//
// A segment is also what a snapshot stores (wire.go): AppendSegment
// writes a segment's tables and annotations with the two dictionaries a
// build computes — each distinct cell spelling once, each distinct
// normalized text once in text-ID order, every spelling's text ID — and
// the cells as dictionary IDs; DecodeSegment rebuilds the Index from
// that by slicing and copying, then derives the postings with the code
// BuildContext derives them with (derive, addText), so a loaded segment
// equals a built one field for field and a query cannot tell them apart.
// A restart therefore never parses, normalizes or interns a cell. The
// price is that this package's layout is now a file format: changing
// what a segment stores, or the order text IDs are assigned in, is a new
// snapshot format version (internal/snapshot), with the old decoder kept
// for the files already written.
package searchidx

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

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

// Index is one compiled segment: the tables, their optional annotations,
// and everything derived from them at build time. It is immutable and
// safe for concurrent use.
type Index struct {
	cat    *catalog.Catalog
	Tables []*table.Table
	// Anns[i] annotates Tables[i]; nil when the corpus is unannotated.
	Anns []*core.Annotation

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

	// The text dictionary: ID → normalized spelling and distinct-token
	// count, and spelling → ID. The empty spelling (a blank or
	// punctuation-only cell) has an ID like any other.
	textIDs    map[string]uint32
	texts      []string
	textTokens []uint32
	// The token dictionary: token → ID → ascending IDs of the texts
	// containing it.
	tokenIDs   map[string]uint32
	tokenTexts [][]uint32

	// Column-major cells: column c of table t is the spans[t].rows
	// entries of cellText and cellEnts from spans[t].off+c*spans[t].rows.
	spans    []tableSpan
	cellText []uint32
	cellEnts []catalog.EntityID

	// identity maps every table to itself: the local→global table map of
	// an index serving as a whole corpus.
	identity []int32
}

// tableSpan locates one table's cells: where they start and how many
// rows each column runs for.
type tableSpan struct{ off, rows uint32 }

// New builds an index over a corpus. anns may be nil (baseline mode) or
// parallel to tables; a nil entry disables annotation lookups for that
// table. Invalid input (an anns slice whose length mismatches tables)
// panics with the cause — New has no error return, and a silent nil
// index would only defer the crash to the first lookup. Use BuildContext
// to handle the error instead.
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

// BuildContext is New with input validation and cancellation: a non-nil
// anns slice must be parallel to tables, and a segment whose tables,
// cells or distinct tokens outnumber what its 32-bit IDs can address is
// refused (distinct texts cannot outnumber cells). The context is
// checked between tables — and every rowCheckInterval cells within a
// table — so indexing a corpus with one oversized table still aborts
// promptly.
func BuildContext(ctx context.Context, cat *catalog.Catalog, tables []*table.Table, anns []*core.Annotation) (*Index, error) {
	ix, err := newIndex(cat, tables, anns)
	if err != nil {
		return nil, err
	}
	for ti, t := range tables {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows, cols := t.Rows(), t.Cols()
		col := ix.cellText[ix.spans[ti].off:]
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if cell := r*cols + c; cell&(rowCheckInterval-1) == rowCheckInterval-1 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				id, err := ix.internText(t.Cell(r, c))
				if err != nil {
					return nil, err
				}
				col[c*rows+r] = id
			}
		}
	}
	if err := ix.derive(ctx); err != nil {
		return nil, err
	}
	return ix, nil
}

// newIndex lays a segment out without filling it in: empty posting lists
// and dictionaries, every table's span, zeroed text IDs and no entity in
// any cell. BuildContext fills it by interning every cell; DecodeSegment
// (wire.go) from a persisted segment. Both end with derive.
func newIndex(cat *catalog.Catalog, tables []*table.Table, anns []*core.Annotation) (*Index, error) {
	if anns != nil && len(anns) != len(tables) {
		return nil, fmt.Errorf("searchidx: %d annotations for %d tables", len(anns), len(tables))
	}
	if len(tables) > math.MaxInt32 {
		return nil, fmt.Errorf("searchidx: %d tables exceed one segment's 32-bit table numbers", len(tables))
	}
	ix := &Index{
		cat:         cat,
		Tables:      tables,
		Anns:        anns,
		headerPost:  make(map[string][]ColKey),
		contextPost: make(map[string][]int32),
		relPairs:    make(map[catalog.RelationID][]ColumnPair),
		typedPairs:  make(map[catalog.TypeID][]ColumnPair),
		textIDs:     make(map[string]uint32),
		tokenIDs:    make(map[string]uint32),
		spans:       make([]tableSpan, len(tables)),
		identity:    make([]int32, len(tables)),
	}
	cells := uint64(0)
	for ti, t := range tables {
		ix.identity[ti] = int32(ti)
		ix.spans[ti] = tableSpan{off: uint32(cells), rows: uint32(t.Rows())}
		if cells += uint64(t.Rows()) * uint64(t.Cols()); cells > math.MaxUint32 {
			return nil, fmt.Errorf("searchidx: more than %d cells in one segment (at table %d)", uint32(math.MaxUint32), ti)
		}
	}
	ix.cellText = make([]uint32, cells)
	ix.cellEnts = make([]catalog.EntityID, cells)
	for i := range ix.cellEnts {
		ix.cellEnts[i] = catalog.None
	}
	return ix, nil
}

// derive computes what an index holds beyond its dictionaries and text
// IDs, all of it a function of the tables' headers and contexts and of
// the annotations: the baseline's header and context postings, the
// relation and typed-pair postings, each annotated cell's entity, and
// the subject types. It is the one place they are computed, for a built
// segment and a loaded one alike.
func (ix *Index) derive(ctx context.Context) error {
	var toks []string
	for ti, t := range ix.Tables {
		if err := ctx.Err(); err != nil {
			return err
		}
		toks = distinctTokens(toks[:0], t.Context)
		for _, tok := range toks {
			ix.contextPost[tok] = append(ix.contextPost[tok], int32(ti))
		}
		//lint:allow ctxpoll -- bounded by column count × header tokens, not row-scale
		for c, cols := 0, t.Cols(); c < cols; c++ {
			toks = distinctTokens(toks[:0], t.Header(c))
			for _, tok := range toks {
				ix.headerPost[tok] = append(ix.headerPost[tok], ColKey(ti)<<32|ColKey(c))
			}
		}
		if ix.Anns == nil || ix.Anns[ti] == nil {
			continue
		}
		ann := ix.Anns[ti]
		ix.indexAnnotation(int32(ti), ann)
		rows, cols := t.Rows(), t.Cols()
		ents := ix.cellEnts[ix.spans[ti].off:]
		for r, row := range ann.CellEntities {
			if r >= rows {
				break
			}
			if r&(rowCheckInterval-1) == rowCheckInterval-1 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for c, e := range row {
				if c < cols {
					ents[c*rows+r] = e
				}
			}
		}
	}
	ix.subjTypes = make([]catalog.TypeID, 0, len(ix.typedPairs))
	for T := range ix.typedPairs {
		ix.subjTypes = append(ix.subjTypes, T)
	}
	slices.Sort(ix.subjTypes)
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

// internText returns the ID of a cell's normalized text, entering the
// text — and any token it is the first to contain — into the
// dictionaries on first sight.
func (ix *Index) internText(cell string) (uint32, error) {
	norm := text.Normalize(cell)
	if id, ok := ix.textIDs[norm]; ok {
		return id, nil
	}
	return ix.addText(norm)
}

// addText enters a normalized spelling the dictionary does not hold yet
// under the next text ID, and posts that ID to each of its tokens.
func (ix *Index) addText(norm string) (uint32, error) {
	id := uint32(len(ix.texts))
	ix.textIDs[norm] = id
	ix.texts = append(ix.texts, norm)
	// A normalized spelling is its tokens joined by single spaces.
	distinct := uint32(0)
	for rest := norm; rest != ""; {
		var tok string
		tok, rest, _ = strings.Cut(rest, " ")
		tid, ok := ix.tokenIDs[tok]
		if !ok {
			if uint64(len(ix.tokenTexts)) >= math.MaxUint32 {
				return 0, fmt.Errorf("searchidx: more than %d distinct tokens in one segment", uint32(math.MaxUint32))
			}
			tid = uint32(len(ix.tokenTexts))
			ix.tokenIDs[tok] = tid
			ix.tokenTexts = append(ix.tokenTexts, nil)
		}
		// A token repeated within the text was posted a moment ago.
		if post := ix.tokenTexts[tid]; len(post) == 0 || post[len(post)-1] != id {
			ix.tokenTexts[tid] = append(post, id)
			distinct++
		}
	}
	ix.textTokens = append(ix.textTokens, distinct)
	return id, nil
}

// indexAnnotation appends table ti's candidate column pairs to the
// relation and typed-pair posting lists.
func (ix *Index) indexAnnotation(ti int32, ann *core.Annotation) {
	cols := ix.Tables[ti].Cols()
	colT := make([]catalog.TypeID, cols)
	for c := range colT {
		colT[c] = catalog.None
	}
	for c, T := range ann.ColumnTypes {
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
	for _, ra := range ann.Relations {
		sc, oc := ra.Col1, ra.Col2
		if !ra.Forward {
			sc, oc = oc, sc
		}
		ix.relPairs[ra.Relation] = append(ix.relPairs[ra.Relation], ColumnPair{
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
// cell's text ID and its entity annotation (catalog.None if absent).
// The slices are the index's own; callers must not mutate them.
func (ix *Index) Column(table, col int) (texts []uint32, ents []catalog.EntityID) {
	rows := int(ix.spans[table].rows)
	lo := int(ix.spans[table].off) + col*rows
	return ix.cellText[lo : lo+rows : lo+rows], ix.cellEnts[lo : lo+rows : lo+rows]
}

// Spelling returns the normalized text behind a text ID: the cell's
// tokens joined by single spaces, empty for a cell without any.
func (ix *Index) Spelling(id uint32) string { return ix.texts[id] }

// Probe is one query string compiled once per request: its normalized
// spelling and its distinct tokens in ascending order. A Probe also
// carries the scratch space Compile merges in, so it is not safe for
// concurrent use.
type Probe struct {
	Norm   string
	Tokens []string

	cur, next []tally
}

// tally counts, for one text, how many of the probe's tokens it holds.
type tally struct{ text, shared uint32 }

// NewProbe compiles a query string.
func NewProbe(s string) Probe {
	toks := text.Tokenize(s)
	p := Probe{Norm: strings.Join(toks, " ")}
	slices.Sort(toks)
	p.Tokens = slices.Compact(toks)
	return p
}

// MatchSet is a probe compiled against one segment: the texts it
// matches, ascending by ID, each with the evidence a cell of that text
// contributes. The zero MatchSet matches nothing.
type MatchSet struct {
	texts []textMatch
	// mask has bit id%64 set for every matched ID: one word that tells
	// a row loop, for all but a few cells in 64, that a cell cannot match.
	mask uint64
}

type textMatch struct {
	id       uint32
	evidence float64
}

// Compile compiles p against the segment. A text matches with evidence
// 1 when it is spelled like the probe, else with its token-set Jaccard
// similarity to the probe when that reaches 0.5 — two separate lookups:
// the spelling dictionary decides the first, the token postings count
// the second. A probe without a spelling matches nothing.
func (ix *Index) Compile(p *Probe) MatchSet {
	if p.Norm == "" {
		return MatchSet{}
	}
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
		for _, id := range ix.tokenTexts[tid] {
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
	// The text spelled like the probe joins the tallies even if no token
	// led to it, marked as sharing more tokens than the probe has.
	if id, ok := ix.textIDs[p.Norm]; ok {
		i, found := slices.BinarySearchFunc(cur, id, func(t tally, id uint32) int { return cmp.Compare(t.text, id) })
		if !found {
			cur = slices.Insert(cur, i, tally{text: id})
		}
		cur[i].shared = math.MaxUint32
	}
	p.cur, p.next = cur, next
	var m MatchSet
	for _, t := range cur {
		ev := 1.0
		if t.shared != math.MaxUint32 {
			union := len(p.Tokens) + int(ix.textTokens[t.text]) - int(t.shared)
			if ev = float64(t.shared) / float64(union); ev < 0.5 {
				continue
			}
		}
		m.texts = append(m.texts, textMatch{t.text, ev})
		m.mask |= 1 << (t.text % 64)
	}
	return m
}

// Lookup returns the evidence a cell of the given text contributes, 0
// when the probe does not match it. It runs once per unsettled row of a
// scan, so it is a plain loop: halve the few matches down to a handful,
// then compare.
func (m *MatchSet) Lookup(id uint32) float64 {
	ts := m.texts
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
// texts and ents as Column returns them (or a sub-slice of both, base
// being the row number of their first entry). It appends to dst every
// row whose cell matches, and returns dst. With an E2 entity, a cell
// annotated with it is evidence 1.5 — an exact entity match beats any
// text match — a cell annotated with another entity is no evidence, and
// an unannotated cell falls back to the text match m holds. With e2 =
// catalog.None annotations are ignored and every cell is matched by
// text. Per row that is an entity compare and, for the cells it does not
// settle, a bit test against m's mask; only the survivors are looked up.
func ScanColumn(dst []RowHit, base int, texts []uint32, ents []catalog.EntityID, e2 catalog.EntityID, m *MatchSet) []RowHit {
	mask := m.mask
	if e2 == catalog.None {
		for r, id := range texts {
			if mask>>(id%64)&1 != 0 {
				if ev := m.Lookup(id); ev > 0 {
					dst = append(dst, RowHit{Row: int32(base + r), Evidence: ev})
				}
			}
		}
		return dst
	}
	texts = texts[:len(ents)]
	for r, e := range ents {
		if e == e2 {
			dst = append(dst, RowHit{Row: int32(base + r), Evidence: 1.5})
		} else if e == catalog.None && mask>>(texts[r]%64)&1 != 0 {
			if ev := m.Lookup(texts[r]); ev > 0 {
				dst = append(dst, RowHit{Row: int32(base + r), Evidence: ev})
			}
		}
	}
	return dst
}
