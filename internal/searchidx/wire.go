package searchidx

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"repro/internal/byteread"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

// The persistent form of a segment: what AppendTo writes and the decoder
// reads, the payload of one section of a WTSNAP file (internal/snapshot
// frames, compresses and checksums it). It is a dump of what a compiled
// segment stores — the blob, the two dictionaries, the cells as
// dictionary IDs, table and annotation metadata — from which tables and
// annotations can be materialised losslessly, so that loading is slicing
// and copying, not parsing, normalizing and hashing:
//
//	tables   count of tables
//	flags    byte: bit 0 set when the segment has an annotation list
//	raws     count of distinct raw cell spellings
//	texts    count of distinct normalized texts
//	blobLen  length of blob
//	blob     every string of the segment back to back, each exactly
//	         once, in the order the lengths below are listed
//	raws × { length, text: 0 for a text no earlier spelling had —
//	         its length follows — else an earlier text's ID plus one }
//	tables × { ID length, context length, rows, cols,
//	           headers: 0 for none, else 1 and cols × header length }
//	per table, row by row: the cell's spelling: 0 for a spelling no
//	         earlier cell had, else an earlier spelling's ID plus one
//	tables × { flags byte: 0 for no annotation, else 1; table-ID
//	           length, rows, cols, cols × type; relations, then
//	           × { col1, col2, relation, forward } }
//	per annotation, row by row: the cell's entity, plus one; but over a
//	         cell of the table whose text an earlier such cell had: 0 for
//	         that cell's entity (the first such cell's), else plus two
//
// The last two groups are present only under flags bit 0. An annotation
// is its labels: the annotator's diagnostics are not stored, so the
// bytes hold no wall time. Every integer is an unsigned LEB128 varint;
// type, entity and relation IDs are stored plus one, so that none is a
// zero byte. Spellings and texts are numbered in order of first
// appearance walking tables, then rows, then columns — the order intern
// numbers them in — which is what lets "new" be a zero instead of a
// number.
//
// The coding leaves a general-purpose compressor little to find except
// real repetition: a corpus of all-new strings is runs of zeros, the
// mentions of an entity mostly carry the label its first mention got,
// and replicated tables are byte-identical runs.
//
// Stored, because recomputing it is what made a restart slow: the text
// dictionary in text-ID order, every raw spelling's text ID, and the
// cells as raw-spelling IDs, turned into (spelling, entity) IDs as the
// entity grids are read. Derived on load by the code that derives it
// at build (Index.derive): each text's cell IDs from the raw
// dictionary, token postings from the text dictionary, header, context,
// relation and typed-pair postings from headers, contexts and
// annotations. A stored text is trusted to be the normalization of the
// spellings that point at it; the section's checksum is what vouches
// for it. That no text is listed twice is checked, since matching
// relies on it.
//
// A change to this layout is a new snapshot format version.

// ErrBadSegment reports a persisted segment that does not decode: a
// count or ID out of bounds, a shape no table or annotation can have,
// truncation, or trailing bytes.
var ErrBadSegment = errors.New("searchidx: malformed persisted segment")

const (
	segmentAnnotated = 1 << 0 // section flag: the segment has an annotation list
	annPresent       = 1 << 0 // annotation flag: the table is annotated
)

// unlabeled marks, in the per-text entity defaults, a text no annotated
// table cell has had yet. No entity ID takes this value: IDs are
// catalog.None or non-negative.
const unlabeled = math.MinInt32

// AppendSegment appends the persistent form of the segment BuildContext
// would compile from tables and anns (nil, or parallel to tables with nil
// entries for unannotated tables), and accepts what BuildContext accepts.
// It interns and dumps; no posting list is derived. The bytes depend on
// nothing but the arguments.
func AppendSegment(dst []byte, tables []*table.Table, anns []*core.Annotation) ([]byte, error) {
	ix, err := intern(context.Background(), tables, anns)
	if err != nil {
		return nil, err
	}
	return ix.AppendTo(dst), nil
}

// AppendTo appends the segment's persistent form: its dictionaries and
// ID streams as they stand. It is the one writer of the format.
func (ix *Index) AppendTo(dst []byte) []byte {
	flags := byte(0)
	if ix.anns != nil {
		flags = segmentAnnotated
	}
	dst = binary.AppendUvarint(dst, uint64(len(ix.tables)))
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(ix.raws)))
	dst = binary.AppendUvarint(dst, uint64(len(ix.texts)))
	dst = binary.AppendUvarint(dst, uint64(len(ix.blob)))
	dst = append(dst, ix.blob...)

	// IDs were handed out in the order this walks, so the next one not
	// seen yet is always the count of those seen.
	next := uint32(0)
	for _, raw := range ix.raws {
		dst = binary.AppendUvarint(dst, uint64(raw.len))
		if raw.text != next {
			dst = binary.AppendUvarint(dst, uint64(raw.text)+1)
			continue
		}
		dst = append(dst, 0)
		dst = binary.AppendUvarint(dst, uint64(ix.texts[next].len))
		next++
	}
	for ti, m := range ix.tables {
		dst = binary.AppendUvarint(dst, uint64(m.id.len))
		dst = binary.AppendUvarint(dst, uint64(m.context.len))
		dst = binary.AppendUvarint(dst, uint64(ix.spans[ti].rows))
		dst = binary.AppendUvarint(dst, uint64(m.cols))
		if m.headers < 0 {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		for _, h := range ix.headers[m.headers:][:m.cols] {
			dst = binary.AppendUvarint(dst, uint64(h.len))
		}
	}
	next = 0
	for ti, m := range ix.tables {
		rows, cols := int(ix.spans[ti].rows), int(m.cols)
		ids := ix.cells[ix.spans[ti].off:]
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if id := ix.pair(ids[c*rows+r]).raw; id != next {
					dst = binary.AppendUvarint(dst, uint64(id)+1)
				} else {
					dst = append(dst, 0)
					next++
				}
			}
		}
	}

	for i := range ix.anns {
		a := &ix.anns[i]
		if !ix.Annotated(i) {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, annPresent)
		dst = binary.AppendUvarint(dst, uint64(a.tableID.len))
		dst = binary.AppendUvarint(dst, uint64(a.rows))
		dst = binary.AppendUvarint(dst, uint64(a.cols))
		for _, T := range ix.annTypes[a.types:][:a.cols] {
			dst = appendID(dst, int32(T))
		}
		dst = binary.AppendUvarint(dst, uint64(a.nRels))
		for _, ra := range ix.annRels[a.rels:][:a.nRels] {
			dst = binary.AppendUvarint(dst, uint64(ra.col1))
			dst = binary.AppendUvarint(dst, uint64(ra.col2))
			dst = appendID(dst, int32(ra.rel))
			dst = appendBool(dst, ra.forward)
		}
	}
	labels := make([]int32, len(ix.texts))
	for i := range labels {
		labels[i] = unlabeled
	}
	for ti := range ix.anns {
		a := &ix.anns[ti]
		rows, cols := int(ix.spans[ti].rows), int(ix.tables[ti].cols)
		ids := ix.cells[ix.spans[ti].off:]
		for r := 0; r < int(a.rows); r++ {
			for c := 0; c < int(a.cols); c++ {
				if r >= rows || c >= cols {
					dst = appendID(dst, int32(ix.annGrid[int(a.grid)+r*int(a.cols)+c]))
					continue
				}
				p := ix.pair(ids[c*rows+r])
				switch e, label := p.ent, &labels[ix.raws[p.raw].text]; {
				case *label == unlabeled:
					*label = int32(e)
					dst = appendID(dst, int32(e))
				case *label == int32(e):
					dst = append(dst, 0)
				default:
					dst = binary.AppendUvarint(dst, uint64(uint32(e+1))+1)
				}
			}
		}
	}
	return dst
}

// appendID appends a type, entity or relation ID plus one, so that
// catalog.None is the single byte 0.
func appendID(b []byte, id int32) []byte {
	return binary.AppendUvarint(b, uint64(uint32(id+1)))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// segmentReader reads a persisted segment: the shared cursor, plus how
// much of the segment's blob str has handed out, front to back.
type segmentReader struct {
	byteread.Reader
	blob, pos int
}

// id reads a type, entity or relation ID stored plus one.
func (r *segmentReader) id() int32 { return int32(r.Uvarint32()) - 1 }

func (r *segmentReader) flag() bool {
	b := r.U8()
	if b > 1 {
		r.Failf("flag %d", b)
	}
	return b == 1
}

// str reads a string's length and takes the string off the front of
// what is left of the blob.
func (r *segmentReader) str() strRef {
	n := r.Uvarint32()
	if int64(n) > int64(r.blob-r.pos) {
		r.Failf("string of %d bytes, %d left in the blob", n, r.blob-r.pos)
		return strRef{}
	}
	ref := strRef{off: uint32(r.pos), len: n}
	r.pos += int(n)
	return ref
}

// shape reads the dimensions of a grid — a table's cells, an
// annotation's entities — whose every element takes at least one byte
// further on: rows and cols are each bounded by the bytes that remain,
// and *total, the running number of such elements the segment has
// promised so far, grows by rows × cols and must stay within them too.
func (r *segmentReader) shape(total *int64) (rows, cols int) {
	rows, cols = r.Count(uint64(r.Uvarint32()), 1), r.Count(uint64(r.Uvarint32()), 1)
	if *total += int64(rows) * int64(cols); *total > int64(r.Remaining()) {
		r.Failf("%d grid cells promised, %d bytes remain", *total, r.Remaining())
		return 0, 0
	}
	return rows, cols
}

// DecodeSegment rebuilds the compiled index of a segment AppendTo
// persisted. The blob, both dictionaries and the cell IDs are taken as
// stored; everything else an Index holds is derived exactly as
// BuildContext derives it, so the result equals BuildContext's over the
// same tables field for field. No table.Table and no core.Annotation is
// built: Table and Annotation materialise them on demand.
//
// data is untrusted: every count is checked against the bytes that
// remain before anything is sized by it, every ID against the
// dictionary it indexes, every shape against what BuildContext accepts,
// and the segment must end where data does; a violation is
// ErrBadSegment. Memory is a fixed multiple of len(data): the index's
// arrays, one copy of the strings, per annotation its column types and
// its relations, plus what derive makes per distinct token and posting
// list; nothing per cell or per row. The context is polled at every
// table and every rowCheckInterval rows within one.
func DecodeSegment(ctx context.Context, data []byte) (*Index, error) {
	ix, err := decode(ctx, data)
	if err != nil {
		return nil, err
	}
	if err := ix.derive(ctx); err != nil {
		return nil, err
	}
	return ix, nil
}

// DecodeTables materialises the tables and annotations a persisted
// segment was compiled from — anns nil when it had no annotation list —
// without deriving a posting list: what a caller wants who is after the
// content, not an index to query. data is as untrusted as DecodeSegment's
// and checked the same way.
func DecodeTables(ctx context.Context, data []byte) ([]*table.Table, []*core.Annotation, error) {
	ix, err := decode(ctx, data)
	if err != nil {
		return nil, nil, err
	}
	tables := make([]*table.Table, ix.Len())
	var anns []*core.Annotation
	if ix.anns != nil {
		anns = make([]*core.Annotation, ix.Len())
	}
	for t := range tables {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		tables[t] = ix.Table(t)
		if anns != nil {
			anns[t] = ix.Annotation(t)
		}
	}
	return tables, anns, nil
}

// decode fills the arrays a segment stores from its persistent form and
// derives nothing.
func decode(ctx context.Context, data []byte) (*Index, error) {
	r := &segmentReader{Reader: byteread.New(data, ErrBadSegment)}
	nTables := r.Count(uint64(r.Uvarint32()), 5)
	if nTables > math.MaxInt32 {
		return nil, r.Failf("%d tables", nTables)
	}
	flags := r.U8()
	if flags&^segmentAnnotated != 0 {
		return nil, r.Failf("unknown flags %#x", flags)
	}
	nRaws := r.Count(uint64(r.Uvarint32()), 2)
	nTexts := r.Count(uint64(r.Uvarint32()), 1)
	r.blob = r.Count(uint64(r.Uvarint32()), 1)
	blob := r.Take(r.blob)
	if err := r.Err(); err != nil {
		return nil, err
	}
	ix := &Index{
		blob:   string(blob),
		raws:   make([]rawSpelling, nRaws),
		texts:  make([]strRef, 0, nTexts),
		tables: make([]tableMeta, nTables),
		spans:  make([]tableSpan, nTables),
	}

	// intern never lists a text twice, and derive trusts that: a segment
	// that does is refused here, where untrusted bytes arrive.
	seen := make(map[string]struct{}, nTexts)
	for i := range ix.raws {
		raw := &ix.raws[i]
		raw.strRef = r.str()
		code := r.Uvarint32()
		if code > uint32(len(ix.texts)) || (code == 0 && len(ix.texts) == nTexts) {
			return nil, r.Failf("spelling %d names text %d, %d of %d known", i, int64(code)-1, len(ix.texts), nTexts)
		}
		if raw.text = code - 1; code == 0 {
			raw.text = uint32(len(ix.texts))
			norm := r.str()
			if _, dup := seen[ix.str(norm)]; dup {
				return nil, r.Failf("text %d repeats %q", len(ix.texts), ix.str(norm))
			}
			seen[ix.str(norm)] = struct{}{}
			ix.texts = append(ix.texts, norm)
		}
	}
	if len(ix.texts) != nTexts {
		return nil, r.Failf("%d texts declared, %d listed", nTexts, len(ix.texts))
	}

	var cells int64
	for ti := range ix.tables {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := &ix.tables[ti]
		m.id, m.context = r.str(), r.str()
		ix.spans[ti].off = uint32(cells)
		rows, cols := r.shape(&cells)
		if rows == 0 || cols == 0 {
			return nil, r.Failf("table %d is %d×%d", ti, rows, cols)
		}
		ix.spans[ti].rows, m.cols, m.headers = uint32(rows), uint32(cols), -1
		if r.flag() {
			m.headers = int32(len(ix.headers))
			for c := 0; c < cols; c++ {
				ix.headers = append(ix.headers, r.str())
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	ix.headers = exact(ix.headers)
	if cells > math.MaxUint32 {
		return nil, r.Failf("%d cells", cells)
	}
	ix.cells = make([]uint32, cells)
	known := uint32(0) // spellings the cells so far have introduced
	for ti := range ix.tables {
		rows, cols := int(ix.spans[ti].rows), int(ix.tables[ti].cols)
		raws := ix.cells[ix.spans[ti].off:]
		for i := 0; i < rows; i++ {
			if i&(rowCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for c := 0; c < cols; c++ {
				code := r.Uvarint32()
				if code > known || (code == 0 && known == uint32(nRaws)) {
					return nil, r.Failf("table %d: cell names spelling %d, %d of %d known", ti, int64(code)-1, known, nRaws)
				}
				raw := code - 1
				if code == 0 {
					raw = known
					known++
				}
				raws[c*rows+i] = raw
			}
		}
	}
	if known != uint32(nRaws) {
		return nil, r.Failf("%d spellings declared, %d used", nRaws, known)
	}

	// Reading the entities turns the spelling IDs into cell IDs in place;
	// without an annotation list every spelling's ID is its cells'.
	extra := ix.startPairs(flags&segmentAnnotated != 0)
	if flags&segmentAnnotated != 0 {
		if err := r.annotations(ctx, ix, extra); err != nil {
			return nil, err
		}
	}
	ix.extras = exact(ix.extras)
	if r.Remaining() != 0 || r.pos != r.blob {
		r.Failf("%d bytes and %d string bytes left over", r.Remaining(), r.blob-r.pos)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return ix, nil
}

// annotations reads the annotation list of the segment whose tables and
// cells' spellings ix already holds: every annotation's fields, then
// every annotation's grid of cell entities, turning each cell's spelling
// ID into its cell ID (numbering extras in extra) as the walk passes it.
func (r *segmentReader) annotations(ctx context.Context, ix *Index, extra map[cellPair]uint32) error {
	ix.anns = make([]annMeta, len(ix.tables))
	var cells int64
	for ti := range ix.anns {
		if err := ctx.Err(); err != nil {
			return err
		}
		af := r.U8()
		if af == 0 {
			continue
		}
		if af != annPresent {
			return r.Failf("annotation %d: flags %#x", ti, af)
		}
		a := &ix.anns[ti]
		a.flags = annPresent
		a.tableID = r.str()
		rows, cols := r.shape(&cells)
		if cols == 0 && rows > 0 {
			return r.Failf("annotation %d has %d rows and no column", ti, rows)
		}
		a.rows, a.cols, a.types, a.grid, a.rels = uint32(rows), uint32(cols), uint32(len(ix.annTypes)), uint32(len(ix.annGrid)), uint32(len(ix.annRels))
		if a.rows != ix.spans[ti].rows || a.cols != ix.tables[ti].cols {
			ix.annGrid = slices.Grow(ix.annGrid, rows*cols)[:len(ix.annGrid)+rows*cols]
		}
		for c := 0; c < cols; c++ {
			ix.annTypes = append(ix.annTypes, catalog.TypeID(r.id()))
		}
		nRel := r.Count(uint64(r.Uvarint32()), 4)
		a.nRels = uint32(nRel)
		for range nRel {
			c1, c2 := r.Uvarint32(), r.Uvarint32()
			if c1 >= uint32(cols) || c2 >= uint32(cols) {
				return r.Failf("annotation %d: relation columns (%d,%d) outside %d columns", ti, c1, c2, cols)
			}
			rel := r.id()
			ix.annRels = append(ix.annRels, relMeta{c1, c2, catalog.RelationID(rel), r.flag()})
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if cells > math.MaxUint32 || len(ix.annTypes) > math.MaxUint32 || len(ix.annRels) > math.MaxUint32 {
		return r.Failf("%d annotation cells, %d types, %d relations", cells, len(ix.annTypes), len(ix.annRels))
	}
	ix.annTypes, ix.annRels, ix.annGrid = exact(ix.annTypes), exact(ix.annRels), exact(ix.annGrid)

	labels := make([]int32, len(ix.texts))
	for i := range labels {
		labels[i] = unlabeled
	}
	for ti := range ix.anns {
		a := &ix.anns[ti]
		rows, cols := int(ix.spans[ti].rows), int(ix.tables[ti].cols)
		ids := ix.cells[ix.spans[ti].off:]
		own := a.rows != uint32(rows) || a.cols != uint32(cols)
		// Row by row, the grid's entries, then the table's cells right of
		// the grid: the table's cells come in the order intern numbers.
		for i := 0; i < max(rows, int(a.rows)); i++ {
			if i&(rowCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			c := 0
			for ; i < int(a.rows) && c < int(a.cols); c++ {
				code := r.Uvarint()
				// Over a cell of the table whose text is labeled already, 0
				// repeats the label and anything else is shifted by one more;
				// the first such cell of a text sets its label.
				var label *int32
				if i < rows && c < cols {
					label = &labels[ix.raws[ids[c*rows+i]].text]
				}
				labeled := label != nil && *label != unlabeled
				var e catalog.EntityID
				if labeled && code == 0 {
					e = catalog.EntityID(*label)
				} else {
					if labeled {
						code--
					}
					if code > math.MaxUint32 {
						return r.Failf("annotation %d: entity code %d", ti, code)
					}
					if e = catalog.EntityID(int32(uint32(code)) - 1); label != nil && !labeled {
						*label = int32(e)
					}
				}
				if label != nil {
					ids[c*rows+i] = ix.cellID(ids[c*rows+i], e, extra)
				}
				if own {
					ix.annGrid[int(a.grid)+i*int(a.cols)+c] = e
				}
			}
			for ; i < rows && c < cols; c++ {
				ids[c*rows+i] = ix.cellID(ids[c*rows+i], catalog.None, extra)
			}
		}
	}
	return nil
}
