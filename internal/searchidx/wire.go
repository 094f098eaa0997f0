package searchidx

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/text"
)

// The persistent form of a segment: what AppendSegment writes and
// DecodeSegment reads, the payload of one section of a WTSNAP file
// (internal/snapshot frames, compresses and checksums it). It holds the
// segment's source — tables and annotations, losslessly — in the shape
// the compiled index wants it, so that loading is slicing and copying,
// not parsing, normalizing and hashing:
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
//	tables × { flags byte: 0 for no annotation, else bit 0, and bit 1
//	           for diagnostics; table-ID length, rows, cols, cols × type;
//	           relations, then × { col1, col2, relation, forward };
//	           candidate-gen, graph-build and inference nanoseconds,
//	           iterations, variables, factors, converged }
//	per annotation, row by row: the cell's entity, plus one; but over a
//	         cell of the table whose text an earlier such cell had: 0 for
//	         that cell's entity (the first such cell's), else plus two
//
// The last two groups are present only under flags bit 0, and an
// annotation's diagnostics only under its bit 1. Every integer is an
// unsigned LEB128 varint; type, entity and relation IDs are stored plus
// one, so that none is a zero byte. Spellings and texts are numbered in
// order of first appearance walking tables, then rows, then columns —
// the order BuildContext interns in — which is what lets "new" be a
// zero instead of a number.
//
// The coding leaves a general-purpose compressor little to find except
// real repetition: a corpus of all-new strings is runs of zeros, the
// mentions of an entity mostly carry the label its first mention got,
// and replicated tables are byte-identical runs.
//
// Stored, because recomputing it is what made a restart slow: the text
// dictionary in text-ID order, every raw spelling's text ID, and the
// cells as IDs. Derived on load by the code that derives it at build
// (Index.derive and addText): token postings from the text dictionary,
// header, context, relation and typed-pair postings and the per-cell
// entity array from headers, contexts and annotations. A stored text is
// trusted to be the normalization of the spellings that point at it;
// the section's checksum is what vouches for it.
//
// A change to this layout is a new snapshot format version.

// ErrBadSegment reports a persisted segment that does not decode: a
// count or ID out of bounds, a shape no table or annotation can have,
// truncation, or trailing bytes.
var ErrBadSegment = errors.New("searchidx: malformed persisted segment")

const (
	segmentAnnotated = 1 << 0 // section flag: the segment has an annotation list
	annPresent       = 1 << 0 // annotation flag: the table is annotated
	annDiagnostics   = 1 << 1 // annotation flag: nonzero diagnostics follow
)

// unlabeled marks, in the per-text entity defaults, a text no annotated
// table cell has had yet. No entity ID takes this value: IDs are
// catalog.None or non-negative.
const unlabeled = math.MinInt32

// AppendSegment appends the persistent form of the segment BuildContext
// would compile from tables and anns (nil, or parallel to tables with nil
// entries for unannotated tables). The bytes depend on nothing but the
// arguments. Tables must pass Validate; an annotation must be a
// rectangular grid as wide as its column types (and empty when it has
// none) whose relations name columns of that grid — the shapes
// annotators produce and DecodeSegment accepts.
func AppendSegment(dst []byte, tables []*table.Table, anns []*core.Annotation) ([]byte, error) {
	if anns != nil && len(anns) != len(tables) {
		return nil, fmt.Errorf("searchidx: %d annotations for %d tables", len(anns), len(tables))
	}
	var blob, body []byte
	str := func(s string) {
		blob = append(blob, s...)
		body = binary.AppendUvarint(body, uint64(len(s)))
	}

	// The dictionaries, and every cell's text ID in walking order. The
	// cells are coded as they are walked, into a stream of their own that
	// goes after the tables.
	var (
		rawIDs    = make(map[string]uint32)
		rawText   []uint32
		textIDs   = make(map[string]uint32)
		cells     []byte
		cellTexts []uint32
	)
	for _, t := range tables {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		for _, row := range t.Cells {
			for _, cell := range row {
				id, seen := rawIDs[cell]
				if seen {
					cells = binary.AppendUvarint(cells, uint64(id)+1)
					cellTexts = append(cellTexts, rawText[id])
					continue
				}
				rawIDs[cell] = uint32(len(rawText))
				cells = append(cells, 0)
				str(cell)
				norm := text.Normalize(cell)
				tid, seen := textIDs[norm]
				if seen {
					body = binary.AppendUvarint(body, uint64(tid)+1)
				} else {
					tid = uint32(len(textIDs))
					textIDs[norm] = tid
					body = append(body, 0)
					str(norm)
				}
				rawText = append(rawText, tid)
				cellTexts = append(cellTexts, tid)
			}
		}
	}
	for _, t := range tables {
		str(t.ID)
		str(t.Context)
		body = binary.AppendUvarint(body, uint64(t.Rows()))
		body = binary.AppendUvarint(body, uint64(t.Cols()))
		if t.Headers == nil {
			body = append(body, 0)
			continue
		}
		body = append(body, 1)
		for _, h := range t.Headers {
			str(h)
		}
	}
	body = append(body, cells...)

	flags := byte(0)
	if anns != nil {
		flags = segmentAnnotated
	}
	for _, a := range anns {
		if a == nil {
			body = append(body, 0)
			continue
		}
		rows, cols := len(a.CellEntities), len(a.ColumnTypes)
		if cols == 0 && rows > 0 {
			return nil, fmt.Errorf("searchidx: annotation %q has %d rows and no column", a.TableID, rows)
		}
		af := byte(annPresent)
		if a.Diag != (core.Diagnostics{}) {
			af |= annDiagnostics
		}
		body = append(body, af)
		str(a.TableID)
		body = binary.AppendUvarint(body, uint64(rows))
		body = binary.AppendUvarint(body, uint64(cols))
		for _, T := range a.ColumnTypes {
			body = appendID(body, int32(T))
		}
		body = binary.AppendUvarint(body, uint64(len(a.Relations)))
		for _, ra := range a.Relations {
			if ra.Col1 < 0 || ra.Col1 >= cols || ra.Col2 < 0 || ra.Col2 >= cols {
				return nil, fmt.Errorf("searchidx: annotation %q: relation columns (%d,%d) outside %d columns", a.TableID, ra.Col1, ra.Col2, cols)
			}
			body = binary.AppendUvarint(body, uint64(ra.Col1))
			body = binary.AppendUvarint(body, uint64(ra.Col2))
			body = appendID(body, int32(ra.Relation))
			body = appendBool(body, ra.Forward)
		}
		if af&annDiagnostics != 0 {
			d := a.Diag
			body = binary.AppendUvarint(body, uint64(d.CandidateGen))
			body = binary.AppendUvarint(body, uint64(d.GraphBuild))
			body = binary.AppendUvarint(body, uint64(d.Inference))
			body = binary.AppendUvarint(body, uint64(d.Iterations))
			body = binary.AppendUvarint(body, uint64(d.NumVars))
			body = binary.AppendUvarint(body, uint64(d.NumFactors))
			body = appendBool(body, d.Converged)
		}
	}
	labels := make([]int32, len(textIDs))
	for i := range labels {
		labels[i] = unlabeled
	}
	base := 0
	for ti, t := range tables {
		rows, cols := t.Rows(), t.Cols()
		if anns != nil && anns[ti] != nil {
			a := anns[ti]
			for r, row := range a.CellEntities {
				if len(row) != len(a.ColumnTypes) {
					return nil, fmt.Errorf("searchidx: annotation %q row %d has %d cells for %d columns", a.TableID, r, len(row), len(a.ColumnTypes))
				}
				for c, e := range row {
					if r >= rows || c >= cols {
						body = appendID(body, int32(e))
						continue
					}
					switch label := &labels[cellTexts[base+r*cols+c]]; {
					case *label == unlabeled:
						*label = int32(e)
						body = appendID(body, int32(e))
					case *label == int32(e):
						body = append(body, 0)
					default:
						body = binary.AppendUvarint(body, uint64(uint32(e+1))+1)
					}
				}
			}
		}
		base += rows * cols
	}

	dst = binary.AppendUvarint(dst, uint64(len(tables)))
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(rawText)))
	dst = binary.AppendUvarint(dst, uint64(len(textIDs)))
	dst = binary.AppendUvarint(dst, uint64(len(blob)))
	dst = append(dst, blob...)
	return append(dst, body...), nil
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

// segmentReader is a bounds-checked cursor over a persisted segment.
type segmentReader struct {
	data []byte
	off  int
	// blob holds the segment's strings; str hands them out front to back.
	blob string
}

func (r *segmentReader) remaining() int { return len(r.data) - r.off }

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSegment, fmt.Sprintf(format, args...))
}

func (r *segmentReader) u8() (byte, error) {
	if r.off >= len(r.data) {
		return 0, corrupt("truncated at byte %d", r.off)
	}
	r.off++
	return r.data[r.off-1], nil
}

func (r *segmentReader) u64() (uint64, error) {
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		r.off++
		return uint64(r.data[r.off-1]), nil
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, corrupt("bad varint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// uvarint reads one varint of at most 32 bits: a count, a length, or an
// ID plus one.
func (r *segmentReader) uvarint() (uint32, error) {
	v, err := r.u64()
	if err == nil && v > math.MaxUint32 {
		err = corrupt("value %d before byte %d exceeds 32 bits", v, r.off)
	}
	return uint32(v), err
}

// count reads an element count and checks it against the bytes that
// remain — each element takes at least min of them — so a corrupt count
// reads as truncation instead of sizing an allocation.
func (r *segmentReader) count(min int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(min) > int64(r.remaining()) {
		return 0, corrupt("count %d before byte %d exceeds the %d bytes that remain", n, r.off, r.remaining())
	}
	return int(n), nil
}

// id reads a type, entity or relation ID stored plus one.
func (r *segmentReader) id() (int32, error) {
	v, err := r.uvarint()
	return int32(v) - 1, err
}

func (r *segmentReader) flag() (bool, error) {
	b, err := r.u8()
	if err == nil && b > 1 {
		err = corrupt("flag %d at byte %d", b, r.off-1)
	}
	return b == 1, err
}

// str reads a string's length and cuts the string off the front of the
// blob. The result shares the blob's memory.
func (r *segmentReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(n) > uint64(len(r.blob)) {
		return "", corrupt("string of %d bytes before byte %d, %d left in the blob", n, r.off, len(r.blob))
	}
	s := r.blob[:n]
	r.blob = r.blob[n:]
	return s, nil
}

// shape reads the dimensions of a grid — a table's cells, an
// annotation's entities — whose every element takes at least one byte
// further on: rows and cols are each bounded by the bytes that remain,
// and *total, the running number of such elements the segment has
// promised so far, grows by rows × cols and must stay within them too.
func (r *segmentReader) shape(total *int64) (rows, cols int, err error) {
	if rows, err = r.count(1); err != nil {
		return 0, 0, err
	}
	if cols, err = r.count(1); err != nil {
		return 0, 0, err
	}
	if *total += int64(rows) * int64(cols); *total > int64(r.remaining()) {
		return 0, 0, corrupt("%d grid cells promised before byte %d, %d bytes remain", *total, r.off, r.remaining())
	}
	return rows, cols, nil
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

// DecodeSegment rebuilds the compiled index of a segment AppendSegment
// persisted, with the tables and annotations it was written from. Text
// IDs and the text dictionary are taken as stored; everything else an
// Index holds is derived exactly as BuildContext derives it, so the
// result equals BuildContext's over the same tables field for field.
//
// data is untrusted: every count is checked against the bytes that
// remain before anything is sized by it, every ID against the
// dictionary it indexes, every shape against what Table.Validate and
// AppendSegment accept, and the segment must end where data does; a
// violation is ErrBadSegment. Memory is a fixed multiple of len(data):
// the index's arrays, one copy of the strings (every cell, header, ID
// and text is a substring of it), and per table a handful of
// allocations — the table, its headers, its cells as one array cut into
// rows, and the same for its annotation — plus what derive makes per
// distinct token and posting list; none per cell or per row. A table
// owns its arrays, so that compacting a loaded segment away frees its
// dead tables as it would a built one's. The context is polled at every
// table and every rowCheckInterval rows within one.
func DecodeSegment(ctx context.Context, cat *catalog.Catalog, data []byte) (*Index, error) {
	r := &segmentReader{data: data}
	nTables, err := r.count(5)
	if err != nil {
		return nil, err
	}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	if flags&^segmentAnnotated != 0 {
		return nil, corrupt("unknown flags %#x", flags)
	}
	nRaws, err := r.count(2)
	if err != nil {
		return nil, err
	}
	nTexts, err := r.count(1)
	if err != nil {
		return nil, err
	}
	blobLen, err := r.count(1)
	if err != nil {
		return nil, err
	}
	r.blob = string(r.data[r.off : r.off+blobLen])
	r.off += blobLen

	raws := make([]string, nRaws)
	rawText := make([]uint32, nRaws)
	texts := make([]string, 0, nTexts)
	for i := range raws {
		if raws[i], err = r.str(); err != nil {
			return nil, err
		}
		code, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if code > uint32(len(texts)) || (code == 0 && len(texts) == nTexts) {
			return nil, corrupt("spelling %d names text %d, %d of %d known", i, int64(code)-1, len(texts), nTexts)
		}
		if rawText[i] = code - 1; code == 0 {
			rawText[i] = uint32(len(texts))
			norm, err := r.str()
			if err != nil {
				return nil, err
			}
			texts = append(texts, norm)
		}
	}
	if len(texts) != nTexts {
		return nil, corrupt("%d texts declared, %d listed", nTexts, len(texts))
	}

	tables := make([]*table.Table, nTables)
	var cells int64
	for ti := range tables {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := &table.Table{}
		tables[ti] = t
		if t.ID, err = r.str(); err != nil {
			return nil, err
		}
		if t.Context, err = r.str(); err != nil {
			return nil, err
		}
		rows, cols, err := r.shape(&cells)
		if err != nil {
			return nil, err
		}
		if rows == 0 || cols == 0 {
			return nil, corrupt("table %d is %d×%d", ti, rows, cols)
		}
		t.Cells = newGrid[string](rows, cols)
		headers, err := r.flag()
		if err != nil {
			return nil, err
		}
		if headers {
			t.Headers = make([]string, cols)
			for c := range t.Headers {
				if t.Headers[c], err = r.str(); err != nil {
					return nil, err
				}
			}
		}
	}
	ix, err := newIndex(cat, tables, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSegment, err)
	}
	known := uint32(0) // spellings the cells so far have introduced
	for ti, t := range tables {
		rows := len(t.Cells)
		ids := ix.cellText[ix.spans[ti].off:]
		for i, row := range t.Cells {
			if i&(rowCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for c := range row {
				code, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if code > known || (code == 0 && known == uint32(nRaws)) {
					return nil, corrupt("table %d: cell names spelling %d, %d of %d known", ti, int64(code)-1, known, nRaws)
				}
				raw := code - 1
				if code == 0 {
					raw = known
					known++
				}
				row[c], ids[c*rows+i] = raws[raw], rawText[raw]
			}
		}
	}
	if known != uint32(nRaws) {
		return nil, corrupt("%d spellings declared, %d used", nRaws, known)
	}

	if flags&segmentAnnotated != 0 {
		if ix.Anns, err = r.annotations(ctx, ix, nTexts); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 || len(r.blob) != 0 {
		return nil, corrupt("%d bytes and %d string bytes left over", r.remaining(), len(r.blob))
	}

	for i, norm := range texts {
		if _, dup := ix.textIDs[norm]; dup {
			return nil, corrupt("text %d repeats %q", i, norm)
		}
		if _, err := ix.addText(norm); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSegment, err)
		}
	}
	if err := ix.derive(ctx); err != nil {
		return nil, err
	}
	return ix, nil
}

// annotations reads the annotation list of the segment whose tables and
// text IDs ix already holds: every annotation's fields, then every
// annotation's grid of cell entities.
func (r *segmentReader) annotations(ctx context.Context, ix *Index, nTexts int) ([]*core.Annotation, error) {
	anns := make([]*core.Annotation, len(ix.Tables))
	var cells int64
	for ti := range anns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		af, err := r.u8()
		if err != nil {
			return nil, err
		}
		if af == 0 {
			continue
		}
		if af&annPresent == 0 || af&^(annPresent|annDiagnostics) != 0 {
			return nil, corrupt("annotation %d: flags %#x", ti, af)
		}
		a := &core.Annotation{}
		anns[ti] = a
		if a.TableID, err = r.str(); err != nil {
			return nil, err
		}
		rows, cols, err := r.shape(&cells)
		if err != nil {
			return nil, err
		}
		if cols == 0 && rows > 0 {
			return nil, corrupt("annotation %d has %d rows and no column", ti, rows)
		}
		a.CellEntities = newGrid[catalog.EntityID](rows, cols)
		a.ColumnTypes = make([]catalog.TypeID, cols)
		for c := range a.ColumnTypes {
			T, err := r.id()
			if err != nil {
				return nil, err
			}
			a.ColumnTypes[c] = catalog.TypeID(T)
		}
		nRel, err := r.count(4)
		if err != nil {
			return nil, err
		}
		if nRel > 0 {
			a.Relations = make([]core.RelationAnnotation, nRel)
		}
		for i := range a.Relations {
			ra := &a.Relations[i]
			c1, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			c2, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if c1 >= uint32(cols) || c2 >= uint32(cols) {
				return nil, corrupt("annotation %d: relation columns (%d,%d) outside %d columns", ti, c1, c2, cols)
			}
			ra.Col1, ra.Col2 = int(c1), int(c2)
			rel, err := r.id()
			if err != nil {
				return nil, err
			}
			ra.Relation = catalog.RelationID(rel)
			if ra.Forward, err = r.flag(); err != nil {
				return nil, err
			}
		}
		if af&annDiagnostics != 0 {
			if a.Diag, err = r.diagnostics(); err != nil {
				return nil, err
			}
		}
	}

	labels := make([]int32, nTexts)
	for i := range labels {
		labels[i] = unlabeled
	}
	for ti, a := range anns {
		if a == nil {
			continue
		}
		rows, cols := ix.Tables[ti].Rows(), ix.Tables[ti].Cols()
		texts := ix.cellText[ix.spans[ti].off:]
		for i, row := range a.CellEntities {
			if i&(rowCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for c := range row {
				code, err := r.u64()
				if err != nil {
					return nil, err
				}
				// Over a cell of the table whose text is labeled already, 0
				// repeats the label and anything else is shifted by one more;
				// the first such cell of a text sets its label.
				var label *int32
				if i < rows && c < cols {
					if label = &labels[texts[c*rows+i]]; *label != unlabeled {
						if code == 0 {
							row[c] = catalog.EntityID(*label)
							continue
						}
						code--
						label = nil
					}
				}
				if code > math.MaxUint32 {
					return nil, corrupt("annotation %d: entity code %d", ti, code)
				}
				row[c] = catalog.EntityID(int32(uint32(code)) - 1)
				if label != nil {
					*label = int32(row[c])
				}
			}
		}
	}
	return anns, nil
}

func (r *segmentReader) diagnostics() (core.Diagnostics, error) {
	var v [6]uint64
	for i := range v {
		var err error
		if v[i], err = r.u64(); err != nil {
			return core.Diagnostics{}, err
		}
	}
	converged, err := r.flag()
	return core.Diagnostics{
		CandidateGen: time.Duration(v[0]), GraphBuild: time.Duration(v[1]), Inference: time.Duration(v[2]),
		Iterations: int(v[3]), NumVars: int(v[4]), NumFactors: int(v[5]), Converged: converged,
	}, err
}
