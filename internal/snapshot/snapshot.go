// Package snapshot implements the persistent corpus snapshot format: one
// file holding a catalog and a live corpus — its index segments, each
// persisted compiled, with their tombstones, and the corpus generation —
// so an annotated corpus is served again after a restart without
// re-running annotation and without re-deriving the index from its
// source: the paper's deployment model of §7, where queries run against
// materialized annotation indices.
//
// # Layout (version 3)
//
//	magic     [6]byte  "WTSNAP"
//	version   uint8    3
//	length    uint64   big-endian byte count of the manifest
//	crc32     uint32   big-endian IEEE CRC of the manifest
//	manifest  generation, corpus shape (segmented or flat), the catalog
//	          section's length and CRC, then per segment: ID, table
//	          count, tombstoned table numbers, section length and CRC
//	catalog   section: the catalog's portable JSON form
//	segment   section, one per manifest entry, in manifest order:
//	          the segment's persistent form (searchidx.Index.AppendTo)
//
// A section is its payload's length as a varint followed by the payload
// as a raw DEFLATE stream; the manifest's length and CRC for it cover
// those compressed bytes, and sections sit back to back, so a section's
// offset is the sum of the lengths before it. Manifest integers are
// unsigned LEB128 varints (wire.go).
//
// The header is uncompressed so foreign files fail fast on the magic and
// a file of any other format version fails on the version before
// anything is decoded. Every block is checksummed on its own and checked
// before it is inflated or parsed, so truncation and bit rot surface as
// ErrChecksum naming the block; what passes its checksum and still does
// not decode — a bug, or a file assembled by hand — is ErrCorrupt.
// Nothing is sized by a number from the file before that number has been
// checked against the bytes actually present (a section's declared
// inflated length against what DEFLATE can expand its compressed bytes
// to).
//
// Because each segment is a section of its own, a reader takes what it
// needs: Reader decodes or skips segment by segment, which is how one
// shard of a cluster opens only its slice of the manifest. Load
// materialises the tables and annotations of them all.
//
// # What is stored and what is derived
//
// A segment section is a dump of what a compiled segment keeps resident
// (internal/searchidx): its one blob of strings — each distinct cell
// spelling once, each distinct normalized text once — the spellings'
// text IDs, the cells as dictionary IDs, and table and annotation
// metadata. That is exactly what is expensive to recompute — normalizing
// and hashing every cell was most of an index build, and parsing them
// out of JSON four fifths of a load. What is cheap to recompute from
// there is not stored: token, header, context, relation and typed-pair
// postings are derived on load by the same code that derives them at
// build time, so the file cannot disagree with the index about them. The
// catalog section stays JSON: it is the builder input of
// catalog.FromSnapshot, a few milliseconds to parse.
//
// The two ends of the package meet in that dump and nowhere else. A
// serving process goes index to file and back: SaveView dumps a view's
// segments as they stand, Reader.Next decodes a section into an index,
// and neither builds a table.Table or a core.Annotation. Callers that
// hold or want objects — tools, tests, the benchmark — go through
// Snapshot: Save interns each segment's tables and writes the same dump
// (searchidx.AppendSegment, no posting list derived), Load materialises
// them from a section's arrays (searchidx.DecodeTables, likewise).
//
// Both writers write version 3, always, and the same bytes for the same
// corpus; there is no format option.
//
// # Version history
//
//	v1  compressed JSON: a flat corpus, one tables list and a parallel
//	    annotations list.
//	v2  the same encoding with the live-corpus manifest: the corpus may
//	    instead be a list of index segments, each with its tables,
//	    annotations and tombstoned table numbers, plus the generation.
//	v3  this layout, the only one read. Nothing has written version 1
//	    or 2 since version 3 landed; such a file is ErrVersion, whose
//	    message names the last commit (lastV2Reader) that loads one and
//	    saves it again as version 3.
package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/searchidx"
	"repro/internal/segment"
	"repro/internal/table"
)

// Version is the snapshot format version Save writes and the only one
// readers accept.
const Version = 3

// lastV2Reader is the last commit of this repository that reads version
// 1 and 2 files; `tabserved -load` there, then POST /v1/snapshot, re-saves
// one as version 3.
const lastV2Reader = "cc864bc"

var magic = [6]byte{'W', 'T', 'S', 'N', 'A', 'P'}

// headerLen is magic + version byte + manifest length + manifest CRC.
const headerLen = len(magic) + 1 + 8 + 4

// Sentinel errors of the snapshot format; test with errors.Is.
var (
	// ErrNotSnapshot reports a file that does not start with the snapshot
	// magic bytes.
	ErrNotSnapshot = errors.New("snapshot: not a snapshot file")
	// ErrVersion reports a snapshot of a format version other than the
	// one this package reads.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum reports a block — manifest, catalog or segment section —
	// whose bytes are missing or do not match their checksum (truncation
	// or corruption in transit).
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt reports a block that passed its checksum but failed to
	// decode (a bug, or a file assembled by hand).
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// Snapshot is one persisted corpus: the catalog's portable form plus
// either the flat corpus shape (Tables and parallel Anns) or the
// segmented live-corpus manifest (Segments and Generation). Exactly one
// of the two corpus shapes may be populated.
type Snapshot struct {
	Catalog catalog.Snapshot
	// Tables and Anns are the flat corpus form: every table in order,
	// annotations nil or parallel with nil entries for unannotated
	// tables. Loaded as a single live segment.
	Tables []*table.Table
	Anns   []*core.Annotation
	// Segments is the live-corpus manifest: the ordered immutable index
	// segments, each with its own tables, annotations and tombstones.
	Segments []Segment
	// Generation is the corpus generation the manifest was taken at.
	Generation uint64
}

// Segment is one persisted index segment of a live corpus.
type Segment struct {
	// ID is the segment's store-unique identity.
	ID uint64 `json:"id"`
	// Tables holds the segment's tables in segment order; Anns is nil or
	// parallel to Tables.
	Tables []*table.Table     `json:"tables"`
	Anns   []*core.Annotation `json:"annotations,omitempty"`
	// Dead lists the segment-local numbers of tombstoned tables.
	Dead []int `json:"dead,omitempty"`
}

// validate checks the structural invariants of a corpus manifest:
// annotation/table parallelism (flat and per segment), tombstone ranges,
// and that the flat and segmented corpus shapes are not mixed.
func (s *Snapshot) validate() error {
	if len(s.Tables) > 0 && len(s.Segments) > 0 {
		return errors.New("snapshot: both flat tables and segments populated")
	}
	if s.Anns != nil && len(s.Anns) != len(s.Tables) {
		return fmt.Errorf("snapshot: %d annotations for %d tables", len(s.Anns), len(s.Tables))
	}
	for si, seg := range s.Segments {
		if seg.Anns != nil && len(seg.Anns) != len(seg.Tables) {
			return fmt.Errorf("snapshot: segment %d: %d annotations for %d tables", si, len(seg.Anns), len(seg.Tables))
		}
		for _, local := range seg.Dead {
			if local < 0 || local >= len(seg.Tables) {
				return fmt.Errorf("snapshot: segment %d: tombstone %d out of range [0, %d)", si, local, len(seg.Tables))
			}
		}
	}
	return nil
}

// Snapshot metrics live on the process-global obs.Default() registry,
// like compaction's: saving and loading have no serving surface of their
// own, and every server's /metrics handler merges the Default registry
// in. Registered on the first save or load.
var (
	metricsOnce sync.Once
	saveSeconds *obs.Histogram
	loadSeconds *obs.Histogram
	lastBytes   *obs.GaugeVec
	lastSegs    *obs.GaugeVec
)

func metricsInit() {
	metricsOnce.Do(func() {
		reg := obs.Default()
		saveSeconds = reg.Histogram("snapshot_save_seconds",
			"Duration of one snapshot save: compiling, compressing and writing every segment.", obs.LatencyBuckets).With()
		loadSeconds = reg.Histogram("snapshot_load_seconds",
			"Duration of one snapshot read, from the header to the last segment decoded or skipped.", obs.LatencyBuckets).With()
		lastBytes = reg.Gauge("snapshot_bytes",
			"Bytes the last snapshot save wrote or the last load read (skipped sections not counted).", "op")
		lastSegs = reg.Gauge("snapshot_segments",
			"Segments the last snapshot save wrote or the last load decoded.", "op")
	})
}

// frame puts the header in front of a file's manifest: magic, version,
// and the manifest's length and checksum.
func frame(version uint8, manifest []byte) []byte {
	out := make([]byte, 0, headerLen+len(manifest))
	out = append(out, magic[:]...)
	out = append(out, version)
	out = binary.BigEndian.AppendUint64(out, uint64(len(manifest)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(manifest))
	return append(out, manifest...)
}

// Save is SaveContext without cancellation or tracing.
func Save(w io.Writer, s *Snapshot) error {
	return SaveContext(context.Background(), w, s)
}

// SaveContext writes s to w in the current format version: every
// segment interned and dumped in its persistent form
// (searchidx.AppendSegment), compressed and checksummed on its own,
// behind a manifest that says where each one lies. The same Snapshot
// always yields the same bytes. The context is checked between segments;
// when it carries a trace, the save is a snapshot.save span with one
// snapshot.section child per segment.
func SaveContext(ctx context.Context, w io.Writer, s *Snapshot) error {
	if err := s.validate(); err != nil {
		return err
	}
	segs := s.SegmentList()
	return save(ctx, w, s.Catalog, s.Generation, len(s.Segments) == 0, len(segs), func(i int, dst []byte) (SegmentInfo, []byte, error) {
		dst, err := searchidx.AppendSegment(dst, segs[i].Tables, segs[i].Anns)
		return SegmentInfo{ID: segs[i].ID, Tables: len(segs[i].Tables), Dead: segs[i].Dead}, dst, err
	})
}

// SaveView writes a live corpus view to w as SaveContext writes the
// Snapshot holding the view's tables and annotations — the same bytes —
// without materialising them: every segment is dumped from its compiled
// form as it stands (searchidx.Index.AppendTo).
func SaveView(ctx context.Context, w io.Writer, v *segment.View) error {
	return save(ctx, w, v.Catalog().Snapshot(), v.Generation(), v.Segments() == 0, v.Segments(), func(i int, dst []byte) (SegmentInfo, []byte, error) {
		seg := v.SegmentAt(i)
		return SegmentInfo{ID: seg.ID(), Tables: seg.Len(), Dead: v.DeadAt(i)}, seg.Index().AppendTo(dst), nil
	})
}

// save writes one file of n segments; segment appends segment i's
// persistent form to dst and says what the manifest lists it as. The
// sections are buffered in memory, since the manifest that precedes them
// carries their lengths and checksums.
func save(ctx context.Context, w io.Writer, cat catalog.Snapshot, generation uint64, flat bool, n int, segment func(i int, dst []byte) (SegmentInfo, []byte, error)) error {
	metricsInit()
	t0 := time.Now()
	span := obs.Begin(ctx, "snapshot.save")
	defer span.End()
	m := &manifest{
		generation: generation,
		flat:       flat,
		segments:   make([]SegmentInfo, n),
		sections:   make([]sectionRef, n),
	}
	catJSON, err := json.Marshal(cat)
	if err != nil {
		return fmt.Errorf("snapshot: encode catalog: %w", err)
	}
	var z deflater
	sections, err := z.appendSection(nil, catJSON)
	if err != nil {
		return fmt.Errorf("snapshot: compress catalog: %w", err)
	}
	m.catalog = sectionRef{length: uint64(len(sections)), crc: crc32.ChecksumIEEE(sections)}
	var payload []byte
	for i := range m.segments {
		if err := ctx.Err(); err != nil {
			return err
		}
		child := span.Child("snapshot.section")
		start := len(sections)
		if m.segments[i], payload, err = segment(i, payload[:0]); err == nil {
			sections, err = z.appendSection(sections, payload)
		}
		child.End()
		if err != nil {
			return fmt.Errorf("snapshot: segment %d: %w", i, err)
		}
		m.sections[i] = sectionRef{length: uint64(len(sections) - start), crc: crc32.ChecksumIEEE(sections[start:])}
	}
	head := frame(Version, appendManifest(nil, m))
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("snapshot: write manifest: %w", err)
	}
	if _, err := w.Write(sections); err != nil {
		return fmt.Errorf("snapshot: write sections: %w", err)
	}
	saveSeconds.Observe(time.Since(t0).Seconds())
	lastBytes.With("save").Set(float64(len(head) + len(sections)))
	lastSegs.With("save").Set(float64(n))
	return nil
}

// Reader reads one snapshot file front to back: NewReader takes the
// header, the manifest and the catalog; Next and Skip then take the
// segments one at a time, in manifest order, decoding a segment to its
// compiled index or passing over its section unread. A reader that
// stops early has read nothing of the segments it did not reach.
type Reader struct {
	// Catalog is the catalog's portable form.
	Catalog catalog.Snapshot
	// Generation is the corpus generation the manifest was taken at.
	Generation uint64
	// Flat reports the flat corpus shape: at most one segment, anonymous,
	// never mutated (Generation is then zero).
	Flat bool
	// Manifest lists the file's segments in corpus order.
	Manifest []SegmentInfo

	ctx      context.Context
	r        io.Reader
	next     int
	sections []sectionRef

	t0      time.Time
	span    *obs.Span
	bytes   int64
	decoded int
}

// NewReader reads a snapshot's header, manifest and catalog from r,
// verifying magic, version and checksums before decoding anything. When
// ctx carries a trace, the read is a snapshot.load span from here to
// Close, with one snapshot.section child per segment decoded.
func NewReader(ctx context.Context, r io.Reader) (*Reader, error) {
	metricsInit()
	rd := &Reader{ctx: ctx, r: r, t0: time.Now(), span: obs.Begin(ctx, "snapshot.load")}
	if err := rd.open(); err != nil {
		rd.span.End()
		return nil, err
	}
	return rd, nil
}

func (rd *Reader) open() error {
	header := make([]byte, headerLen)
	if _, err := io.ReadFull(rd.r, header); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrNotSnapshot, err)
	}
	rd.bytes = int64(headerLen)
	if !bytes.Equal(header[:len(magic)], magic[:]) {
		return ErrNotSnapshot
	}
	switch version := header[len(magic)]; {
	case version < Version:
		return fmt.Errorf("%w: file version %d, reader supports only %d; commit %s is the last that loads it and saves it again as version %d",
			ErrVersion, version, Version, lastV2Reader, Version)
	case version > Version:
		return fmt.Errorf("%w: file version %d, reader supports only %d", ErrVersion, version, Version)
	}
	first := sectionRef{
		length: binary.BigEndian.Uint64(header[len(magic)+1:]),
		crc:    binary.BigEndian.Uint32(header[len(magic)+9:]),
	}
	raw, err := rd.block(first, "manifest")
	if err != nil {
		return err
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return err
	}
	rd.Generation, rd.Flat, rd.Manifest, rd.sections = m.generation, m.flat, m.segments, m.sections
	if raw, err = rd.block(m.catalog, "catalog section"); err != nil {
		return err
	}
	if raw, err = inflate(raw); err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &rd.Catalog); err != nil {
		return fmt.Errorf("%w: catalog: %v", ErrCorrupt, err)
	}
	return nil
}

func (rd *Reader) block(ref sectionRef, what string) ([]byte, error) {
	raw, err := readBlock(rd.r, ref, what)
	rd.bytes += int64(len(raw))
	return raw, err
}

// Next decodes the next segment of the manifest into its compiled index
// over cat.
func (rd *Reader) Next(cat *catalog.Catalog) (*searchidx.Index, error) {
	var ix *searchidx.Index
	err := rd.decodeNext(func(payload []byte) (int, error) {
		var err error
		if ix, err = searchidx.DecodeSegment(rd.ctx, cat, payload); err != nil {
			return 0, err
		}
		return ix.Len(), nil
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// decodeNext advances to the next segment of the manifest and, inside a
// snapshot.section span, hands decode its section's payload, checked and
// inflated. decode reports how many tables it found, which must be the
// manifest's count.
func (rd *Reader) decodeNext(decode func(payload []byte) (tables int, err error)) error {
	i := rd.next
	if i >= len(rd.Manifest) {
		return io.EOF
	}
	rd.next++
	rd.decoded++
	child := rd.span.Child("snapshot.section")
	defer child.End()
	raw, err := rd.block(rd.sections[i], fmt.Sprintf("segment %d section", i))
	if err != nil {
		return err
	}
	payload, err := inflate(raw)
	if err != nil {
		return fmt.Errorf("segment %d: %w", i, err)
	}
	tables, err := decode(payload)
	if errors.Is(err, searchidx.ErrBadSegment) {
		return fmt.Errorf("%w: segment %d: %v", ErrCorrupt, i, err)
	}
	if err != nil {
		return err
	}
	if tables != rd.Manifest[i].Tables {
		return fmt.Errorf("%w: segment %d holds %d tables, the manifest says %d", ErrCorrupt, i, tables, rd.Manifest[i].Tables)
	}
	return nil
}

// Skip passes over the next segment of the manifest without reading its
// section: it seeks when the source can, and discards otherwise.
func (rd *Reader) Skip() error {
	i := rd.next
	if i >= len(rd.Manifest) {
		return io.EOF
	}
	rd.next++
	n := int64(rd.sections[i].length)
	if s, ok := rd.r.(io.Seeker); ok {
		if _, err := s.Seek(n, io.SeekCurrent); err != nil {
			return fmt.Errorf("snapshot: skip segment %d section: %w", i, err)
		}
		return nil
	}
	if got, err := io.CopyN(io.Discard, rd.r, n); err != nil {
		return fmt.Errorf("%w: segment %d section truncated at %d of %d bytes: %v", ErrChecksum, i, got, rd.sections[i].length, err)
	}
	return nil
}

// Close ends the read: the snapshot.load span, and the load's metrics.
// It does not close the source. Idempotent.
func (rd *Reader) Close() {
	if rd.r == nil {
		return
	}
	rd.r = nil
	rd.span.End()
	loadSeconds.Observe(time.Since(rd.t0).Seconds())
	lastBytes.With("load").Set(float64(rd.bytes))
	lastSegs.With("load").Set(float64(rd.decoded))
}

// Load reads one whole snapshot from r into the tables-and-annotations
// form Save takes, materialising every segment's tables straight from
// its section (searchidx.DecodeTables): no index is derived only to be
// dropped. Failures are structured: ErrNotSnapshot, ErrVersion,
// ErrChecksum or ErrCorrupt.
func Load(r io.Reader) (*Snapshot, error) {
	rd, err := NewReader(context.Background(), r)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	snap := &Snapshot{Catalog: rd.Catalog, Generation: rd.Generation}
	var segs []Segment
	for _, m := range rd.Manifest {
		sg := Segment{ID: m.ID, Dead: m.Dead}
		err := rd.decodeNext(func(payload []byte) (n int, err error) {
			sg.Tables, sg.Anns, err = searchidx.DecodeTables(rd.ctx, payload)
			return len(sg.Tables), err
		})
		if err != nil {
			return nil, err
		}
		segs = append(segs, sg)
	}
	if !rd.Flat {
		snap.Segments = segs
	} else if len(segs) > 0 {
		snap.Tables, snap.Anns = segs[0].Tables, segs[0].Anns
	}
	return snap, nil
}
