package snapshot

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/byteread"
)

// The framing: the manifest's bytes, and the compressed form of a
// catalog or segment section. Everything read here is untrusted until
// its checksum has passed, and sized with care even then.

// sectionRef locates one section in the file: how many bytes it takes,
// compressed, and their CRC-32. Sections follow the manifest back to
// back in manifest order, so a section's offset is the sum of the
// lengths before it.
type sectionRef struct {
	length uint64
	crc    uint32
}

// SegmentInfo is one segment's manifest entry: what a reader knows about
// a segment without opening its section.
type SegmentInfo struct {
	// ID is the segment's store-unique identity.
	ID uint64
	// Tables is the number of tables the segment holds, dead ones
	// included.
	Tables int
	// Dead lists the segment-local numbers of tombstoned tables.
	Dead []int
}

// manifest is the decoded first block of a snapshot file.
type manifest struct {
	generation uint64
	flat       bool
	catalog    sectionRef
	segments   []SegmentInfo
	sections   []sectionRef // parallel to segments
}

// appendManifest appends m's wire form: generation, shape (0 segmented,
// 1 flat), the catalog's section, the segment count and per segment its
// ID, table count, tombstone count, tombstones and section. Integers
// are unsigned LEB128 varints, checksums four big-endian bytes.
func appendManifest(dst []byte, m *manifest) []byte {
	dst = binary.AppendUvarint(dst, m.generation)
	if m.flat {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendSectionRef(dst, m.catalog)
	dst = binary.AppendUvarint(dst, uint64(len(m.segments)))
	for i, sg := range m.segments {
		dst = binary.AppendUvarint(dst, sg.ID)
		dst = binary.AppendUvarint(dst, uint64(sg.Tables))
		dst = binary.AppendUvarint(dst, uint64(len(sg.Dead)))
		for _, local := range sg.Dead {
			dst = binary.AppendUvarint(dst, uint64(local))
		}
		dst = appendSectionRef(dst, m.sections[i])
	}
	return dst
}

func appendSectionRef(dst []byte, ref sectionRef) []byte {
	dst = binary.AppendUvarint(dst, ref.length)
	return binary.BigEndian.AppendUint32(dst, ref.crc)
}

// errBadManifest is ErrCorrupt for a manifest, so that its faults say
// which block they are in.
var errBadManifest = fmt.Errorf("%w: manifest", ErrCorrupt)

// readSectionRef reads what appendSectionRef wrote.
func readSectionRef(r *byteread.Reader) sectionRef {
	length := r.Uvarint()
	if length > math.MaxInt64 {
		r.Failf("section of %d bytes", length)
	}
	return sectionRef{length: length, crc: r.U32()}
}

// decodeManifest parses a manifest whose checksum has passed. A segment
// entry takes at least eight bytes, a tombstone at least one; a
// tombstone must name a table of its segment, and a flat corpus is at
// most one segment without tombstones.
func decodeManifest(data []byte) (*manifest, error) {
	r := byteread.New(data, errBadManifest)
	m := &manifest{generation: r.Uvarint()}
	shape := r.U8()
	if shape > 1 {
		return nil, r.Failf("shape %d", shape)
	}
	m.flat = shape == 1
	m.catalog = readSectionRef(&r)
	nSegs := r.Count(r.Uvarint(), 8)
	if m.flat && nSegs > 1 {
		return nil, r.Failf("flat corpus in %d segments", nSegs)
	}
	m.segments = make([]SegmentInfo, nSegs)
	m.sections = make([]sectionRef, nSegs)
	for i := range m.segments {
		sg := &m.segments[i]
		sg.ID = r.Uvarint()
		tables := r.Uvarint()
		if tables > 1<<31-1 {
			return nil, r.Failf("segment %d holds %d tables", i, tables)
		}
		sg.Tables = int(tables)
		if nDead := r.Count(r.Uvarint(), 1); nDead > 0 {
			if m.flat {
				return nil, r.Failf("flat corpus with tombstones")
			}
			sg.Dead = make([]int, nDead)
		}
		for d := range sg.Dead {
			local := r.Uvarint()
			if local >= tables {
				return nil, r.Failf("segment %d: tombstone %d out of range [0, %d)", i, local, tables)
			}
			sg.Dead[d] = int(local)
		}
		m.sections[i] = readSectionRef(&r)
	}
	if r.Remaining() != 0 {
		r.Failf("%d bytes after the last entry", r.Remaining())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// maxInflation is the most DEFLATE can expand its input (a run of 258
// bytes costs two bits): a section declaring more than this many bytes
// per compressed byte is lying, and is refused before anything is
// allocated for it.
const maxInflation = 1032

// deflater compresses sections, reusing one compressor: a section is
// its payload's length as a varint, then the payload as a raw DEFLATE
// stream.
type deflater struct {
	fw *flate.Writer
}

func (d *deflater) appendSection(dst, payload []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	buf := bytes.NewBuffer(dst)
	if d.fw == nil {
		fw, err := flate.NewWriter(buf, flate.DefaultCompression)
		if err != nil {
			return nil, err
		}
		d.fw = fw
	} else {
		d.fw.Reset(buf)
	}
	if _, err := d.fw.Write(payload); err != nil {
		return nil, err
	}
	if err := d.fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// inflate returns the payload of a section whose checksum has passed.
// The declared length is checked against what the compressed bytes could
// possibly hold before it sizes the buffer, and the stream must end
// exactly there.
func inflate(section []byte) ([]byte, error) {
	size, n := binary.Uvarint(section)
	if n <= 0 {
		return nil, fmt.Errorf("%w: section has no length", ErrCorrupt)
	}
	packed := section[n:]
	if size > maxInflation*uint64(len(packed)) {
		return nil, fmt.Errorf("%w: section declares %d bytes in %d compressed", ErrCorrupt, size, len(packed))
	}
	payload := make([]byte, size)
	fr := flate.NewReader(bytes.NewReader(packed))
	if _, err := io.ReadFull(fr, payload); err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	var one [1]byte
	if n, err := fr.Read(one[:]); n != 0 || !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%w: section runs past its declared %d bytes (%v)", ErrCorrupt, size, err)
	}
	return payload, nil
}

// readBlock reads exactly length bytes from r and verifies their CRC.
// The length is untrusted: the buffer grows with the bytes that actually
// arrive (CopyN) rather than being allocated up front, so a corrupted
// length reports ErrChecksum instead of exhausting memory.
func readBlock(r io.Reader, ref sectionRef, what string) ([]byte, error) {
	var buf bytes.Buffer
	if n, err := io.CopyN(&buf, r, int64(ref.length)); err != nil || uint64(n) != ref.length {
		return nil, fmt.Errorf("%w: %s truncated at %d of %d bytes: %v", ErrChecksum, what, n, ref.length, err)
	}
	if got := crc32.ChecksumIEEE(buf.Bytes()); got != ref.crc {
		return nil, fmt.Errorf("%w: %s: crc %08x, expected %08x", ErrChecksum, what, got, ref.crc)
	}
	return buf.Bytes(), nil
}
