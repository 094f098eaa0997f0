// Package byteread is the bounds-checked cursor the decoders of a
// persisted segment (internal/searchidx), a snapshot manifest
// (internal/snapshot) and a partial-evidence payload (internal/dist) share.
//
// A Reader keeps the first fault it meets; from then on every read returns
// zero and advances nothing, and Count returns zero. A decoder reads
// straight through a section and checks Err where it ends, and nothing is
// sized by a value read past a fault. A value the decoder goes on to index
// with is checked, and the decoder returns, where it is read: a zero read
// past a fault may pass that check.
package byteread

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader reads data front to back. Every fault wraps the sentinel the
// Reader was made with and names the byte offset where it was found: the
// start of the read that failed, or, for Failf, the offset the cursor
// had reached.
type Reader struct {
	data     []byte
	off      int
	err      error
	sentinel error
}

// New returns a Reader over data whose faults wrap sentinel.
func New(data []byte, sentinel error) Reader {
	return Reader{data: data, sentinel: sentinel}
}

// Err returns the first fault, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many bytes are left to read: none after a fault.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Failf keeps a fault, described by format and args, at the current
// offset unless one is kept already, and returns the first fault.
func (r *Reader) Failf(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("%w: byte %d: %s", r.sentinel, r.off, fmt.Sprintf(format, args...))
		// Nothing remains after a fault, so every later read fails and
		// returns zero without a check of its own.
		r.data = r.data[:r.off]
	}
	return r.err
}

// truncated and Count format a fault only when none is kept, so that a
// decoder reading on past one allocates nothing more.
func (r *Reader) truncated(n int) {
	if r.err == nil {
		r.Failf("truncated: %d bytes wanted, %d remain", n, r.Remaining())
	}
}

// Take returns the next n bytes, or nil.
func (r *Reader) Take(n int) []byte {
	if n < 0 || n > r.Remaining() {
		r.truncated(n)
		return nil
	}
	r.off += n
	return r.data[r.off-n : r.off : r.off]
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.off >= len(r.data) {
		r.truncated(1)
		return 0
	}
	r.off++
	return r.data[r.off-1]
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.Remaining() < 4 {
		r.truncated(4)
		return 0
	}
	r.off += 4
	return binary.BigEndian.Uint32(r.data[r.off-4:])
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if r.Remaining() < 8 {
		r.truncated(8)
		return 0
	}
	r.off += 8
	return binary.BigEndian.Uint64(r.data[r.off-8:])
}

// Uvarint reads an unsigned LEB128 varint.
func (r *Reader) Uvarint() uint64 {
	// Most varints the decoders read are one byte: a small count, a
	// length, a new-string marker.
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		r.off++
		return uint64(r.data[r.off-1])
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Failf("bad varint: truncated, or over 64 bits")
		return 0
	}
	r.off += n
	return v
}

// Uvarint32 reads a varint of at most 32 bits: a count, a length, or an
// ID plus one.
func (r *Reader) Uvarint32() uint32 {
	// The one-byte case again, so that a cell's spelling ID, read once
	// per cell at load, costs one call.
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		r.off++
		return uint32(r.data[r.off-1])
	}
	at := r.off
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.off = at
		r.Failf("varint %d exceeds 32 bits", v)
		return 0
	}
	return uint32(v)
}

// Count checks an element count n just read against the bytes that
// remain, each element taking at least min (≥ 1) of them, and returns
// it; a count they cannot hold is a fault, and Count returns zero, so a
// corrupt count reads as truncation instead of sizing an allocation.
func (r *Reader) Count(n uint64, min int) int {
	if n <= uint64(r.Remaining()/min) {
		return int(n)
	}
	if r.err == nil {
		r.Failf("count %d of at least %d bytes each, %d bytes remain", n, min, r.Remaining())
	}
	return 0
}
