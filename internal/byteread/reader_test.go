package byteread

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

var errTest = errors.New("test sentinel")

// TestReader runs each read over a few bytes and checks what it returns,
// where the cursor ends, and the fault it keeps: one that wraps the
// sentinel and names the offset it was found at. After a fault, every
// read returns zero and advances nothing, Count returns zero, and Failf
// hands back the first fault without allocating another.
func TestReader(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader) uint64
		want uint64
		// at is the offset the fault names, or -1 for none; off is where
		// the cursor ends without one.
		at, off int
		msg     string
	}{
		{"U8", []byte{7, 8}, func(r *Reader) uint64 { return uint64(r.U8()) }, 7, -1, 1, ""},
		{"U8 truncated", nil, func(r *Reader) uint64 { return uint64(r.U8()) }, 0, 0, 0, "truncated"},
		{"U32", []byte{1, 2, 3, 4}, func(r *Reader) uint64 { return uint64(r.U32()) }, 0x01020304, -1, 4, ""},
		{"U32 truncated", []byte{9, 1, 2, 3}, func(r *Reader) uint64 { r.U8(); return uint64(r.U32()) }, 0, 1, 0, "4 bytes wanted, 3 remain"},
		{"U64", []byte{0, 0, 0, 0, 0, 0, 1, 2}, func(r *Reader) uint64 { return r.U64() }, 0x0102, -1, 8, ""},
		{"U64 truncated", []byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) uint64 { return r.U64() }, 0, 0, 0, "8 bytes wanted, 7 remain"},
		{"Take", []byte{5, 6, 7}, func(r *Reader) uint64 { return uint64(len(r.Take(2))) }, 2, -1, 2, ""},
		{"Take truncated", []byte{5, 6, 7}, func(r *Reader) uint64 { r.U8(); return uint64(len(r.Take(3))) }, 0, 1, 0, "3 bytes wanted, 2 remain"},
		{"Take negative", []byte{5}, func(r *Reader) uint64 { return uint64(len(r.Take(-1))) }, 0, 0, 0, "truncated"},
		{"Uvarint one byte", []byte{0x7f}, func(r *Reader) uint64 { return r.Uvarint() }, 0x7f, -1, 1, ""},
		{"Uvarint two bytes", []byte{0x80, 0x01}, func(r *Reader) uint64 { return r.Uvarint() }, 0x80, -1, 2, ""},
		{"Uvarint truncated", []byte{3, 0x80}, func(r *Reader) uint64 { r.U8(); return r.Uvarint() }, 0, 1, 0, "bad varint"},
		{"Uvarint over 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(r *Reader) uint64 { return r.Uvarint() }, 0, 0, 0, "bad varint"},
		{"Uvarint32", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, func(r *Reader) uint64 { return uint64(r.Uvarint32()) }, 1<<32 - 1, -1, 5, ""},
		{"Uvarint32 over 32 bits", []byte{2, 0x80, 0x80, 0x80, 0x80, 0x10}, func(r *Reader) uint64 { r.U8(); return uint64(r.Uvarint32()) }, 0, 1, 0, "exceeds 32 bits"},
		{"Uvarint32 truncated", []byte{0xff}, func(r *Reader) uint64 { return uint64(r.Uvarint32()) }, 0, 0, 0, "bad varint"},
		{"Count", []byte{1, 2, 3, 4}, func(r *Reader) uint64 { return uint64(r.Count(2, 2)) }, 2, -1, 0, ""},
		{"Count over", []byte{1, 2, 3}, func(r *Reader) uint64 { r.U8(); return uint64(r.Count(2, 2)) }, 0, 1, 0, "count 2 of at least 2 bytes each, 2 bytes remain"},
		{"Count bomb", []byte{1}, func(r *Reader) uint64 { return uint64(r.Count(1<<40, 1)) }, 0, 0, 0, "count 1099511627776"},
		{"Failf", []byte{1, 2}, func(r *Reader) uint64 { r.U8(); r.Failf("bad %s", "thing"); return 0 }, 0, 1, 0, "bad thing"},
		{"first fault wins", []byte{1}, func(r *Reader) uint64 { r.U32(); r.Failf("later"); return uint64(r.U8()) }, 0, 0, 0, "4 bytes wanted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(tc.data, errTest)
			if got := tc.read(&r); got != tc.want {
				t.Errorf("read %d, want %d", got, tc.want)
			}
			err := r.Err()
			if tc.at < 0 {
				if err != nil {
					t.Fatalf("err = %v, want none", err)
				}
				if r.off != tc.off || r.Remaining() != len(tc.data)-tc.off {
					t.Errorf("cursor at %d with %d remaining, want %d", r.off, r.Remaining(), tc.off)
				}
				return
			}
			if !errors.Is(err, errTest) {
				t.Fatalf("err = %v, want the sentinel", err)
			}
			if want := fmt.Sprintf("byte %d: ", tc.at); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("err = %q, want %q and %q", err, want, tc.msg)
			}
			off := r.off
			if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.Uvarint() != 0 || r.Uvarint32() != 0 || len(r.Take(1)) != 0 || r.Count(1, 1) != 0 || r.Count(0, 1) != 0 {
				t.Error("a read after the fault returned something")
			}
			if r.off != off || r.Remaining() != 0 {
				t.Errorf("after the fault the cursor moved %d → %d, %d remaining", off, r.off, r.Remaining())
			}
			if n := testing.AllocsPerRun(10, func() { r.Count(1<<40, 1); r.Failf("later") }); n != 0 {
				t.Errorf("a count bomb after the fault allocates %v times", n)
			}
			if again := r.Failf("later"); again != err || r.Err() != err {
				t.Errorf("Failf after the fault = %v, want the first fault %v", again, err)
			}
		})
	}
}
