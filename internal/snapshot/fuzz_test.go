package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/searchidx"
)

// FuzzLoadSnapshot: arbitrary bytes either fail to load with one of the
// format's four structured errors, or load to a Snapshot — tables and
// annotations materialised from each section's arrays — that saves and
// loads back to the same content, and from there to the same bytes —
// never a panic, a hang, or memory out of proportion to the input.
// Whatever loads must be saveable: the loader accepts no shape the
// writer refuses.
//
// Checksums would stop a mutated file at the door, so every input is
// tried three ways: as a file; as the manifest of a file whose header
// vouches for it; and as the payload of the one segment section of an
// otherwise well-formed file, compressed and checksummed as Save would
// (the manifest promising as many tables as the payload's first number
// says), which is what walks the fuzzer through inflate and searchidx's
// decoder. Each file is also read the way a service reads it — every
// segment decoded to its compiled index, postings derived — which may
// fail where Load succeeds, but only with a structured error.
//
// The memory bound is deliberately loose — the most DEFLATE can inflate
// its input times a few dozen bytes of Go value per decoded byte, plus a
// fixed allowance for the (de)compressors' own state — but it is a
// bound: a count taken at face value would sail past it.
func FuzzLoadSnapshot(f *testing.F) {
	for _, name := range fixtures {
		snap := loadFixture(f, name)
		v3 := saveV3(f, snap)
		f.Add(v3)
		blocks := blocksOf(f, v3)
		f.Add(v3[blocks[0].lo:blocks[0].hi])
		for _, b := range blocks {
			f.Add(v3[:b.lo])
			f.Add(v3[:b.hi-1])
		}
		for _, at := range []int{3, len(magic), len(magic) + 8, len(magic) + 12, blocks[0].lo, blocks[0].lo + 3, blocks[0].hi - 1, blocks[2].lo, blocks[2].lo + 7} {
			for _, bit := range []byte{0x01, 0x80} {
				flipped := append([]byte(nil), v3...)
				flipped[at] ^= bit
				f.Add(flipped)
			}
		}
		for _, sg := range snap.SegmentList() {
			payload, err := searchidx.AppendSegment(nil, sg.Tables, sg.Anns)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
		}
	}
	var z deflater
	catalog, err := z.appendSection(nil, []byte(`{"types":[{"name":"T"}],"entities":[],"relations":[]}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data)

		checkLoad(t, frame(Version, data))

		section, err := z.appendSection(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		tables, _ := binary.Uvarint(data)
		checkLoad(t, assemble(&manifest{generation: 1, segments: []SegmentInfo{{ID: 1, Tables: int(tables % (1 << 31))}}}, catalog, section))
	})
}

// checkLoad holds Load to the fuzz property over one file.
func checkLoad(t *testing.T, file []byte) {
	structured := func(err error) bool {
		return errors.Is(err, ErrNotSnapshot) || errors.Is(err, ErrVersion) || errors.Is(err, ErrChecksum) || errors.Is(err, ErrCorrupt)
	}
	if rd, err := NewReader(context.Background(), bytes.NewReader(file)); err == nil {
		for range rd.Manifest {
			if _, err := rd.Next(nil); err != nil {
				if !structured(err) {
					t.Fatalf("unstructured error decoding a segment: %v", err)
				}
				break
			}
		}
		rd.Close()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, err := Load(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+maxInflation*64*len(file)); grew > bound {
		t.Fatalf("loading %d bytes allocated %d, bound %d", len(file), grew, bound)
	}
	if err != nil {
		if !structured(err) {
			t.Fatalf("unstructured error: %v", err)
		}
		return
	}
	var saved bytes.Buffer
	if err := Save(&saved, snap); err != nil {
		t.Fatalf("what loaded does not save: %v", err)
	}
	again, err := Load(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatalf("what was saved does not load: %v", err)
	}
	if want, got := dumpSnapshot(snap), dumpSnapshot(again); !bytes.Equal(want, got) {
		t.Fatalf("save -> load changed the content:\nloaded\n%s\nreloaded\n%s", want, got)
	}
	var resaved bytes.Buffer
	if err := Save(&resaved, again); err != nil {
		t.Fatalf("what was reloaded does not save: %v", err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Fatalf("save -> load -> save changed the bytes (%d, then %d)", saved.Len(), resaved.Len())
	}
}
