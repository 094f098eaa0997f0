package dist

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/search"
)

// samplePartial exercises every field: multiple groups, entity and text
// clusters, empty hit/variant lists, and evidence floats whose exact
// bit patterns must survive the wire (subnormal, negative zero, huge).
func samplePartial() *Partial {
	return &Partial{
		Generation: 42,
		Shard:      1,
		Shards:     3,
		Stats: search.ExecStats{
			CandidatePairs:    12,
			PairsMatched:      5,
			RowsScanned:       321,
			SegmentsVisited:   2,
			TombstonesSkipped: 1,
			AnswersBeforeTopK: 9,
			Parallelism:       3,
			Stage: search.StageNanos{
				Validate: 100, Plan: 200, Scan: 300000,
				Aggregate: 0, Select: 0, Explain: 0,
			},
		},
		Groups: []search.PartialGroup{
			{Key: 0, Clusters: []search.ClusterPartial{
				{
					Entity:    7,
					Norm:      "epic saga",
					Canonical: "Epic Saga",
					Hits: []search.PartialHit{
						{Table: 0, Row: 3, Col: 1, Evidence: 0.375},
						{Table: 2147483000, Row: 0, Col: 0, Evidence: math.Copysign(0, -1)},
					},
				},
				{
					Entity:    catalog.None,
					Norm:      "solo auteur",
					Canonical: "",
					Hits:      []search.PartialHit{{Table: 1, Row: 2, Col: 0, Evidence: 5e-324}},
					Variants: []search.Variant{
						{Raw: "  Solo Auteur  ", Count: 2},
						{Raw: "SOLO AUTEUR", Count: 1},
					},
				},
			}},
			{Key: 9, Clusters: nil},
			{Key: 31, Clusters: []search.ClusterPartial{
				{Entity: catalog.None, Norm: "x", Canonical: "", Hits: nil,
					Variants: []search.Variant{{Raw: "x", Count: 1}}},
			}},
		},
	}
}

func TestPartialRoundTrip(t *testing.T) {
	for _, p := range []*Partial{
		samplePartial(),
		{Generation: 1, Shard: 0, Shards: 1, Groups: nil},
	} {
		data := EncodePartial(p)
		got, err := DecodePartial(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, p)
		}
	}
}

func TestPartialEvidenceBitExact(t *testing.T) {
	p := &Partial{Shards: 1, Groups: []search.PartialGroup{{Key: 0, Clusters: []search.ClusterPartial{{
		Entity: catalog.None, Norm: "n",
		Hits: []search.PartialHit{{Evidence: math.Copysign(0, -1)}},
	}}}}}
	got, err := DecodePartial(EncodePartial(p))
	if err != nil {
		t.Fatal(err)
	}
	gb := math.Float64bits(got.Groups[0].Clusters[0].Hits[0].Evidence)
	wb := math.Float64bits(math.Copysign(0, -1))
	if gb != wb {
		t.Fatalf("evidence bits %x, want %x (negative zero must survive)", gb, wb)
	}
}

// TestDecodePartialTruncation decodes every strict prefix of a valid
// payload: all must fail with ErrBadPartial, none may panic.
func TestDecodePartialTruncation(t *testing.T) {
	data := EncodePartial(samplePartial())
	for n := 0; n < len(data); n++ {
		if _, err := DecodePartial(data[:n]); !errors.Is(err, ErrBadPartial) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrBadPartial", n, err)
		}
	}
}

// TestDecodePartialV1Compat pins backward compatibility: a version-1
// payload (pre-stats) decodes successfully, every evidence field
// intact, with zero-value Stats — exactly what a router merging output
// from a not-yet-upgraded shard must see.
func TestDecodePartialV1Compat(t *testing.T) {
	p := samplePartial()
	data := appendPartial(nil, p, 1)
	got, err := DecodePartial(data)
	if err != nil {
		t.Fatalf("v1 payload rejected: %v", err)
	}
	want := *p
	want.Stats = search.ExecStats{}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("v1 decode mismatch:\ngot  %+v\nwant %+v", got, &want)
	}
	// The v1 payload really is the old layout: exactly the stats block
	// shorter than the v2 encoding of the same partial.
	if len(EncodePartial(p))-len(data) != partialStatsLen {
		t.Fatalf("v1 payload %d bytes, v2 %d bytes, want difference %d",
			len(data), len(EncodePartial(p)), partialStatsLen)
	}
}

// TestDecodePartialFutureVersion pins forward incompatibility: a
// payload claiming a version above PartialVersion fails with
// ErrBadPartial before any field decode — the version gate sits
// directly after the magic, so even a payload truncated right after the
// version byte reports the unsupported version, not truncation.
func TestDecodePartialFutureVersion(t *testing.T) {
	full := append([]byte(nil), EncodePartial(samplePartial())...)
	full[6] = PartialVersion + 1
	if _, err := DecodePartial(full); !errors.Is(err, ErrBadPartial) {
		t.Fatalf("v%d payload: err = %v, want ErrBadPartial", PartialVersion+1, err)
	}
	// Magic + version byte only: nothing after the version exists to
	// decode, so an error mentioning the version proves the gate fired
	// before any field was read.
	short := append(append([]byte(nil), partialMagic[:]...), PartialVersion+1)
	_, err := DecodePartial(short)
	if !errors.Is(err, ErrBadPartial) {
		t.Fatalf("truncated v%d payload: err = %v, want ErrBadPartial", PartialVersion+1, err)
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("truncated future-version payload failed as %q, want a version error (gate must precede field decode)", err)
	}
}

// rejectedPayloads lists malformed payloads DecodePartial must refuse;
// they also seed FuzzDecodePartial.
func rejectedPayloads() map[string][]byte {
	valid := EncodePartial(samplePartial())

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'

	badVersion := append([]byte(nil), valid...)
	badVersion[6] = 99

	trailing := append(append([]byte(nil), valid...), 0xFF)

	// Corrupt the group count (the 4 bytes after the 23-byte header and
	// the 88-byte v2 stats block) to something absurd: must fail bounds
	// checking, not allocate.
	const groupCountOff = 23 + partialStatsLen
	hugeCount := append([]byte(nil), valid...)
	hugeCount[groupCountOff], hugeCount[groupCountOff+1] = 0xFF, 0xFF
	hugeCount[groupCountOff+2], hugeCount[groupCountOff+3] = 0xFF, 0xFF

	// Two groups with descending keys violate replay order.
	descending := EncodePartial(&Partial{Groups: []search.PartialGroup{{Key: 5}, {Key: 3}}})

	// Non-finite evidence: a NaN makes the merged score NaN, which ranks
	// before and after nothing and yields a cursor no decoder accepts.
	withEvidence := func(ev float64) []byte {
		return EncodePartial(&Partial{Shards: 1, Groups: []search.PartialGroup{{Key: 0, Clusters: []search.ClusterPartial{{
			Entity: catalog.None, Norm: "n",
			Hits: []search.PartialHit{{Evidence: 1}, {Evidence: ev}},
		}}}}})
	}

	return map[string][]byte{
		"bad magic":       badMagic,
		"bad version":     badVersion,
		"trailing bytes":  trailing,
		"huge count":      hugeCount,
		"descending keys": descending,
		"empty":           nil,
		"NaN evidence":    withEvidence(math.NaN()),
		"+Inf evidence":   withEvidence(math.Inf(1)),
		"-Inf evidence":   withEvidence(math.Inf(-1)),
	}
}

func TestDecodePartialRejects(t *testing.T) {
	for name, data := range rejectedPayloads() {
		if _, err := DecodePartial(data); !errors.Is(err, ErrBadPartial) {
			t.Errorf("%s: err = %v, want ErrBadPartial", name, err)
		}
	}
}

// partialFootprint is the memory a decoded partial's slices and strings
// hold, in bytes.
func partialFootprint(p *Partial) int {
	n := len(p.Groups) * int(unsafe.Sizeof(search.PartialGroup{}))
	for _, g := range p.Groups {
		n += len(g.Clusters) * int(unsafe.Sizeof(search.ClusterPartial{}))
		for _, c := range g.Clusters {
			n += len(c.Norm) + len(c.Canonical)
			n += len(c.Hits) * int(unsafe.Sizeof(search.PartialHit{}))
			n += len(c.Variants) * int(unsafe.Sizeof(search.Variant{}))
			for _, v := range c.Variants {
				n += len(v.Raw)
			}
		}
	}
	return n
}

// FuzzDecodePartial: whatever bytes a shard (or something pretending to
// be one) sends, DecodePartial either refuses them with ErrBadPartial
// or returns a partial that survives encode → decode unchanged; it never
// panics, and what it allocates stays within a small multiple of the
// input (every count is checked against the bytes that remain — the
// densest element, an empty cluster, is 88 bytes in memory for 20 on
// the wire).
func FuzzDecodePartial(f *testing.F) {
	f.Add(EncodePartial(samplePartial()))
	f.Add(appendPartial(nil, samplePartial(), 1))
	f.Add(EncodePartial(&Partial{}))
	for _, data := range rejectedPayloads() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePartial(data)
		if err != nil {
			if !errors.Is(err, ErrBadPartial) {
				t.Fatalf("err = %v, want ErrBadPartial", err)
			}
			return
		}
		if fp := partialFootprint(p); fp > 5*len(data) {
			t.Fatalf("decoded %d bytes into %d", len(data), fp)
		}
		again, err := DecodePartial(EncodePartial(p))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", again, p)
		}
	})
}
