package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

func testSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	cat := catalog.New()
	film, err := cat.AddType("Film", "movie")
	if err != nil {
		t.Fatal(err)
	}
	director, err := cat.AddType("Director", "filmmaker")
	if err != nil {
		t.Fatal(err)
	}
	f, err := cat.AddEntity("Vertigo", nil, film)
	if err != nil {
		t.Fatal(err)
	}
	d, err := cat.AddEntity("Alfred Hitchcock", []string{"Hitchcock"}, director)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cat.AddRelation("directed", film, director, catalog.ManyToOne)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTuple(rel, f, d); err != nil {
		t.Fatal(err)
	}
	tab := &table.Table{
		ID:      "t0",
		Headers: []string{"Movie", "Director"},
		Cells:   [][]string{{"Vertigo", "Hitchcock"}},
	}
	ann := &core.Annotation{
		TableID:      "t0",
		ColumnTypes:  []catalog.TypeID{film, director},
		CellEntities: [][]catalog.EntityID{{f, d}},
		Relations:    []core.RelationAnnotation{{Col1: 0, Col2: 1, Relation: rel, Forward: true}},
	}
	return &Snapshot{
		Catalog: cat.Snapshot(),
		Tables:  []*table.Table{tab},
		Anns:    []*core.Annotation{ann},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", snap, got)
	}
}

func TestLoadNilAnnotations(t *testing.T) {
	snap := testSnapshot(t)
	snap.Anns = nil
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Anns != nil {
		t.Fatalf("want nil annotations, got %v", got.Anns)
	}
}

func TestSaveRejectsMismatchedAnns(t *testing.T) {
	snap := testSnapshot(t)
	snap.Anns = append(snap.Anns, nil)
	if err := Save(&bytes.Buffer{}, snap); err == nil {
		t.Fatal("want error for anns/tables length mismatch")
	}
}

func TestLoadRejectsForeignFile(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte(`{"catalog": {}}  padding padding padding`)))
	if !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("err = %v, want ErrNotSnapshot", err)
	}
}

func TestLoadRejectsShortFile(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("WT")))
	if !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("err = %v, want ErrNotSnapshot", err)
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(magic)] = Version + 1
	_, err := Load(bytes.NewReader(raw))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestLoadRejectsCorruptPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // flip a payload bit
	_, err := Load(bytes.NewReader(raw))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

// TestLoadRejectsCorruptLength: a bit flip in the untrusted length
// field must surface as ErrChecksum, not a huge allocation or panic.
func TestLoadRejectsCorruptLength(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(magic)+1] |= 0x40 // set a high bit: claimed length ~2^62
	_, err := Load(bytes.NewReader(raw))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, err := Load(bytes.NewReader(raw[:len(raw)-5]))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

// segmentedSnapshot derives a two-segment live-corpus manifest (with a
// tombstone) from the flat fixture.
func segmentedSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	flat := testSnapshot(t)
	tab2 := &table.Table{
		ID:      "t1",
		Headers: []string{"Movie", "Director"},
		Cells:   [][]string{{"Rope", "Hitchcock"}, {"Psycho", "Hitchcock"}},
	}
	return &Snapshot{
		Catalog: flat.Catalog,
		Segments: []Segment{
			{ID: 1, Tables: flat.Tables, Anns: flat.Anns},
			{ID: 4, Tables: []*table.Table{tab2}, Dead: []int{0}},
		},
		Generation: 7,
	}
}

func TestSegmentedRoundTrip(t *testing.T) {
	snap := segmentedSnapshot(t)
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", snap, got)
	}
}

func TestSaveRejectsMixedShapes(t *testing.T) {
	snap := segmentedSnapshot(t)
	snap.Tables = snap.Segments[0].Tables // both shapes populated
	if err := Save(&bytes.Buffer{}, snap); err == nil {
		t.Fatal("want error for flat+segmented snapshot")
	}
}

func TestSaveRejectsBadTombstone(t *testing.T) {
	snap := segmentedSnapshot(t)
	snap.Segments[1].Dead = []int{5}
	if err := Save(&bytes.Buffer{}, snap); err == nil {
		t.Fatal("want error for out-of-range tombstone")
	}
}

// writeVersioned replicates the framing the version-1 and version-2
// writers used — one gzip-JSON body behind the header — with an arbitrary
// version byte, to synthesize files from other format generations.
func writeVersioned(t *testing.T, version uint8, b body) []byte {
	t.Helper()
	var payload bytes.Buffer
	gz := gzip.NewWriter(&payload)
	if err := json.NewEncoder(gz).Encode(b); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return frame(version, payload.Bytes())
}

// TestLoadAcceptsV1File: a version bump must not orphan existing
// snapshots — a genuine version-1 file (flat body, no segments) still
// loads, through the JSON decoder it was written for.
func TestLoadAcceptsV1File(t *testing.T) {
	flat := testSnapshot(t)
	raw := writeVersioned(t, 1, body{Catalog: flat.Catalog, Tables: flat.Tables, Anns: flat.Anns})
	got, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("load v1: %v", err)
	}
	if !reflect.DeepEqual(flat, got) {
		t.Fatalf("v1 mismatch:\n in: %+v\nout: %+v", flat, got)
	}
}

// TestLoadRejectsV4WithoutDecoding: a structurally valid file stamped
// with a future version fails on ErrVersion before any payload decode —
// even though its payload would decode fine as the version-2 body it is.
func TestLoadRejectsV4WithoutDecoding(t *testing.T) {
	flat := testSnapshot(t)
	raw := writeVersioned(t, Version+1, body{Catalog: flat.Catalog, Tables: flat.Tables, Anns: flat.Anns})
	_, err := Load(bytes.NewReader(raw))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}
