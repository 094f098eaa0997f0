package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
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

// TestLoadRejectsOtherVersions: a header stamped with any format version
// but the current one — the retired 1 and 2, the never-written 0, a
// future 4 — fails on ErrVersion naming the version found, before a byte
// past the header is read. The retired versions' message also names the
// last commit that reads them.
func TestLoadRejectsOtherVersions(t *testing.T) {
	for _, version := range []uint8{0, 1, 2, Version + 1} {
		header := frame(version, nil)
		// A source that has nothing but the header: reading on is io.EOF
		// and would surface as ErrChecksum (a short manifest).
		_, err := Load(bytes.NewReader(header[:headerLen]))
		if !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: err = %v, want ErrVersion", version, err)
			continue
		}
		if want := fmt.Sprintf("file version %d, reader supports only %d", version, Version); !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: message %q does not say %q", version, err, want)
		}
		if named := strings.Contains(err.Error(), lastV2Reader); named != (version < Version) {
			t.Errorf("version %d: message %q names commit %s: %v", version, err, lastV2Reader, named)
		}
	}
}
