package searchidx_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/searchidx"
	"repro/internal/snapshot"
	"repro/internal/table"
)

// TestLoadedIndexEqualsBuiltIndex: for every segment of the snapshot
// files frozen under internal/snapshot/testdata, the index a snapshot
// file decodes to equals, field by field — dictionaries, cell arrays,
// every posting list — the index BuildContext compiles from the
// segment's tables and annotations. Loading derives what it does not
// store with the build path's own code; this is what keeps the two from
// drifting apart.
func TestLoadedIndexEqualsBuiltIndex(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"segmented.snap", "flat.snap"} {
		raw, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var saved bytes.Buffer
		if err := snapshot.Save(&saved, snap); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rd, err := snapshot.NewReader(ctx, &saved)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cat, err := catalog.FromSnapshot(rd.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		segs := snap.SegmentList()
		if len(rd.Manifest) != len(segs) {
			t.Fatalf("%s: %d segments in the manifest, %d saved", name, len(rd.Manifest), len(segs))
		}
		ixs, err := rd.Segments(len(segs))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, sg := range segs {
			got := ixs[i]
			want, err := searchidx.BuildContext(ctx, cat, sg.Tables, sg.Anns)
			if err != nil {
				t.Fatal(err)
			}
			if diff := searchidx.IndexDiff(got, want); diff != "" {
				t.Errorf("%s segment %d: loaded index differs from the built one: %s", name, i, diff)
			}
		}
		rd.Close()
	}
}

// TestOnePath: building, dumping a built index, and interning straight
// to a dump are one path with one numbering (searchidx.CheckOnePath) —
// over every segment of the frozen snapshot files, dead tables and their
// odd shapes included, and over random segments in every shape
// mergeWorld generates, whose materialised tables and annotations must
// deep-equal the inputs.
func TestOnePath(t *testing.T) {
	for _, name := range []string{"segmented.snap", "flat.snap"} {
		raw, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cat, err := catalog.FromSnapshot(snap.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		for i, sg := range snap.SegmentList() {
			searchidx.CheckOnePath(t, fmt.Sprintf("%s segment %d", name, i), cat, sg.Tables, sg.Anns, false)
		}
	}
	w := newMergeWorld(t)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, annotate := rng.Intn(9), rng.Intn(4) > 0
		tables, anns := make([]*table.Table, n), make([]*core.Annotation, n)
		for i := range tables {
			tables[i], anns[i] = w.table(rng, annotate)
		}
		if !annotate {
			anns = nil
		}
		searchidx.CheckOnePath(t, fmt.Sprintf("random segment %d", seed), w.cat, tables, anns, true)
	}
}
