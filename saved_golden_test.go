package webtable_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	webtable "repro"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/table"
)

var update = flag.Bool("update", false, "rewrite testdata/saved.golden from what the current code saves")

// savedExtras are the tables the histories of saved.golden add: no
// headers, empty and non-ASCII cells, spellings the fixtures already
// hold and spellings that differ from them only in case or spacing.
func savedExtras() []*table.Table {
	return []*table.Table{
		{ID: "x-0", Context: "films directed by people", Headers: []string{"Film", "Director"}, Cells: [][]string{
			{"Grand Prix", "Solo Auteur"}, {"grand  prix", "SOLO AUTEUR"}, {"", "solo-auteur"},
		}},
		{ID: "x-1", Cells: [][]string{{"Solo Auteur"}, {"  "}, {"Épopée  Saga"}}},
		{ID: "x-2", Context: "Œuvres — réalisées", Headers: []string{"", "Réalisateur", "Année"}, Cells: [][]string{
			{"Épopée Saga", "Solo Auteur", "1999"}, {"épopée saga", "n/a", "1999"},
		}},
		{ID: "x-3", Context: "unrelated listing", Headers: []string{"only"}, Cells: [][]string{{"\xff\xfe not utf-8"}, {"Grand Prix"}}},
		{ID: "x-4", Context: "films directed by people", Headers: []string{"Film", "Director"}, Cells: [][]string{
			{"Grand Prix", "Solo Auteur"}, {"Another Film", "Another Director"},
		}},
		{ID: "x-5", Cells: [][]string{{"Another Film", "another  director", ""}}},
	}
}

// TestSavedGolden pins the bytes SaveSnapshot writes: testdata/saved.golden
// holds the length and SHA-256 of every file a handful of fixed histories
// save. The histories start from the snapshot files frozen under
// internal/snapshot/testdata, so the digests depend on nothing but the
// file format, on what a corpus keeps of its tables and on the
// annotations the last history makes: added segments, tombstones,
// compaction products, a reload in mid-history and the two shards of a
// split all save what a rebuild from the same tables would. The golden
// was last rewritten at format version 4; -update is only legitimate with
// a new format version.
func TestSavedGolden(t *testing.T) {
	ctx := context.Background()
	opts := []webtable.ServiceOption{
		webtable.WithoutAutoCompaction(),
		webtable.WithCompactionPolicy(webtable.CompactionPolicy{MergeFactor: 2, TierBase: 4, MaxDeadFraction: 0.4}),
	}
	fixture := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("internal", "snapshot", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	load := func(raw []byte) *webtable.Service {
		t.Helper()
		svc, err := webtable.LoadService(ctx, bytes.NewReader(raw), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		return svc
	}
	var got bytes.Buffer
	save := func(name string, svc *webtable.Service) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := svc.SaveSnapshot(ctx, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", name, buf.Len(), sha256.Sum256(buf.Bytes()))
		return buf.Bytes()
	}
	add := func(svc *webtable.Service, tables []*table.Table) {
		t.Helper()
		if _, err := svc.AddTables(ctx, tables, webtable.WithoutAnnotations()); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(svc *webtable.Service, ids ...string) {
		t.Helper()
		if _, err := svc.RemoveTables(ctx, ids); err != nil {
			t.Fatal(err)
		}
	}
	compact := func(svc *webtable.Service) {
		t.Helper()
		if _, err := svc.Compact(ctx); err != nil {
			t.Fatal(err)
		}
	}
	extras := savedExtras()

	// A segmented corpus that grows, shrinks, restarts and compacts.
	svc := load(fixture("segmented.snap"))
	save("segmented/loaded", svc)
	add(svc, extras[:3])
	remove(svc, "t3", "x-1")
	mutated := save("segmented/mutated", svc)
	svc = load(mutated)
	save("segmented/reloaded", svc)
	add(svc, extras[3:5])
	save("segmented/grown", svc)
	compact(svc)
	save("segmented/compacted", svc)

	// The mutated corpus split in two, each shard saving its slice.
	for i := 0; i < 2; i++ {
		shard, _, err := webtable.LoadServiceShard(ctx, bytes.NewReader(mutated), i, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		save(fmt.Sprintf("split/shard%d", i), shard)
		shard.Close()
	}

	// A flat corpus that becomes a segmented one.
	svc = load(fixture("flat.snap"))
	save("flat/loaded", svc)
	add(svc, extras[:2])
	add(svc, extras[2:4])
	remove(svc, "t0", "plain", "x-2")
	save("flat/mutated", svc)
	compact(svc)
	save("flat/compacted", svc)
	add(svc, extras[4:])
	remove(svc, "x-0")
	compact(svc)
	save("flat/compacted-again", svc)

	// A whole segment removed, and the tombstones of another reclaimed.
	svc = load(fixture("segmented.snap"))
	remove(svc, "t9", "t10", "t11", "t12", "t13", "t14", "t15", "t0", "t1", "t2", "t4", "t5")
	save("emptied/tombstoned", svc)
	compact(svc)
	save("emptied/compacted", svc)

	// Tables annotated as they are added.
	annotated := annotatedSave(t, 1)
	fmt.Fprintf(&got, "annotated/grown %d %x\n", len(annotated), sha256.Sum256(annotated))

	path := filepath.Join("testdata", "saved.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestSavedGolden -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("saved files diverge from %s:\n%s", path, got.Bytes())
	}
}

// annotatedSave loads the segmented fixture into a service with the
// given number of workers, adds savedExtras annotated by the service,
// and returns what it saves.
func annotatedSave(t *testing.T, workers int) []byte {
	t.Helper()
	ctx := context.Background()
	raw, err := os.ReadFile(filepath.Join("internal", "snapshot", "testdata", "segmented.snap"))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := webtable.LoadService(ctx, bytes.NewReader(raw), webtable.WithWorkers(workers), webtable.WithoutAutoCompaction())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.AddTables(ctx, savedExtras()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svc.SaveSnapshot(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSavedBytesIndependentOfScheduling: the same tables annotated and
// saved by one worker or two, on one processor or two, save to the same
// bytes — a saved annotation holds no wall time. A caller's Snapshot
// saves alike whatever diagnostics its annotations carry.
func TestSavedBytesIndependentOfScheduling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := annotatedSave(t, 1)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2} {
			if got := annotatedSave(t, workers); !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS %d, %d workers: saved %d bytes that differ from the %d saved by one worker on one processor", procs, workers, len(got), len(want))
			}
		}
	}

	snap, err := snapshot.Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var labels, diagnosed bytes.Buffer
	if err := snapshot.Save(&labels, snap); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, a := range snap.Segments[len(snap.Segments)-1].Anns {
		a.Diag = core.Diagnostics{CandidateGen: time.Duration(rng.Int63()), Inference: time.Duration(rng.Int63()), Iterations: rng.Intn(50), Converged: true, NumVars: rng.Intn(500)}
	}
	if err := snapshot.Save(&diagnosed, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(diagnosed.Bytes(), labels.Bytes()) {
		t.Errorf("Save of annotations with random diagnostics wrote %d bytes that differ from the %d it writes with none", diagnosed.Len(), labels.Len())
	}

	// A load decodes segments on every processor: the four-segment
	// fixture, loaded whole or as either shard of two, saves the same
	// bytes again on one, two or four, and whole it saves the file.
	raw, err := os.ReadFile(filepath.Join("internal", "snapshot", "testdata", "segmented.snap"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resaved := [3][]byte{raw}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for shard := -1; shard < 2; shard++ {
			var svc *webtable.Service
			if shard < 0 {
				svc, err = webtable.LoadService(ctx, bytes.NewReader(raw), webtable.WithoutAutoCompaction())
			} else {
				svc, _, err = webtable.LoadServiceShard(ctx, bytes.NewReader(raw), shard, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err = svc.SaveSnapshot(ctx, &buf)
			svc.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want := resaved[shard+1]; want == nil {
				resaved[shard+1] = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("GOMAXPROCS %d, shard %d (-1 whole): the load saves %d bytes that differ from the first %d", procs, shard, buf.Len(), len(want))
			}
		}
	}
}
