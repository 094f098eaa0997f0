package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	webtable "repro"
	"repro/internal/cmdio"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/worldgen"
)

// writeWorld materializes a tiny synthetic world to dir as catalog.json +
// corpus.json, the on-disk shapes tabann and tabsearch consume.
func writeWorld(t *testing.T, dir string, nTables int, relNames ...string) *worldgen.World {
	t.Helper()
	spec := worldgen.DefaultSpec()
	spec.FilmsPerGenre = 10
	spec.NovelsPerGenre = 8
	spec.PeoplePerRole = 12
	spec.AlbumCount = 15
	spec.CountryCount = 8
	spec.CitiesPerCountry = 2
	spec.LanguageCount = 6
	w, err := worldgen.Build(spec)
	if err != nil {
		t.Fatalf("build world: %v", err)
	}

	cf, err := os.Create(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Public.WriteJSON(cf); err != nil {
		t.Fatalf("write catalog: %v", err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}

	ds := w.GenerateDataset("smoke", 7, nTables, 4, 8, worldgen.CleanProfile(), worldgen.AllGTLayers(), relNames...)
	tabs := make([]*table.Table, len(ds.Tables))
	for i, lt := range ds.Tables {
		tabs[i] = lt.Table
	}
	tf, err := os.Create(filepath.Join(dir, "corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := table.WriteCorpus(tf, tabs); err != nil {
		t.Fatalf("write corpus: %v", err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	writeWorld(t, dir, 4)

	var out, errBuf bytes.Buffer
	args := []string{
		"-catalog", filepath.Join(dir, "catalog.json"),
		"-corpus", filepath.Join(dir, "corpus.json"),
		"-method", "simple",
		"-workers", "2",
	}
	if err := run(context.Background(), args, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}

	// One JSON object per surviving table, each decodable with a table ID.
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var a server.Annotation
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("line %d: bad JSON: %v", lines+1, err)
		}
		if a.TableID == "" {
			t.Errorf("line %d: empty table_id", lines+1)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no annotations emitted")
	}
}

// TestRunSaveSnapshot drives -save and proves the written snapshot
// reconstructs a search-ready service without re-annotating.
func TestRunSaveSnapshot(t *testing.T) {
	dir := t.TempDir()
	w := writeWorld(t, dir, 8, "directed")
	snap := filepath.Join(dir, "corpus.snap")

	var out, errBuf bytes.Buffer
	args := []string{
		"-catalog", filepath.Join(dir, "catalog.json"),
		"-corpus", filepath.Join(dir, "corpus.json"),
		"-workers", "2",
		"-save", snap,
	}
	if err := run(context.Background(), args, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}

	ctx := context.Background()
	svc, _, err := cmdio.LoadSnapshotService(ctx, snap, 0, 1, 2)
	if err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	// The small corpus covers only some probe entities; any workload
	// query with answers proves the snapshot's annotations survived.
	workload := w.SearchWorkload([]string{"directed"}, 10, 7)
	if len(workload) == 0 {
		t.Fatal("empty workload")
	}
	for _, wq := range workload {
		q, err := svc.ResolveQuery("directed",
			w.True.TypeName(wq.T1), w.True.TypeName(wq.T2), wq.E2Name)
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		res, err := svc.Search(ctx, webtable.SearchRequest{Query: q, Mode: webtable.SearchTypeRel, PageSize: 5})
		if err != nil {
			t.Fatalf("search over loaded snapshot: %v", err)
		}
		if res.Total > 0 {
			return
		}
	}
	t.Fatal("loaded snapshot answers nothing across the whole workload")
}

func TestRunMissingFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), nil, &out, &errBuf); err == nil {
		t.Fatal("want error for missing flags")
	}
}

func TestRunUnknownMethod(t *testing.T) {
	dir := t.TempDir()
	writeWorld(t, dir, 1)
	var out, errBuf bytes.Buffer
	args := []string{
		"-catalog", filepath.Join(dir, "catalog.json"),
		"-corpus", filepath.Join(dir, "corpus.json"),
		"-method", "psychic",
	}
	if err := run(context.Background(), args, &out, &errBuf); err == nil {
		t.Fatal("want error for unknown method")
	}
}

func TestRunCancelled(t *testing.T) {
	dir := t.TempDir()
	writeWorld(t, dir, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	args := []string{
		"-catalog", filepath.Join(dir, "catalog.json"),
		"-corpus", filepath.Join(dir, "corpus.json"),
	}
	if err := run(ctx, args, &out, &errBuf); err == nil {
		t.Fatal("want error from cancelled context")
	}
}
