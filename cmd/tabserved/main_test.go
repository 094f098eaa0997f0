package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	webtable "repro"
	"repro/internal/dist"
	"repro/internal/table"
	"repro/internal/worldgen"
)

func testWorld(t *testing.T) *worldgen.World {
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
	return w
}

func worldTables(t *testing.T, w *worldgen.World) []*table.Table {
	t.Helper()
	ds := w.GenerateDataset("served", 7, 6, 4, 8, worldgen.CleanProfile(), worldgen.AllGTLayers(), "directed")
	tabs := make([]*table.Table, len(ds.Tables))
	for i, lt := range ds.Tables {
		tabs[i] = lt.Table
	}
	return tabs
}

// writeWorldFiles materializes catalog.json + corpus.json under dir.
func writeWorldFiles(t *testing.T, w *worldgen.World, dir string) {
	t.Helper()
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
	tf, err := os.Create(filepath.Join(dir, "corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := table.WriteCorpus(tf, worldTables(t, w)); err != nil {
		t.Fatalf("write corpus: %v", err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeSnapshot annotates the world corpus in-process and saves it.
func writeSnapshot(t *testing.T, w *worldgen.World, path string) {
	t.Helper()
	ctx := context.Background()
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.BuildIndex(ctx, worldTables(t, w)); err != nil {
		t.Fatalf("build index: %v", err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SaveSnapshot(ctx, f); err != nil {
		t.Fatalf("save snapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// startServed launches run() on a free port and returns the base URL, a
// cancel func triggering graceful shutdown, and the run error channel.
func startServed(t *testing.T, args []string) (string, context.CancelFunc, chan error) {
	base, cancel, done, _ := startServedLogging(t, args)
	return base, cancel, done
}

// startServedLogging is startServed that also returns run's log, to be
// read once run has returned.
func startServedLogging(t *testing.T, args []string) (string, context.CancelFunc, chan error, *bytes.Buffer) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	listenHook = func(a net.Addr) { addrCh <- a }
	t.Cleanup(func() { listenHook = nil })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var out, errBuf bytes.Buffer
	go func() { done <- run(ctx, args, &out, &errBuf) }()

	select {
	case a := <-addrCh:
		return "http://" + a.String(), cancel, done, &errBuf
	case err := <-done:
		cancel()
		t.Fatalf("run exited before listening: %v (stderr: %s)", err, errBuf.String())
		return "", cancel, done, nil
	case <-time.After(2 * time.Minute):
		cancel()
		t.Fatal("timed out waiting for tabserved to listen")
		return "", cancel, done, nil
	}
}

// stopServed cancels a run started by startServed, the signal path, and
// checks it drains and returns nil.
func stopServed(t *testing.T, cancel context.CancelFunc, done chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("tabserved did not shut down")
	}
}

// get fails the test unless GET url answers 200, and decodes the JSON
// body into v when v is not nil.
func get(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, raw)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
}

// post returns the body of POST url, failing the test unless it is a 200.
func post(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return raw
}

func searchPayload(t *testing.T, w *worldgen.World, pageSize int) []byte {
	t.Helper()
	workload := w.SearchWorkload([]string{"directed"}, 1, 7)
	if len(workload) == 0 {
		t.Fatal("empty workload")
	}
	q := workload[0]
	body, err := json.Marshal(map[string]any{
		"relation":  q.RelationName,
		"t1":        w.True.TypeName(q.T1),
		"t2":        w.True.TypeName(q.T2),
		"e2":        q.E2Name,
		"page_size": pageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServeFromSnapshot is the end-to-end daemon test: serve a saved
// snapshot, answer concurrent searches, map errors, then shut down
// gracefully on context cancellation (the SIGTERM path). The
// snapshot-loaded log line states the corpus's resident bytes.
func TestServeFromSnapshot(t *testing.T) {
	w := testWorld(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "corpus.snap")
	writeSnapshot(t, w, snap)

	base, cancel, done, logs := startServedLogging(t, []string{
		"-load", snap, "-addr", "127.0.0.1:0", "-workers", "4",
	})
	defer cancel()

	get(t, base+"/v1/healthz", nil)

	// Stats show the snapshot corpus without any startup annotation.
	var stats struct {
		Tables          int  `json:"tables"`
		AnnotatedTables int  `json:"annotated_tables"`
		IndexBuilt      bool `json:"index_built"`
	}
	get(t, base+"/v1/stats", &stats)
	if !stats.IndexBuilt || stats.Tables != 6 || stats.AnnotatedTables != 6 {
		t.Fatalf("stats = %+v", stats)
	}

	// Concurrent searches: 8 parallel clients.
	payload := searchPayload(t, w, 5)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("search status %d: %s", resp.StatusCode, raw)
				return
			}
			var res struct {
				Answers []struct {
					Text string `json:"text"`
				} `json:"answers"`
				Total int `json:"total"`
			}
			if err := json.Unmarshal(raw, &res); err != nil {
				errs <- err
				return
			}
			if res.Total == 0 || len(res.Answers) == 0 {
				errs <- fmt.Errorf("no answers: %s", raw)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Structured error with correct status.
	resp, err := http.Post(base+"/v1/search", "application/json",
		bytes.NewReader([]byte(`{"relation": "nonesuch", "t1": "Film", "t2": "Director", "e2": "x"}`)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-name status = %d: %s", resp.StatusCode, raw)
	}
	var er struct {
		Error struct {
			Code  string `json:"code"`
			Field string `json:"field"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("error body not JSON: %v (%s)", err, raw)
	}
	if er.Error.Code != "unknown_name" || er.Error.Field != "relation" {
		t.Fatalf("error = %+v", er.Error)
	}

	stopServed(t, cancel, done)
	m := regexp.MustCompile(`msg="snapshot loaded" .* resident_bytes=([0-9]+) `).FindStringSubmatch(logs.String())
	if m == nil || m[1] == "0" {
		t.Errorf("no resident_bytes on the snapshot-loaded line:\n%s", logs)
	}
}

// TestServeFromCatalogCorpus boots the annotate-at-startup path.
func TestServeFromCatalogCorpus(t *testing.T) {
	w := testWorld(t)
	dir := t.TempDir()
	writeWorldFiles(t, w, dir)

	base, cancel, done := startServed(t, []string{
		"-catalog", filepath.Join(dir, "catalog.json"),
		"-corpus", filepath.Join(dir, "corpus.json"),
		"-addr", "127.0.0.1:0",
		"-workers", "2",
	})
	defer cancel()

	post(t, base+"/v1/search", searchPayload(t, w, 3))
	stopServed(t, cancel, done)
}

func TestRunFlagValidation(t *testing.T) {
	// A refusal that stops working must fail here, not start a server
	// that serves until the test times out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	for _, args := range [][]string{
		nil, // no source at all
		{"-load", "x.snap", "-catalog", "c.json", "-corpus", "t.json"},
		{"-load", "x.snap", "-shards", "localhost:9101"},
		{"-catalog", "c.json", "-corpus", "t.json", "-shard", "0/2"}, // -shard needs -load
		{"-load", "x.snap", "-shard", "2/2"},
		{"-load", "x.snap", "-shard", "-1/2"},
		{"-load", "x.snap", "-shard", "1"},
		{"-load", "x.snap", "-shard", "1/2x"},
		// A shard and a router persist nothing: -snapshot would be lost.
		{"-load", "x.snap", "-shard", "0/2", "-snapshot", "y.snap"},
		{"-shards", "localhost:9101", "-snapshot", "y.snap"},
	} {
		if err := run(ctx, append(args, "-addr", "127.0.0.1:0"), &out, &errBuf); !errors.Is(err, errUsage) {
			t.Errorf("args %q: err = %v, want usage error", args, err)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "tabserved ") {
		t.Fatalf("version output = %q", out.String())
	}
}

// TestRouterMode boots two `-shard i/2` shards, a single node and the
// -shards router over one snapshot, checks each shard's identity and
// partial envelope, and checks the router's page is byte-identical to
// the single node's.
func TestRouterMode(t *testing.T) {
	w := testWorld(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "corpus.snap")
	writeSnapshot(t, w, snap)
	payload := searchPayload(t, w, 5)

	var shardURLs []string
	for i := 0; i < 2; i++ {
		base, cancel, done := startServed(t, []string{
			"-load", snap, "-shard", fmt.Sprintf("%d/2", i), "-addr", "127.0.0.1:0", "-workers", "2",
		})
		defer stopServed(t, cancel, done)
		shardURLs = append(shardURLs, base)

		var st dist.ShardStatsResponse
		get(t, base+"/v1/stats", &st)
		if st.Shard != i || st.Shards != 2 || st.Generation == 0 {
			t.Fatalf("shard %d stats = %+v", i, st)
		}
		p, err := dist.DecodePartial(post(t, base+"/v1/partial", payload))
		if err != nil {
			t.Fatalf("shard %d: decode partial: %v", i, err)
		}
		if p.Shard != i || p.Shards != 2 || p.Generation != st.Generation {
			t.Fatalf("shard %d partial envelope = %+v, stats = %+v", i, p, st)
		}
	}

	// Single-node reference.
	singleBase, cancelSingle, _ := startServed(t, []string{
		"-load", snap, "-addr", "127.0.0.1:0",
	})
	defer cancelSingle()

	// Router under test, via the -shards flag.
	routerBase, cancelRouter, routerDone := startServed(t, []string{
		"-shards", strings.Join(shardURLs, ","), "-addr", "127.0.0.1:0",
	})
	defer cancelRouter()

	single, routed := post(t, singleBase+"/v1/search", payload), post(t, routerBase+"/v1/search", payload)
	if !bytes.Equal(single, routed) {
		t.Fatalf("router page differs from single node:\nrouter: %s\nsingle: %s", routed, single)
	}

	// Router health and stats surface.
	get(t, routerBase+"/v1/healthz", nil)
	var st dist.RouterStatsResponse
	get(t, routerBase+"/v1/stats", &st)
	if len(st.Shards) != 2 || st.Shards[0].Requests == 0 {
		t.Fatalf("router stats = %+v", st)
	}

	stopServed(t, cancelRouter, routerDone)
}

func TestRunRejectsBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(path, []byte("this is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	err := run(context.Background(), []string{"-load", path, "-addr", "127.0.0.1:0"}, &out, &errBuf)
	if !errors.Is(err, webtable.ErrNotSnapshot) {
		t.Fatalf("err = %v, want ErrNotSnapshot", err)
	}
}
