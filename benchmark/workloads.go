package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"time"

	webtable "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/table"
	"repro/internal/worldgen"
)

// workloadNames are the workloads -workload takes. BENCHMARK.json names
// all but the last: serve-mixed is too unsteady to gate a change on
// (README.md, Steadiness) and is run by hand.
var workloadNames = []string{"ingest", "serve-single", "serve-sharded", "serve-mixed"}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"` // the first few failures
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"` // sample count behind each timing
	Notes     map[string]float64 `json:"notes,omitempty"`
	Started   time.Time          `json:"started"`
	Ended     time.Time          `json:"ended"`
}

// harness carries what every workload needs and collects its result.
type harness struct {
	ctx     context.Context
	z       sizes
	seed    int64
	seconds time.Duration
	clients int // closed-loop callers, each with its own connection
	workers int // worker pool of every node and shard
	workdir string
	call    *caller
	res     *result
	tr      *tracer // nil unless this is the traced run
	mu      sync.Mutex
}

func newHarness(ctx context.Context, workload string, seed int64, seconds time.Duration, z sizes, workdir string) *harness {
	return &harness{
		ctx: ctx, z: z, seed: seed, seconds: seconds, clients: busy(), workers: busy(), workdir: workdir,
		call: newCaller(busy() + 1), // the callers and serve-mixed's write stream
		res: &result{
			Workload: workload, Seed: seed,
			Metrics: map[string]float64{}, Samples: map[string]int{}, Notes: map[string]float64{},
		},
	}
}

// check counts one checked operation; a false ok is a failed one.
func (h *harness) check(ok bool, format string, args ...any) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.res.Attempted++
	if !ok {
		h.res.Failed++
		if len(h.res.Errors) < 8 {
			h.res.Errors = append(h.res.Errors, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (h *harness) count(attempted, failed int) {
	h.mu.Lock()
	h.res.Attempted += attempted
	h.res.Failed += failed
	h.mu.Unlock()
}

func (h *harness) metric(name string, v float64, samples int) {
	h.res.Metrics[name] = v
	h.res.Samples[name] = samples
}

func (h *harness) run() error {
	if err := os.MkdirAll(h.workdir, 0o755); err != nil {
		return err
	}
	defer h.call.close()
	h.res.Started = time.Now().UTC()
	defer func() { h.res.Ended = time.Now().UTC() }()
	if h.res.Workload == "ingest" {
		return h.runIngest()
	}
	return h.runServe()
}

// --- shared pieces ---

// libraryResponse answers a wire request body in-library: the bytes a
// server must send for it, and the result they were made from.
func libraryResponse(ctx context.Context, svc *webtable.Service, body []byte) ([]byte, *webtable.SearchResult, error) {
	var wr server.SearchRequest
	if err := server.DecodeJSON(bytes.NewReader(body), &wr); err != nil {
		return nil, nil, err
	}
	req, err := wr.Resolve(svc)
	if err != nil {
		return nil, nil, err
	}
	res, err := svc.Search(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	raw, err := json.Marshal(server.ToSearchResponse(svc.Catalog(), res))
	if err != nil {
		return nil, nil, err
	}
	return append(raw, '\n'), res, nil
}

// pagesEqual checks that url answers every body exactly as ref does
// in-library, and returns those answers and the share of point requests
// with at least one answer.
func (h *harness) pagesEqual(what, url string, ref *webtable.Service, rq *requests) (want [][]byte, answered float64) {
	want = make([][]byte, len(rq.bodies))
	points, hit := 0, 0
	for i, body := range rq.bodies {
		lib, res, err := libraryResponse(h.ctx, ref, body)
		if !h.check(err == nil, "%s: in-library search %s: %v", what, body, err) {
			continue
		}
		want[i] = lib
		if !rq.broad[i] {
			points++
			if res.Total > 0 {
				hit++
			}
		}
		if url == "" {
			continue
		}
		status, got, err := h.call.do(h.ctx, http.MethodPost, url+"/v1/search", body)
		h.check(err == nil && status == http.StatusOK && bytes.Equal(got, lib),
			"%s: %s answered HTTP %d (%v), %d bytes, in-library %d bytes", what, body, status, err, len(got), len(lib))
	}
	if points > 0 {
		answered = float64(hit) / float64(points)
	}
	return want, answered
}

// replay is the closed loop: each of the clients walks its own stride of
// the sequence, sending its next request when the previous one answered,
// for d. A response that is not the expected bytes is a failure.
func (h *harness) replay(url string, rq *requests, want [][]byte, d time.Duration) (samples []sample, failed int) {
	per := make([][]sample, h.clients)
	fails := make([]int, h.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < h.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; time.Since(start) < d && h.ctx.Err() == nil; k += h.clients {
				idx := rq.seq[k%len(rq.seq)]
				t0 := time.Now()
				status, got, err := h.call.do(h.ctx, http.MethodPost, url+"/v1/search", rq.bodies[idx])
				now := time.Now()
				if err != nil || status != http.StatusOK || (want != nil && !bytes.Equal(got, want[idx])) {
					fails[c]++
					continue
				}
				per[c] = append(per[c], sample{end: now.Sub(start), lat: now.Sub(t0)})
			}
		}()
	}
	wg.Wait()
	for c := range per {
		samples = append(samples, per[c]...)
		failed += fails[c]
	}
	return samples, failed
}

// opMetrics reports the workload's primary operation.
func (h *harness) opMetrics(perSec, p50, tail float64, samples int) {
	h.metric("ops_per_s", perSec, samples)
	h.metric("op_p50_ms", p50, samples)
	h.metric("op_tail_ms", tail, samples)
}

// loadMetrics reports restart cost: the fastest of the loads, which are
// spread over the run, since whatever else ran on the sandbox can only
// have slowed one down.
func (h *harness) loadMetrics(loads, heaps []float64) {
	h.metric("load_s", slices.Min(loads), len(loads))
	h.metric("heap_mb", median(heaps), len(heaps))
}

func (h *harness) accuracyMetrics(a accuracy, tables int) {
	h.metric("annot_entity_acc_pct", a.entity, tables)
	h.metric("annot_type_f1_pct", a.typeF1, tables)
	h.metric("annot_rel_f1_pct", a.relF1, tables)
}

// snapshotTo asks the node to persist its corpus and returns the
// response.
func (h *harness) snapshotTo(url string) (server.SnapshotResponse, bool) {
	var sr server.SnapshotResponse
	err := h.call.call(h.ctx, http.MethodPost, url+"/v1/snapshot", nil, &sr)
	return sr, h.check(err == nil, "POST /v1/snapshot: %v", err)
}

// liveContents decodes a snapshot file into its live tables and their
// annotations, in corpus order.
func liveContents(raw []byte) ([]*table.Table, []*core.Annotation, *snapshot.Snapshot, error) {
	snap, err := snapshot.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, nil, err
	}
	var tabs []*table.Table
	var anns []*core.Annotation
	for _, sg := range snap.SegmentList() {
		dead := map[int]bool{}
		for _, d := range sg.Dead {
			dead[d] = true
		}
		for i, t := range sg.Tables {
			if dead[i] {
				continue
			}
			tabs = append(tabs, t)
			if sg.Anns != nil {
				anns = append(anns, sg.Anns[i])
			} else {
				anns = append(anns, nil)
			}
		}
	}
	return tabs, anns, snap, nil
}

// --- ingest ---

type ingestEnv struct {
	fresh *freshBatches
	rq    *requests
	top   *topology
	path  string
}

func (h *harness) setUpIngest() (*ingestEnv, error) {
	w, err := buildWorld()
	if err != nil {
		return nil, err
	}
	e := &ingestEnv{path: filepath.Join(h.workdir, fmt.Sprintf("ingest-%d.snap", os.Getpid()))}
	if e.fresh, err = buildFresh(w, h.seed, h.z, ingestWarmup+h.z.ingestRate*int(h.seconds.Seconds())); err != nil {
		return nil, err
	}
	if e.rq, err = buildRequests(w, h.seed, h.z); err != nil {
		return nil, err
	}
	e.top, err = startSingle(h.ctx, w.Public, nil, e.path, h.workers)
	return e, err
}

// ingestWarmup batches are posted before the clock starts: they fill the
// feature extractor's participation cache.
const ingestWarmup = 2

// runIngest posts fresh tables, a batch at a time from one caller, to an
// initially empty node with a worker pool of one, then persists, reloads
// and checks what the node holds. The work is fixed — ingestRate batches
// per second of -seconds, which take the reference sandbox about nine
// tenths of -seconds — because what the node holds at the end (bytes per
// table, heap, load time, accuracy) is reported too and must not depend
// on how fast the run happened to be.
func (h *harness) runIngest() error {
	// A set-up takes some 50 ms, and a neighbour that is busy for half a
	// second slows every one of a burst of them by half: they are done a
	// pause apart, and the fastest is reported. (Set-ups after the run
	// would not count: with the run's tables alive, the collector makes
	// the same set-up take three times as long.)
	var e *ingestEnv
	var setups []float64
	for i := 0; i < h.z.fastSetups; i++ {
		if e != nil {
			e.top.stop()
			time.Sleep(h.z.setupGap)
		}
		t0 := time.Now()
		var err error
		if e, err = h.setUpIngest(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { e.top.stop(); os.Remove(e.path) }()
	if h.tr != nil {
		return h.traceIngest(e)
	}

	post := func(i int) (time.Duration, bool) {
		var mr server.MutateResponse
		t0 := time.Now()
		err := h.call.call(h.ctx, http.MethodPost, e.top.url+"/v1/tables", e.fresh.bodies[i], &mr)
		lat := time.Since(t0)
		return lat, h.check(err == nil && mr.Added == h.z.batch && mr.Tables == (i+1)*h.z.batch,
			"POST /v1/tables batch %d: %v (added %d, tables %d)", i, err, mr.Added, mr.Tables)
	}
	var lat []float64
	for next := range e.fresh.bodies {
		if h.ctx.Err() != nil {
			return h.ctx.Err()
		}
		d, ok := post(next)
		if !ok {
			return nil
		}
		if next >= ingestWarmup {
			lat = append(lat, ms(d))
		}
	}
	ingested := len(e.fresh.bodies) * h.z.batch
	perSec, p50, slowest := grouped(lat, h.z.ingestGroup, h.z.batch)
	h.opMetrics(perSec, p50, slowest, len(lat))

	// What the node holds: every table, annotated as the library
	// annotates it, searchable exactly as a one-segment rebuild is, and
	// all of it again after a restart.
	stats, _ := e.top.svc.CorpusStats()
	h.check(stats.Tables == ingested, "corpus holds %d tables, posted %d", stats.Tables, ingested)
	sr, ok := h.snapshotTo(e.top.url)
	if !ok {
		return nil
	}
	raw, err := os.ReadFile(e.path)
	if err != nil {
		return err
	}
	h.check(int64(len(raw)) == sr.Bytes, "snapshot file has %d bytes, response says %d", len(raw), sr.Bytes)
	tabs, anns, snap, err := liveContents(raw)
	if err != nil {
		return err
	}
	gtByID := map[string]worldgen.GroundTruth{}
	for _, b := range e.fresh.tables {
		for _, lt := range b {
			gtByID[lt.Table.ID] = lt.GT
		}
	}
	gts := make([]worldgen.GroundTruth, len(tabs))
	for i, t := range tabs {
		gt, known := gtByID[t.ID]
		h.check(known && anns[i] != nil, "snapshot table %q: posted %v, annotated %v", t.ID, known, anns[i] != nil)
		gts[i] = gt
	}
	if h.res.Failed > 0 {
		return nil
	}
	h.accuracyMetrics(score(anns, gts), len(tabs))
	h.metric("snapshot_bytes_per_table", float64(len(raw))/float64(len(tabs)), len(tabs))

	// Restarts from the file, timed, a few at a time between the checks,
	// so that they are spread over seconds. The first restarted node stays
	// up for the checks.
	var loads, heaps []float64
	var reloaded *topology
	restarts := func() error {
		for i := 0; i < h.z.ingestLoads; i++ {
			top, err := startSingle(h.ctx, nil, raw, "", h.workers)
			if err != nil {
				return err
			}
			loads, heaps = append(loads, top.loadS), append(heaps, top.heap)
			if reloaded == nil {
				reloaded = top
			} else {
				top.stop()
			}
		}
		return nil
	}
	defer func() {
		if reloaded != nil {
			reloaded.stop()
		}
	}()
	if err := restarts(); err != nil {
		return err
	}
	rs, _ := reloaded.svc.CorpusStats()
	h.check(rs.Tables == ingested && rs.Generation == sr.IndexGeneration,
		"reloaded corpus: %d tables at generation %d, persisted %d at %d", rs.Tables, rs.Generation, ingested, sr.IndexGeneration)
	for i := 0; i < len(tabs); i += max(1, len(tabs)/8) {
		again, err := e.top.svc.AnnotateTable(h.ctx, tabs[i])
		h.check(err == nil && sameLabels(again, anns[i]), "table %q: library annotation differs from the ingested one (%v)", tabs[i].ID, err)
	}
	if err := restarts(); err != nil {
		return err
	}

	var flat bytes.Buffer
	if err := snapshot.Save(&flat, &snapshot.Snapshot{Catalog: snap.Catalog, Tables: tabs, Anns: anns}); err != nil {
		return err
	}
	rebuilt, err := webtable.LoadService(h.ctx, &flat)
	if err != nil {
		return err
	}
	defer rebuilt.Close()
	h.pagesEqual("live node vs one-segment rebuild", e.top.url, rebuilt, e.rq)
	if err := restarts(); err != nil {
		return err
	}
	h.pagesEqual("reloaded node vs one-segment rebuild", reloaded.url, rebuilt, e.rq)
	if err := restarts(); err != nil {
		return err
	}
	h.loadMetrics(loads, heaps)
	h.metric("setup_s", slices.Min(setups), len(setups))
	return nil
}

// sameLabels compares two annotations of one table, ignoring timings.
func sameLabels(a, b *core.Annotation) bool {
	return a != nil && b != nil &&
		reflect.DeepEqual(a.ColumnTypes, b.ColumnTypes) &&
		reflect.DeepEqual(a.CellEntities, b.CellEntities) &&
		reflect.DeepEqual(a.Relations, b.Relations)
}

// --- serve-single, serve-sharded, serve-mixed ---

type serveEnv struct {
	c     *corpus
	rq    *requests
	fresh *freshBatches // serve-mixed only
	top   *topology
	path  string // serve-mixed only: where POST /v1/snapshot writes
}

func (h *harness) setUpServe() (*serveEnv, error) {
	c, err := buildCorpus(h.ctx, h.seed, h.z, h.workers)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{c: c}
	if e.rq, err = buildRequests(c.world, h.seed, h.z); err != nil {
		return nil, err
	}
	if h.res.Workload == "serve-mixed" {
		if e.fresh, err = buildFresh(c.world, h.seed, h.z, int(h.seconds/h.z.tick)); err != nil {
			return nil, err
		}
		e.path = filepath.Join(h.workdir, fmt.Sprintf("mixed-%d.snap", os.Getpid()))
	}
	e.top, err = h.start(c.snap, e.path)
	return e, err
}

// start loads snap into the workload's topology and serves it.
func (h *harness) start(snap []byte, snapPath string) (*topology, error) {
	switch h.res.Workload {
	case "serve-sharded":
		return startCluster(h.ctx, snap, 2, h.workers)
	case "serve-mixed":
		// Searches and the tables of a batch being annotated queue for the
		// same pool; behind a pool of one a search would wait out the batch.
		return startSingle(h.ctx, nil, snap, snapPath, h.workers+1)
	}
	return startSingle(h.ctx, nil, snap, snapPath, h.workers)
}

func (h *harness) runServe() error {
	t0 := time.Now()
	e, err := h.setUpServe()
	if err != nil {
		return err
	}
	setups, loads, heaps := []float64{time.Since(t0).Seconds()}, []float64{e.top.loadS}, []float64{e.top.heap}
	defer func() {
		e.top.stop()
		if e.path != "" {
			os.Remove(e.path)
		}
	}()
	h.metric("snapshot_bytes_per_table", float64(len(e.c.snap))/float64(e.c.tables), e.c.tables)
	h.accuracyMetrics(e.c.accuracy(), len(e.c.base))

	// The corpus is the shape it claims to be before anything is timed:
	// nothing for the compactor to do, and shards of equal weight.
	ref := e.top.svc
	if ref == nil {
		if ref, err = webtable.LoadService(h.ctx, bytes.NewReader(e.c.snap)); err != nil {
			return err
		}
		for i, a := range e.top.asn {
			h.check(float64(a.Tables) >= 0.45*float64(e.c.tables), "shard %d owns %d of %d tables", i, a.Tables, e.c.tables)
		}
	}
	idle, err := ref.Compact(h.ctx)
	if err != nil {
		return err
	}
	h.check(idle.Generation == 1 && idle.Segments == len(h.z.segments) && idle.Tables == e.c.tables,
		"corpus at load: %+v, want %d tables in %d segments with no merge pending", idle, e.c.tables, len(h.z.segments))

	dropRef := func() { // the cluster's reference is a second copy of the corpus
		if ref != e.top.svc {
			ref.Close()
		}
		ref = nil
	}
	if h.tr != nil {
		defer dropRef()
		return h.traceServe(e, ref)
	}

	want, answered := h.pagesEqual(h.res.Workload+" vs library", e.top.url, ref, e.rq)
	h.check(answered >= h.z.answered, "only %.0f %% of the pool's queries have an answer", 100*answered)
	h.res.Notes["queries_answered_share"] = answered
	dropRef()
	if h.res.Failed > 0 {
		return nil
	}

	// The run is measured in parts, one on each set-up of the workload: a
	// server built again half a minute later, from the same inputs, lands
	// elsewhere in memory and among other neighbours, and runs of one
	// commit differed by more than the slices of one server do.
	// serve-mixed is measured in one part, beside its write stream.
	mixed := h.res.Workload == "serve-mixed"
	parts := h.z.setups
	if mixed {
		want = nil // the corpus changes under the readers
		parts = 1
	}
	part := h.seconds / time.Duration(parts)
	var samples []sample
	measure := func(url string) {
		h.replay(url, e.rq, want, h.z.warmup)
		got, failed := h.replay(url, e.rq, want, part)
		h.count(len(got)+failed, failed)
		for _, s := range got {
			s.end += time.Duration(len(setups)-1) * part
			samples = append(samples, s)
		}
	}
	var mut *mutator
	if mixed {
		mut = h.startMutator(e)
	}
	measure(e.top.url)
	if mixed {
		if err := h.finishMixed(e, mut); err != nil {
			return err
		}
	}

	// The other set-ups, each with its part of the run, with nothing else
	// alive; then loads alone.
	e.top.stop()
	for i := 1; i < h.z.loads && h.res.Failed == 0; i++ {
		var top *topology
		if i < h.z.setups {
			t0 := time.Now()
			again, err := h.setUpServe()
			if err != nil {
				return err
			}
			setups, top = append(setups, time.Since(t0).Seconds()), again.top
			if !mixed {
				measure(top.url)
			}
		} else if top, err = h.start(e.c.snap, ""); err != nil {
			return err
		}
		loads, heaps = append(loads, top.loadS), append(heaps, top.heap)
		top.stop()
	}
	if h.res.Failed > 0 {
		return nil
	}
	perSec, p50, p99 := sliced(samples, time.Duration(parts)*part, h.z.slice)
	h.opMetrics(perSec, p50, p99, len(samples))
	h.metric("setup_s", slices.Min(setups), len(setups))
	h.loadMetrics(loads, heaps)
	return nil
}

// mutator is serve-mixed's write stream: an open loop that every tick
// posts one batch of fresh tables and deletes the batch it added lag
// ticks earlier, so the corpus stays the size it was loaded at. A tick
// is timed from the instant it was due, so a stall delays and lengthens
// the ticks behind it.
type mutator struct {
	done  chan struct{}
	lat   []float64 // ms from the due instant to the last response
	late  []float64 // ms the tick started after it was due
	added int       // batches posted
}

func (h *harness) startMutator(e *serveEnv) *mutator {
	m := &mutator{done: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(m.done)
		for n := 0; n < len(e.fresh.bodies); n++ {
			due := start.Add(time.Duration(n) * h.z.tick)
			if due.Sub(start) >= h.seconds || h.ctx.Err() != nil {
				return
			}
			time.Sleep(time.Until(due))
			m.late = append(m.late, ms(time.Since(due)))
			if !h.mutate(e, n) {
				return
			}
			m.added = n + 1
			m.lat = append(m.lat, ms(time.Since(due)))
		}
	}()
	return m
}

// mutate is one tick: add batch n, remove batch n-lag.
func (h *harness) mutate(e *serveEnv, n int) bool {
	var mr server.MutateResponse
	err := h.call.call(h.ctx, http.MethodPost, e.top.url+"/v1/tables", e.fresh.bodies[n], &mr)
	if !h.check(err == nil && mr.Added == h.z.batch, "tick %d: POST /v1/tables: %v (added %d)", n, err, mr.Added) {
		return false
	}
	if n < h.z.lag {
		return true
	}
	for _, lt := range e.fresh.tables[n-h.z.lag] {
		err := h.call.call(h.ctx, http.MethodDelete, e.top.url+"/v1/tables/"+lt.Table.ID, nil, &mr)
		if !h.check(err == nil && mr.Removed == 1, "tick %d: DELETE %s: %v", n, lt.Table.ID, err) {
			return false
		}
	}
	return true
}

// finishMixed waits for the write stream, persists the mutated corpus,
// restarts from the file and checks the restart serves the same corpus.
func (h *harness) finishMixed(e *serveEnv, m *mutator) error {
	<-m.done
	h.res.Notes["mutation_p50_ms"] = median(m.lat)
	h.res.Notes["mutation_ticks"] = float64(len(m.lat))
	h.res.Notes["generator_late_ms"] = quantile(sortedCopy(m.late), 0.9)
	if h.res.Failed > 0 {
		return nil
	}
	wantTables := e.c.tables + h.z.batch*min(m.added, h.z.lag)
	sr, ok := h.snapshotTo(e.top.url)
	if !ok {
		return nil
	}
	h.check(sr.Tables == wantTables, "persisted %d tables, want %d", sr.Tables, wantTables)
	f, err := os.Open(e.path)
	if err != nil {
		return err
	}
	defer f.Close()
	reloaded, err := webtable.LoadService(h.ctx, f)
	if err != nil {
		return err
	}
	defer reloaded.Close()
	rs, _ := reloaded.CorpusStats()
	h.check(rs.Tables == sr.Tables && rs.Generation == sr.IndexGeneration,
		"reloaded corpus: %d tables at generation %d, persisted %d at %d", rs.Tables, rs.Generation, sr.Tables, sr.IndexGeneration)
	h.pagesEqual("mutated node vs its restart", e.top.url, reloaded, e.rq)
	return nil
}
