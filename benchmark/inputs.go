package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	webtable "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/snapshot"
	"repro/internal/table"
	"repro/internal/worldgen"
)

// sizes fixes how much work one run does. Everything that is not a
// size comes from the seed.
type sizes struct {
	baseTables  int     // distinct annotated tables in the serving corpus
	segments    []int   // manifest segment sizes; their sum is the corpus size
	poolPerRel  int     // query pool: E2 values per search relation
	broadPer    int     // broad requests: E2 values per search relation
	seqLen      int     // request sequence length (clients wrap around)
	answered    float64 // share of the pool's point requests that must have an answer: an empty index must not look fast
	batch       int     // tables per POST /v1/tables
	ingestRate  int     // ingest posts ingestRate batches per second of -seconds: fixed work
	ingestGroup int     // ingest's timings are read over groups of this many consecutive batches
	setups      int     // set-ups per serve run, the first before the run and the rest after it; setup_s is the fastest
	fastSetups  int     // ingest's set-up is ~100x cheaper: this many before the run, setupGap apart
	setupGap    time.Duration
	loads       int // loads of the snapshot per serve run, the set-ups' included; load_s is the fastest
	ingestLoads int // ingest restarts from its snapshot this often at each of four points of its checks
	warmup      time.Duration
	slice       time.Duration // serve timings are read over slices of this length; a multiple of tick
	tick        time.Duration // serve-mixed mutation period
	lag         int           // serve-mixed deletes the batch added lag ticks earlier
	// traced replay prefixes
	traceSearches, traceTables, traceTicks int
}

// fullSizes is the benchmark proper. The segment sizes are an LSM steady
// state under the default compaction policy (tiers 3,3,2,2,1,1,1: no run
// of four), so no merge is pending at load and two shards split
// 3072/2928. 96 base tables replicated 62.5x keep one set-up near 4 s —
// two fit in a run — while index size, rows scanned and heap are
// those of a 6000-table corpus.
func fullSizes() sizes {
	return sizes{
		baseTables:  96,
		segments:    []int{3072, 2048, 512, 256, 64, 32, 16},
		poolPerRel:  40,
		broadPer:    10,
		seqLen:      1 << 16,
		answered:    0.5,
		batch:       8,
		ingestRate:  4,
		ingestGroup: 5,
		setups:      2,
		fastSetups:  10,
		setupGap:    250 * time.Millisecond,
		loads:       4,
		ingestLoads: 3,
		warmup:      2 * time.Second,
		slice:       time.Second,
		tick:        500 * time.Millisecond,
		lag:         4,

		traceSearches: 1500,
		traceTables:   200,
		traceTicks:    12,
	}
}

// shortSizes is the toy configuration behind -short and the package
// test: same shape (geometric segments, no pending merge, balanced
// shards), a fraction of the work.
func shortSizes() sizes {
	return sizes{
		baseTables:  32,
		segments:    []int{48, 32, 16},
		poolPerRel:  6,
		broadPer:    2,
		seqLen:      1 << 12,
		answered:    0.3,
		batch:       8,
		ingestRate:  5,
		ingestGroup: 2,
		setups:      1,
		fastSetups:  1,
		loads:       2,
		ingestLoads: 1,
		warmup:      200 * time.Millisecond,
		slice:       250 * time.Millisecond,
		tick:        250 * time.Millisecond,
		lag:         2,

		traceSearches: 60,
		traceTables:   16,
		traceTicks:    3,
	}
}

// datasetSeed makes the data at rest: the catalog, the distinct tables
// of the serving corpus and the pool of values queries ask about. It is
// a constant — a deployment has one catalog and one crawl — because the
// cost of a search depends on how many rows its hottest values match,
// and that moved mean search time by +-20 % between datasets of the same
// size (README.md has the table), twice the bound a regression is held
// to. What arrives — the order and Zipf draws of the requests, the fresh
// tables ingest and serve-mixed post, where each replica lands in the
// manifest — comes from -seed.
const datasetSeed = 1

// Seeds of the independent input streams derived from -seed.
func arrangeSeed(seed int64) int64 { return seed*7919 + 11 }
func freshSeed(seed int64) int64   { return seed*7919 + 23 }
func trafficSeed(seed int64) int64 { return seed*7919 + 37 }

func buildWorld() (*worldgen.World, error) {
	spec := worldgen.DefaultSpec()
	spec.Seed = datasetSeed
	return worldgen.Build(spec)
}

// stratifiedTables renders n labeled web tables in the NoisyProfile,
// 10-40 rows each. Which entities, typos, headers and layouts a table
// gets depends on the seed; what sets how much work a table is does
// not. Every eight consecutive tables — one POST /v1/tables batch — hold
// eight different relations, row counts spread evenly over 10..40 and
// one or two tables that pair unrelated columns, so every batch is
// about the same work and the fresh tables of one seed cost what those
// of another do. Sampling the three freely (World.SearchCorpus does)
// made one batch cost up to four times the next.
func stratifiedTables(w *worldgen.World, name string, seed int64, n int) []worldgen.LabeledTable {
	const group = 8
	out := make([]worldgen.LabeledTable, n)
	for i := range out {
		b, j := i/group, i%group
		np := worldgen.NoisyProfile()
		np.UnrelatedTableProb = 0
		if (b+j)%5 == 0 {
			np.UnrelatedTableProb = 1
		}
		rows := 10 + (j*31/group+b*7)%31
		rel := w.Relations[(b+j)%len(w.Relations)]
		ds := w.GenerateDataset(fmt.Sprintf("%s%05d", name, i), seed*100003+int64(i), 1, rows, rows,
			np, worldgen.AllGTLayers(), rel.Name)
		out[i] = ds.Tables[0]
	}
	return out
}

func tablesOf(lts []worldgen.LabeledTable) []*table.Table {
	out := make([]*table.Table, len(lts))
	for i, lt := range lts {
		out[i] = lt.Table
	}
	return out
}

// accuracy scores annotations against worldgen ground truth, in percent.
type accuracy struct{ entity, typeF1, relF1 float64 }

func score(anns []*core.Annotation, gt []worldgen.GroundTruth) accuracy {
	var ec eval.Counts
	var tp, rp eval.PRF
	for i, a := range anns {
		ec.Add(eval.EntityCells(a, gt[i]))
		tp.Add(eval.ColumnTypesSingle(a, gt[i]))
		rp.Add(eval.Relations(a.Relations, gt[i]))
	}
	return accuracy{100 * ec.Accuracy(), 100 * tp.F1(), 100 * rp.F1()}
}

// corpus is the serving corpus of the serve-* workloads.
type corpus struct {
	world  *worldgen.World
	base   []worldgen.LabeledTable
	anns   []*core.Annotation
	snap   []byte // the segmented snapshot, as snapshot.Save wrote it
	tables int
	saveMS float64
}

// buildCorpus annotates the base tables once with the default collective
// method, replicates them under fresh table IDs up to the manifest's
// size and saves the manifest.
func buildCorpus(ctx context.Context, seed int64, z sizes, workers int) (*corpus, error) {
	w, err := buildWorld()
	if err != nil {
		return nil, err
	}
	svc, err := webtable.NewService(w.Public, webtable.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	base := stratifiedTables(w, "corpus", datasetSeed, z.baseTables)
	tabs := tablesOf(base)
	anns, err := svc.AnnotateCorpus(ctx, tabs)
	if err != nil {
		return nil, err
	}
	// Every round of replicas takes the base tables in its own order.
	rng := rand.New(rand.NewSource(arrangeSeed(seed)))
	var order []int
	segs := make([]snapshot.Segment, len(z.segments))
	n := 0
	for si, size := range z.segments {
		sg := snapshot.Segment{ID: uint64(si + 1), Tables: make([]*table.Table, size), Anns: make([]*core.Annotation, size)}
		for k := 0; k < size; k++ {
			if n%len(tabs) == 0 {
				order = rng.Perm(len(tabs))
			}
			b, copyNo := order[n%len(tabs)], n/len(tabs)
			t, a := tabs[b], anns[b]
			if copyNo > 0 {
				t = t.Clone()
				t.ID = fmt.Sprintf("%s-r%03d", t.ID, copyNo)
				dup := *a
				dup.TableID = t.ID
				a = &dup
			}
			sg.Tables[k], sg.Anns[k] = t, a
			n++
		}
		segs[si] = sg
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := snapshot.Save(&buf, &snapshot.Snapshot{Catalog: w.Public.Snapshot(), Segments: segs, Generation: 1}); err != nil {
		return nil, err
	}
	return &corpus{world: w, base: base, anns: anns, snap: buf.Bytes(), tables: n, saveMS: ms(time.Since(t0))}, nil
}

func (c *corpus) accuracy() accuracy {
	gt := make([]worldgen.GroundTruth, len(c.base))
	for i, lt := range c.base {
		gt[i] = lt.GT
	}
	return score(c.anns, gt)
}

// requests is the search traffic of the serve-* workloads: the distinct
// request bodies and the order they are sent in.
type requests struct {
	bodies [][]byte
	broad  []bool // per body
	mode   []int  // per body: index into searchModes
	seq    []int  // indices into bodies
}

var searchModes = []string{"baseline", "type", "typerel"}

// buildRequests draws the pool (poolPerRel E2 values for each of the
// five Figure-13 relations, in all three modes) and the sequence: 90 %
// point requests (page_size 10) whose E2 follows Zipf(s=1.1) over the
// pool, 10 % broad requests (typerel, page_size 50, explain) over the
// E2 values with the most subjects. Zipf ranks interleave the relations
// and the modes take turns, so the skew is over values — as in
// attribute-value traffic — while every seed sends the same share of
// each relation and mode; a hot key that happened to be a baseline scan
// of the largest relation would otherwise set the whole run's latency.
func buildRequests(w *worldgen.World, seed int64, z sizes) (*requests, error) {
	pool := w.SearchWorkload(worldgen.SearchRelations, z.poolPerRel, datasetSeed)
	if len(pool) == 0 {
		return nil, fmt.Errorf("empty query pool")
	}
	byRel := map[string][]worldgen.SearchQuery{}
	for _, q := range pool {
		byRel[q.RelationName] = append(byRel[q.RelationName], q)
	}
	for _, qs := range byRel { // most subjects first: the values with most facts are asked for most
		sort.SliceStable(qs, func(i, j int) bool { return len(qs[i].WantE1) > len(qs[j].WantE1) })
	}
	// ranked[r] is the query at Zipf rank r: round-robin over relations.
	var ranked []worldgen.SearchQuery
	for i := 0; len(ranked) < len(pool); i++ {
		for _, rn := range worldgen.SearchRelations {
			if i < len(byRel[rn]) {
				ranked = append(ranked, byRel[rn][i])
			}
		}
	}
	rq := &requests{}
	add := func(q worldgen.SearchQuery, mode, pageSize int, explain bool) error {
		ri, _ := w.Rel(q.RelationName)
		m := map[string]any{
			"relation":  q.RelationName,
			"context":   strings.Join(ri.ContextWords, " "), // what the string baseline matches table context on
			"t1":        w.True.TypeName(q.T1),
			"t2":        w.True.TypeName(q.T2),
			"e2":        q.E2Name,
			"mode":      searchModes[mode],
			"page_size": pageSize,
		}
		if explain {
			m["explain"] = true
		}
		body, err := json.Marshal(m)
		if err != nil {
			return err
		}
		rq.bodies = append(rq.bodies, body)
		rq.broad = append(rq.broad, explain)
		rq.mode = append(rq.mode, mode)
		return nil
	}
	for _, q := range ranked { // point body of rank r, mode m is bodies[3r+m]
		for m := range searchModes {
			if err := add(q, m, 10, false); err != nil {
				return nil, err
			}
		}
	}
	firstBroad := len(rq.bodies)
	for _, rn := range worldgen.SearchRelations {
		for i := 0; i < z.broadPer && i < len(byRel[rn]); i++ {
			if err := add(byRel[rn][i], 2, 50, true); err != nil {
				return nil, err
			}
		}
	}
	nBroad := len(rq.bodies) - firstBroad

	rng := rand.New(rand.NewSource(trafficSeed(seed)))
	cdf := make([]float64, len(ranked))
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), 1.1)
		cdf[r] = sum
	}
	rq.seq = make([]int, z.seqLen)
	for i := range rq.seq {
		if i%10 == 9 {
			rq.seq[i] = firstBroad + rng.Intn(nBroad)
			continue
		}
		r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		rq.seq[i] = 3*r + i%3
	}
	return rq, nil
}

// freshBatches renders the tables ingest and serve-mixed post, batch by
// batch, with the POST /v1/tables body of each batch.
type freshBatches struct {
	tables [][]worldgen.LabeledTable
	bodies [][]byte
}

func buildFresh(w *worldgen.World, seed int64, z sizes, batches int) (*freshBatches, error) {
	lts := stratifiedTables(w, "fresh", freshSeed(seed), batches*z.batch)
	fb := &freshBatches{}
	for lo := 0; lo+z.batch <= len(lts); lo += z.batch {
		batch := lts[lo : lo+z.batch]
		body, err := json.Marshal(map[string]any{"tables": tablesOf(batch)})
		if err != nil {
			return nil, err
		}
		fb.tables = append(fb.tables, batch)
		fb.bodies = append(fb.bodies, body)
	}
	return fb, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
