// Package benchfix builds the corpus and the request sequence the
// in-process serving benchmarks share (BenchmarkHandlerSearch in
// internal/server, BenchmarkRoutedSearch in internal/dist), so that a
// single node and a cluster are measured over the same bytes, and the
// fresh tables BenchmarkAnnotateBatch ingests.
package benchfix

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	webtable "repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/table"
	"repro/internal/worldgen"
)

// Serving is the repository benchmark's serve-single set-up
// (benchmark/inputs.go) rebuilt in-process: a worldgen DefaultSpec seed-1
// world, 96 NoisyProfile tables annotated once and replicated under fresh
// IDs into the seven geometric segments of a 6000-table manifest, saved as
// the snapshot a daemon (or each shard of a cluster) loads; and that
// benchmark's request mix — forty E2 values for each of the five Figure-13
// relations in all three modes as point requests (page_size 10) drawn
// Zipf(1.1) over the values, every tenth request a broad one (typerel,
// page_size 50, explain) — as a fixed 4096-request sequence of
// POST /v1/search bodies.
func Serving(tb testing.TB) (snap []byte, seq [][]byte) {
	tb.Helper()
	const (
		baseTables = 96
		poolPerRel = 40
		broadPer   = 10
		seqLen     = 1 << 12
	)
	segments := []int{3072, 2048, 512, 256, 64, 32, 16}
	ctx := context.Background()

	w := world(tb)
	ann, err := webtable.NewService(w.Public, webtable.WithWorkers(1))
	if err != nil {
		tb.Fatal(err)
	}
	defer ann.Close()
	tabs := stratified(w, "corpus", datasetSeed, baseTables)
	anns, err := ann.AnnotateCorpus(ctx, tabs)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3*7919 + 11))
	var order []int
	segs := make([]snapshot.Segment, len(segments))
	n := 0
	for si, size := range segments {
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
	var file bytes.Buffer
	if err := snapshot.Save(&file, &snapshot.Snapshot{Catalog: w.Public.Snapshot(), Segments: segs, Generation: 1}); err != nil {
		tb.Fatal(err)
	}

	pool := w.SearchWorkload(worldgen.SearchRelations, poolPerRel, datasetSeed)
	byRel := map[string][]worldgen.SearchQuery{}
	for _, q := range pool {
		byRel[q.RelationName] = append(byRel[q.RelationName], q)
	}
	for _, qs := range byRel {
		sort.SliceStable(qs, func(i, j int) bool { return len(qs[i].WantE1) > len(qs[j].WantE1) })
	}
	var ranked []worldgen.SearchQuery
	for i := 0; len(ranked) < len(pool); i++ {
		for _, rn := range worldgen.SearchRelations {
			if i < len(byRel[rn]) {
				ranked = append(ranked, byRel[rn][i])
			}
		}
	}
	var bodies [][]byte
	add := func(q worldgen.SearchQuery, mode string, pageSize int, explain bool) {
		ri, _ := w.Rel(q.RelationName)
		m := map[string]any{
			"relation":  q.RelationName,
			"context":   strings.Join(ri.ContextWords, " "),
			"t1":        w.True.TypeName(q.T1),
			"t2":        w.True.TypeName(q.T2),
			"e2":        q.E2Name,
			"mode":      mode,
			"page_size": pageSize,
		}
		if explain {
			m["explain"] = true
		}
		body, err := json.Marshal(m)
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, q := range ranked { // point body of rank r, mode m is bodies[3r+m]
		for _, mode := range []string{"baseline", "type", "typerel"} {
			add(q, mode, 10, false)
		}
	}
	firstBroad := len(bodies)
	for _, rn := range worldgen.SearchRelations {
		for i := 0; i < broadPer && i < len(byRel[rn]); i++ {
			add(byRel[rn][i], "typerel", 50, true)
		}
	}
	nBroad := len(bodies) - firstBroad

	rng = rand.New(rand.NewSource(3*7919 + 37))
	cdf := make([]float64, len(ranked))
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), 1.1)
		cdf[r] = sum
	}
	seq = make([][]byte, seqLen)
	for i := range seq {
		if i%10 == 9 {
			seq[i] = bodies[firstBroad+rng.Intn(nBroad)]
			continue
		}
		seq[i] = bodies[3*sort.SearchFloat64s(cdf, rng.Float64()*sum)+i%3]
	}
	return file.Bytes(), seq
}

const datasetSeed = 1 // the repository benchmark's world seed

// Ingest is the repository benchmark's ingest input rebuilt in-process:
// the world's public catalog and the fresh tables its ingest workload
// posts at -seed 1 (benchmark/inputs.go), n batches of eight in order.
func Ingest(tb testing.TB, n int) (*catalog.Catalog, []*table.Table) {
	tb.Helper()
	w := world(tb)
	return w.Public, stratified(w, "fresh", datasetSeed*7919+23, 8*n)
}

func world(tb testing.TB) *worldgen.World {
	tb.Helper()
	spec := worldgen.DefaultSpec()
	spec.Seed = datasetSeed
	w, err := worldgen.Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// stratified is the benchmark's stratifiedTables: every eight tables hold
// eight relations, 10..40 rows and one or two pairs of unrelated columns.
func stratified(w *worldgen.World, name string, seed int64, n int) []*table.Table {
	out := make([]*table.Table, n)
	for i := range out {
		b, j := i/8, i%8
		np := worldgen.NoisyProfile()
		np.UnrelatedTableProb = 0
		if (b+j)%5 == 0 {
			np.UnrelatedTableProb = 1
		}
		rows := 10 + (j*31/8+b*7)%31
		rel := w.Relations[(b+j)%len(w.Relations)]
		ds := w.GenerateDataset(fmt.Sprintf("%s%05d", name, i), seed*100003+int64(i), 1, rows, rows,
			np, worldgen.AllGTLayers(), rel.Name)
		out[i] = ds.Tables[0].Table
	}
	return out
}
