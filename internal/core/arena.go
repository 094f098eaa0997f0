package core

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/factorgraph"
	"repro/internal/feature"
	"repro/internal/lemmaindex"
)

// arena is everything one annotation builds and drops, under the search
// package's ownership rule: an annotation takes one when it starts and
// releases it when it returns, on every path, and nothing it returns
// points into it. A slab that grows moves; what was cut keeps the old array.
type arena struct {
	cs    candidates
	probe lemmaindex.Probe
	key   []byte                   // a cell's normalised text
	cands []lemmaindex.Candidate   // every cell's candidates, cell after cell
	cells [][]lemmaindex.Candidate // cut from cands
	ents  []catalog.EntityID       // the φ3 tables' entities, rows, types and scores
	rowOf []int32
	types []catalog.TypeID
	vals  []float64
	rels  []feature.RelDir   // the column pairs' relation spaces
	reps  []catalog.EntityID // a column's entity per signature
	sigs  map[int32]int32    // a column's row per signature
	pots  []float64          // the potential tables
	viol  []bool             // a φ5 table's violation bits
	vars  []factorgraph.VarID
	ag    annotGraph
	g     factorgraph.Graph
}

// maxParkedArenas bounds the free list (a service annotates at most
// Workers() tables at once; an arena released to a full list is dropped).
// maxParkedCells keeps one enormous table from pinning its arena: the
// slabs grow with the cells annotated, so an arena is parked only after a
// table of at most 4 times the ingest workload's largest (40 rows of 4
// columns, after which it holds about 0.9 MB).
const (
	maxParkedArenas = 16
	maxParkedCells  = 640
)

var arenas = struct {
	free   chan *arena
	poison atomic.Bool // release scribbles over every slab first (tests only)
}{free: make(chan *arena, maxParkedArenas)}

// takeArena returns a parked arena, or a new one when none is parked.
func takeArena() *arena {
	select {
	case ar := <-arenas.free:
		return ar
	default:
		return &arena{sigs: map[int32]int32{}}
	}
}

// release parks the arena for the next annotation.
func (ar *arena) release() {
	if arenas.poison.Load() {
		nan := math.NaN()
		fill(ar.cands, lemmaindex.Candidate{Entity: -2, Score: nan, Sim: lemmaindex.SimilarityProfile{Cosine: nan}})
		fill(ar.types, -2)
		fill(ar.rels, feature.RelDir{Relation: -2})
		fill(ar.vals, nan)
		fill(ar.pots, nan)
	}
	if ar.cs.tab != nil && ar.cs.tab.Rows()*len(ar.cs.cols) > maxParkedCells {
		return
	}
	ar.cs.tab = nil
	select {
	case arenas.free <- ar:
	default:
	}
}

func fill[T any](s []T, garbage T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = garbage
	}
}

// take cuts n zeroed elements off the end of a slab.
func take[T any](slab *[]T, n int) []T {
	s := slices.Grow(*slab, n)
	*slab = s[:len(s)+n]
	w := (*slab)[len(s):len(*slab):len(*slab)]
	clear(w)
	return w
}

// since returns what was appended to a slab from start on.
func since[T any](slab []T, start int) []T { return slab[start:len(slab):len(slab)] }
