package search

import (
	"math"
	"sync/atomic"
	"unsafe"

	"repro/internal/searchidx"
)

// arena is everything one execution builds and drops: the plan (candidate
// pairs, replay groups, the probes and the MatchSets compiled from them),
// the scan's collectors (cluster identities, the flat hit log, the
// RowHit buffer) and, for Execute, the per-cluster hit lists the log is
// cut into and the groups fold reads. It is taken when an execution's
// per-request work starts and released when the execution returns, on
// every path; see the package comment's Ownership paragraph for what
// may leave it.
type arena struct {
	plan scanPlan
	// e2 is the probe every mode compiles per segment; t1, t2 and rel are
	// the Baseline's header and context probes with their merge buffers.
	e2, t1, t2, rel searchidx.Probe
	buf1, buf2      []searchidx.ColKey
	ctxs            searchidx.ContextCursor

	// collectors holds one collector per replay group of the plan.
	collectors []*partialCollector
	// hits is what the collectors' logs are cut into when the lists stay
	// inside the execution (Execute); next is the counting pass's cursor
	// per cluster; shards is what fold is handed, Execute's one shard.
	hits   []PartialHit
	next   []int32
	shards [1][]PartialGroup

	// taken is footprint() when the arena left the pool.
	taken int64
}

// maxParkedArenas bounds the free list — an execution takes one arena, a
// service runs at most Workers() executions at a time, and an arena
// returned to a full list is dropped — and maxParkedBytes keeps one
// enormous query from pinning its arena for the life of the process.
// Measured on the benchmark's 6000-table corpus and request mix
// (BenchmarkHandlerSearch, arena-KB): an arena settles at 146 KB, so a
// full list is 2.3 MB at that scale, 64 MB at the very worst, and the cap
// is 28 times what the largest request of that mix leaves. A query with
// 12 000 answers over 60 000 matching rows leaves 4.1 MB and still parks;
// one past the cap allocates per request, as every query did before
// there was a pool.
const (
	maxParkedArenas = 16
	maxParkedBytes  = 4 << 20
)

// arenas is the process's free list. A channel is lock-free enough here
// — one receive and one send per execution — and, unlike a sync.Pool,
// keeps count: parked is exactly the capacity waiting in it.
var arenas = struct {
	free   chan *arena
	parked atomic.Int64
	grows  atomic.Uint64
	// poison makes release scribble over every buffer before parking it
	// (SetArenaPoison; tests only).
	poison atomic.Bool
}{free: make(chan *arena, maxParkedArenas)}

// ArenaStats reports the execution-arena pool of this process: the bytes
// of slice capacity parked in it right now (map buckets not counted), and
// how many executions so far gave their arena back larger than they took
// it — every execution that found the pool empty among them. A steady
// server parks a few arenas and stops growing them; grows rising with
// the request count means pooling has stopped working.
func ArenaStats() (parkedBytes int64, grows uint64) {
	return arenas.parked.Load(), arenas.grows.Load()
}

// SetArenaPoison is a test hook: while on, every released arena has its
// buffers overwritten with garbage and cut short before it is parked, so
// that anything an execution returned that still points into its arena
// shows up as a wrong answer (and, under the race detector, as a race
// with the next execution). It returns the function that restores the
// previous setting.
func SetArenaPoison(on bool) (restore func()) {
	was := arenas.poison.Swap(on)
	return func() { arenas.poison.Store(was) }
}

// takeArena returns a parked arena, or a new one when none is parked.
func takeArena() *arena {
	select {
	case a := <-arenas.free:
		arenas.parked.Add(-a.taken)
		return a
	default:
		return &arena{}
	}
}

// release parks the arena for the next execution, emptied of everything
// that points into the corpus. Nothing the execution handed to its
// caller may point into the arena.
func (a *arena) release() {
	if arenas.poison.Load() {
		a.scribble()
	}
	for _, pc := range a.collectors {
		pc.e = nil
		clear(pc.clusters)
		pc.entities.reset()
		clear(pc.texts)
	}
	size := a.footprint()
	if size > a.taken {
		arenas.grows.Add(1)
	}
	if size > maxParkedBytes {
		return
	}
	a.taken = size
	// Counted before it can be taken again, so parked never dips below zero.
	arenas.parked.Add(size)
	select {
	case arenas.free <- a:
	default:
		arenas.parked.Add(-size)
	}
}

// footprint sums the capacity of the arena's row-scale buffers in bytes.
func (a *arena) footprint() int64 {
	n := int64(cap(a.plan.pairs))*int64(unsafe.Sizeof(candidate{})) +
		int64(cap(a.hits))*int64(unsafe.Sizeof(PartialHit{})) +
		int64(cap(a.next))*int64(unsafe.Sizeof(int32(0)))
	for _, pc := range a.collectors {
		n += int64(cap(pc.log))*int64(unsafe.Sizeof(loggedHit{})) +
			int64(cap(pc.rows))*int64(unsafe.Sizeof(searchidx.RowHit{})) +
			int64(cap(pc.clusters))*int64(unsafe.Sizeof(ClusterPartial{}))
	}
	return n
}

// collector returns the arena's i-th collector, bound to this execution.
func (a *arena) collector(i int, e *Engine, tableOffset int) *partialCollector {
	if i == len(a.collectors) {
		a.collectors = append(a.collectors, &partialCollector{texts: make(map[string]int32)})
	}
	pc := a.collectors[i]
	pc.e, pc.offset = e, int32(tableOffset)
	pc.log, pc.clusters = pc.log[:0], pc.clusters[:0]
	return pc
}

// scribble overwrites what release is about to park with values no
// execution produces — all-ones integers, a NaN for evidence, clusters of
// an entity that does not exist — over the whole capacity of every
// buffer, and cuts the buffers to nothing.
func (a *arena) scribble() {
	badHit := PartialHit{Table: -1, Row: -1, Col: -1, Evidence: math.Float64frombits(^uint64(0))}
	a.plan.pairs = fill(a.plan.pairs, candidate{seg: -1, local: -1, subj: -1, obj: -1})
	a.plan.groups = fill(a.plan.groups, planGroup{key: ^uint32(0), start: -1})
	a.hits = fill(a.hits, badHit)
	a.next = fill(a.next, -1)
	a.shards[0] = fill(a.shards[0], PartialGroup{Key: ^uint32(0)})
	for _, pc := range a.collectors {
		pc.log = fill(pc.log, loggedHit{table: -1, row: -1, col: -1, cluster: -1, evidence: badHit.Evidence})
		pc.rows = fill(pc.rows, searchidx.RowHit{Row: -1, Evidence: badHit.Evidence})
		pc.clusters = fill(pc.clusters, ClusterPartial{Entity: -2, Norm: "\xff", Canonical: "\xff", Hits: []PartialHit{badHit}})
	}
}

// fill sets every slot of s up to its capacity to garbage and returns s
// cut to nothing.
func fill[T any](s []T, garbage T) []T {
	s = s[:cap(s)]
	for i := range s {
		s[i] = garbage
	}
	return s[:0]
}
