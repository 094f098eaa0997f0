// Package segment is the live-corpus layer between annotation and query
// execution: an LSM-flavored segmented search index that makes the
// paper's annotate-once/index-once pipeline (§5, §7) mutable without
// ever rebuilding the whole corpus.
//
// The design mirrors a log-structured merge tree specialized to web
// tables:
//
//   - a Segment is one immutable compiled searchidx.Index over a batch
//     of tables — once built it is never modified. The index is all a
//     segment keeps: the tables and annotations it was compiled from are
//     copied into it, not referenced, and come back as objects only
//     when somebody asks (View.Flatten, compaction);
//   - a View is an immutable manifest: the ordered live segments plus a
//     tombstone set of removed tables. Views implement search.Corpus by
//     handing the query engine each segment's compiled index with the
//     map from its local table numbers to corpus-global ones (tombstoned
//     tables map to -1), so the engine walks many segments' posting
//     lists exactly as it walks one monolithic index's;
//   - a Store serializes mutations (Add builds one new segment over just
//     the new tables; Remove only marks tombstones) and swaps the
//     current View atomically, so readers never block and in-flight
//     searches keep the view they started with;
//   - a size-tiered compactor merges runs of adjacent similar-sized
//     segments (and rewrites tombstone-heavy ones) in the background,
//     bounding segment count and reclaiming dead tables. A merge
//     materialises the run's surviving tables and compiles them with
//     searchidx.BuildContext — the one way a segment is ever built —
//     and keeps the objects no longer than that call.
//
// The load-bearing invariant is scan-order equivalence: a View yields
// candidate column pairs in ascending global table order, per-table
// annotation order — the exact sequence a from-scratch searchidx build
// over the surviving tables would yield. Floating-point evidence sums in
// scan order, and pagination cursors compare scores bit-exactly, so this
// ordering is what makes segmented search results (rankings, totals,
// cursors, explanations) byte-identical to a full rebuild. Compaction
// preserves it by only merging adjacent runs.
package segment

import (
	"slices"
	"sort"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/searchidx"
	"repro/internal/table"
)

// Segment is one immutable indexed batch of tables.
type Segment struct {
	id uint64
	ix *searchidx.Index
}

// ID returns the segment's store-unique id (monotonically assigned;
// compaction products get fresh ids).
func (s *Segment) ID() uint64 { return s.id }

// Index returns the segment's posting-list bundle.
func (s *Segment) Index() *searchidx.Index { return s.ix }

// Len returns the number of tables the segment holds, including ones a
// view may have tombstoned.
func (s *Segment) Len() int { return s.ix.Len() }

// Loc addresses one table inside a view: the segment's position in the
// view's manifest and the table's segment-local number.
type Loc struct {
	Seg   int
	Table int
}

// View is one immutable point-in-time manifest of the corpus: the live
// segments in order plus the tombstoned tables. It implements
// search.Corpus: each segment's index with its local→global table map,
// the global numbers skipping tombstones, so rankings and explanations
// are identical to a monolithic index over the surviving tables. A View is safe for concurrent use and never
// changes; mutations produce a new View.
type View struct {
	cat *catalog.Catalog
	gen uint64

	segs []*Segment
	// dead[i] holds segment i's tombstoned local table numbers. Maps are
	// shared across views and never mutated after installation;
	// withoutTables copies the maps it changes.
	dead []map[int]struct{}

	// glob[i][local] is the corpus-global number of segment i's table
	// local, or -1 when tombstoned; rev is the inverse.
	glob  [][]int32
	rev   []Loc
	live  map[string]Loc // table ID → location, live tables only
	nDead int
	// nAnnotated counts the live tables with an annotation; resident sums
	// the segments' memory and the view's own numbering arrays.
	nAnnotated int
	resident   searchidx.ResidentBytes
	// subjTypes is the ascending union of the segments' typed-pair subject
	// types. Like the numbering above it is derived in newView, before the
	// view is published, so concurrent queries only ever read it.
	subjTypes []catalog.TypeID
}

// newView derives the global numbering of a manifest. segs and dead must
// be parallel; both are adopted, not copied — callers hand over freshly
// assembled slices.
func newView(cat *catalog.Catalog, gen uint64, segs []*Segment, dead []map[int]struct{}) *View {
	v := &View{cat: cat, gen: gen, segs: segs, dead: dead}
	v.glob = make([][]int32, len(segs))
	v.live = make(map[string]Loc)
	g := int32(0)
	for i, seg := range segs {
		v.subjTypes = append(v.subjTypes, seg.ix.SubjectTypes()...)
		gl := make([]int32, seg.Len())
		for local := range gl {
			if _, isDead := dead[i][local]; isDead {
				gl[local] = -1
				v.nDead++
				continue
			}
			gl[local] = g
			v.rev = append(v.rev, Loc{Seg: i, Table: local})
			if id := seg.ix.TableID(local); id != "" {
				v.live[id] = Loc{Seg: i, Table: local}
			}
			if seg.ix.Annotated(local) {
				v.nAnnotated++
			}
			g++
		}
		v.glob[i] = gl
		v.resident.Add(seg.ix.ResidentBytes())
		v.resident.Tables += int64(len(gl)) * int64(unsafe.Sizeof(gl[0]))
	}
	v.resident.Tables += int64(len(v.rev)) * int64(unsafe.Sizeof(Loc{}))
	slices.Sort(v.subjTypes)
	v.subjTypes = slices.Compact(v.subjTypes)
	return v
}

// withSegment derives the view that appends seg.
func (v *View) withSegment(seg *Segment) *View {
	segs := append(append([]*Segment(nil), v.segs...), seg)
	dead := append(append([]map[int]struct{}(nil), v.dead...), nil)
	return newView(v.cat, v.gen+1, segs, dead)
}

// withoutTables derives the view that tombstones locs.
func (v *View) withoutTables(locs []Loc) *View {
	dead := append([]map[int]struct{}(nil), v.dead...)
	copied := make(map[int]bool)
	for _, l := range locs {
		if !copied[l.Seg] {
			m := make(map[int]struct{}, len(dead[l.Seg])+1)
			for k := range dead[l.Seg] {
				m[k] = struct{}{}
			}
			dead[l.Seg] = m
			copied[l.Seg] = true
		}
		dead[l.Seg][l.Table] = struct{}{}
	}
	return newView(v.cat, v.gen+1, append([]*Segment(nil), v.segs...), dead)
}

// withReplacedRun derives the view where segments [lo, hi] are replaced
// by the single merged segment (which carries no tombstones: merging
// physically drops dead tables).
func (v *View) withReplacedRun(lo, hi int, seg *Segment) *View {
	segs := make([]*Segment, 0, len(v.segs)-(hi-lo))
	dead := make([]map[int]struct{}, 0, cap(segs))
	segs = append(segs, v.segs[:lo]...)
	dead = append(dead, v.dead[:lo]...)
	segs = append(segs, seg)
	dead = append(dead, nil)
	segs = append(segs, v.segs[hi+1:]...)
	dead = append(dead, v.dead[hi+1:]...)
	return newView(v.cat, v.gen+1, segs, dead)
}

// withDroppedSegments derives the view without the fully-dead segments
// listed in drop (ascending).
func (v *View) withDroppedSegments(drop []int) *View {
	skip := make(map[int]struct{}, len(drop))
	for _, i := range drop {
		skip[i] = struct{}{}
	}
	var segs []*Segment
	var dead []map[int]struct{}
	for i, seg := range v.segs {
		if _, s := skip[i]; s {
			continue
		}
		segs = append(segs, seg)
		dead = append(dead, v.dead[i])
	}
	return newView(v.cat, v.gen+1, segs, dead)
}

// Generation returns the view's monotonically increasing corpus
// generation; every successful mutation or compaction bumps it.
func (v *View) Generation() uint64 { return v.gen }

// Tables returns the number of live (non-tombstoned) tables.
func (v *View) Tables() int { return len(v.rev) }

// Segments returns the number of live segments.
func (v *View) Segments() int { return len(v.segs) }

// Tombstones returns the number of removed-but-not-yet-compacted tables.
func (v *View) Tombstones() int { return v.nDead }

// Has reports whether a live table with the given ID exists.
func (v *View) Has(id string) bool {
	_, ok := v.live[id]
	return ok
}

// SegmentAt returns the i'th live segment of the manifest.
func (v *View) SegmentAt(i int) *Segment { return v.segs[i] }

// DeadAt returns segment i's tombstoned local table numbers, sorted.
func (v *View) DeadAt(i int) []int {
	out := make([]int, 0, len(v.dead[i]))
	for local := range v.dead[i] {
		out = append(out, local)
	}
	sort.Ints(out)
	return out
}

// isDead reports whether segment i's local table is tombstoned.
func (v *View) isDead(i, local int) bool {
	_, d := v.dead[i][local]
	return d
}

// Flatten materialises the surviving corpus in global order — the exact
// (tables, annotations) input a from-scratch monolithic index build
// would receive. Annotations is nil when no live table is annotated.
func (v *View) Flatten() ([]*table.Table, []*core.Annotation) {
	tables := make([]*table.Table, len(v.rev))
	var anns []*core.Annotation
	if v.nAnnotated > 0 {
		anns = make([]*core.Annotation, len(v.rev))
	}
	for g, l := range v.rev {
		ix := v.segs[l.Seg].ix
		tables[g] = ix.Table(l.Table)
		if anns != nil {
			anns[g] = ix.Annotation(l.Table)
		}
	}
	return tables, anns
}

// Stats summarizes a view for serving telemetry.
type Stats struct {
	// Tables counts live tables; Annotated counts the live tables with a
	// stored annotation.
	Tables    int
	Annotated int
	// Segments counts live segments; Tombstones counts removed tables
	// not yet reclaimed by compaction.
	Segments   int
	Tombstones int
	// Generation is the corpus generation of this view.
	Generation uint64
}

// Stats returns the view's summary counters, counted when the view was
// built.
func (v *View) Stats() Stats {
	return Stats{
		Tables:     len(v.rev),
		Annotated:  v.nAnnotated,
		Segments:   len(v.segs),
		Tombstones: v.nDead,
		Generation: v.gen,
	}
}

// ResidentBytes returns what the view keeps in memory, by part: the sum
// over its segments (searchidx.ResidentBytes) plus, under Tables, the
// view's own table numbering. Counted when the view was built.
func (v *View) ResidentBytes() searchidx.ResidentBytes { return v.resident }

// --- search.Corpus implementation ---

// Catalog returns the catalog the annotations refer to.
func (v *View) Catalog() *catalog.Catalog { return v.cat }

// Segment returns live segment i as query execution sees it: its
// compiled index and the map from its local table numbers to corpus-
// global ones, -1 for a tombstoned table. Both are shared and
// immutable.
func (v *View) Segment(i int) (*searchidx.Index, []int32) { return v.segs[i].ix, v.glob[i] }

// SubjectTypes returns the ascending union of the live segments'
// typed-pair subject types, derived once when the view was built. The
// slice is shared; callers must not mutate it.
func (v *View) SubjectTypes() []catalog.TypeID { return v.subjTypes }
