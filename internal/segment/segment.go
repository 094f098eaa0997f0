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
//   - a View is an immutable manifest: the ordered live segments, each
//     with the map from its local table numbers to corpus-global ones
//     (tombstoned tables map to -1). Views implement search.Corpus by
//     handing the query engine each segment's compiled index with that
//     map, so the engine walks many segments' posting lists exactly as it
//     walks one monolithic index's. A view finds a table by ID in the
//     segments' own ID indexes, and a new view shares every map its
//     mutation does not renumber;
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
// segments in order, each with its local→global table map. It implements
// search.Corpus with those maps, the global numbers skipping tombstones,
// so rankings and explanations are identical to a monolithic index over
// the surviving tables. A View is safe for concurrent use and never
// changes; mutations produce a new View, which shares every table map
// the mutation does not renumber. A table ID is looked up in the
// segments' own ID indexes, newest first: a view keeps no directory.
type View struct {
	cat *catalog.Catalog
	gen uint64

	segs []*Segment
	// glob[i][local] is the corpus-global number of segment i's table
	// local, or -1 when tombstoned, and dead[i] counts those. A table map
	// is never written once a view holding it is published.
	glob [][]int32
	dead []int
	// The live, tombstoned and annotated live tables' counts, the memory
	// of the segments and table maps, and the ascending union of the
	// segments' typed-pair subject types: all derived before the view is
	// published, so concurrent queries only ever read them.
	tables, nDead, nAnnotated int
	resident                  searchidx.ResidentBytes
	subjTypes                 []catalog.TypeID
}

// next returns a copy of v one generation on, whose manifest slices are
// its own to change; the table maps in them are still v's.
func (v *View) next() *View {
	nv := *v
	nv.gen++
	nv.segs, nv.glob, nv.dead = slices.Clone(v.segs), slices.Clone(v.glob), slices.Clone(v.dead)
	return &nv
}

// push appends seg to the manifest, its tables numbered after every live
// one.
func (v *View) push(seg *Segment) *View {
	gl := make([]int32, seg.Len())
	for local := range gl {
		gl[local] = int32(v.tables + local)
		if seg.ix.Annotated(local) {
			v.nAnnotated++
		}
	}
	v.segs, v.glob, v.dead = append(v.segs, seg), append(v.glob, gl), append(v.dead, 0)
	v.tables += len(gl)
	return v
}

// bury tombstones locs — repeats and tables already dead are ignored —
// and renumbers the live tables of the segments from the first one locs
// names on, in copies of their table maps.
func (v *View) bury(locs []Loc) *View {
	first, g := len(v.segs), int32(0)
	for _, l := range locs {
		first = min(first, l.Seg)
	}
	for i := first; i < len(v.segs); i++ {
		v.glob[i] = slices.Clone(v.glob[i])
	}
	for _, l := range locs {
		if v.glob[l.Seg][l.Table] >= 0 {
			v.glob[l.Seg][l.Table] = -1
			v.dead[l.Seg]++
			if v.segs[l.Seg].ix.Annotated(l.Table) {
				v.nAnnotated--
			}
		}
	}
	for i := range first {
		g += int32(len(v.glob[i]) - v.dead[i])
	}
	for _, gl := range v.glob[first:] {
		for local, n := range gl {
			if n >= 0 {
				gl[local], g = g, g+1
			}
		}
	}
	return v
}

// settle counts what the view reports over its manifest: live tables,
// tombstones, resident bytes and the subject types. It reads per-segment
// totals only, never a table.
func (v *View) settle() *View {
	v.tables, v.nDead, v.resident, v.subjTypes = 0, 0, searchidx.ResidentBytes{}, nil
	for i, seg := range v.segs {
		v.tables += len(v.glob[i]) - v.dead[i]
		v.nDead += v.dead[i]
		v.resident.Add(seg.ix.ResidentBytes())
		v.resident.Tables += int64(len(v.glob[i])) * int64(unsafe.Sizeof(int32(0)))
		v.subjTypes = append(v.subjTypes, seg.ix.SubjectTypes()...)
	}
	slices.Sort(v.subjTypes)
	v.subjTypes = slices.Compact(v.subjTypes)
	return v
}

// withReplacedRun derives the view where segments [lo, hi] are replaced
// by the single merged segment, which holds their live tables in order
// and no tombstone: every table keeps its global number.
func (v *View) withReplacedRun(lo, hi int, seg *Segment) *View {
	nv := v.next()
	gl := make([]int32, 0, seg.Len())
	for _, old := range v.glob[lo : hi+1] {
		for _, g := range old {
			if g >= 0 {
				gl = append(gl, g)
			}
		}
	}
	nv.segs = slices.Replace(nv.segs, lo, hi+1, seg)
	nv.glob = slices.Replace(nv.glob, lo, hi+1, gl)
	nv.dead = slices.Replace(nv.dead, lo, hi+1, 0)
	return nv.settle()
}

// withDroppedSegments derives the view without the fully-dead segments
// listed in drop (ascending); no live table is renumbered.
func (v *View) withDroppedSegments(drop []int) *View {
	nv := v.next()
	for k := len(drop) - 1; k >= 0; k-- {
		i := drop[k]
		nv.segs, nv.glob, nv.dead = slices.Delete(nv.segs, i, i+1), slices.Delete(nv.glob, i, i+1), slices.Delete(nv.dead, i, i+1)
	}
	return nv.settle()
}

// find returns where the live table with the given ID lies: the last of
// them in corpus order, should several share it. The empty ID is never
// live.
func (v *View) find(id string) (Loc, bool) {
	if id == "" {
		return Loc{}, false
	}
	for i := len(v.segs) - 1; i >= 0; i-- {
		locals := v.segs[i].ix.TablesWithID(id)
		for k := len(locals) - 1; k >= 0; k-- {
			if local := int(locals[k]); v.glob[i][local] >= 0 {
				return Loc{Seg: i, Table: local}, true
			}
		}
	}
	return Loc{}, false
}

// Generation returns the view's monotonically increasing corpus
// generation; every successful mutation or compaction bumps it.
func (v *View) Generation() uint64 { return v.gen }

// Tables returns the number of live (non-tombstoned) tables.
func (v *View) Tables() int { return v.tables }

// Segments returns the number of live segments.
func (v *View) Segments() int { return len(v.segs) }

// Tombstones returns the number of removed-but-not-yet-compacted tables.
func (v *View) Tombstones() int { return v.nDead }

// Has reports whether a live table with the given ID exists.
func (v *View) Has(id string) bool {
	_, ok := v.find(id)
	return ok
}

// SegmentAt returns the i'th live segment of the manifest.
func (v *View) SegmentAt(i int) *Segment { return v.segs[i] }

// DeadAt returns segment i's tombstoned local table numbers, sorted.
func (v *View) DeadAt(i int) []int {
	out := make([]int, 0, v.dead[i])
	for local, g := range v.glob[i] {
		if g < 0 {
			out = append(out, local)
		}
	}
	return out
}

// Flatten materialises the surviving corpus in global order — the exact
// (tables, annotations) input a from-scratch monolithic index build
// would receive. Annotations is nil when no live table is annotated.
func (v *View) Flatten() ([]*table.Table, []*core.Annotation) {
	tables := make([]*table.Table, v.tables)
	var anns []*core.Annotation
	if v.nAnnotated > 0 {
		anns = make([]*core.Annotation, v.tables)
	}
	for i, seg := range v.segs {
		for local, g := range v.glob[i] {
			if g < 0 {
				continue
			}
			tables[g] = seg.ix.Table(local)
			if anns != nil {
				anns[g] = seg.ix.Annotation(local)
			}
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
		Tables:     v.tables,
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
