package snapshot

import "fmt"

// Assignment is one shard's slice of a snapshot manifest: a contiguous
// half-open segment range plus the global table numbering it implies.
// Contiguity is load-bearing — corpus order is segment order, so a
// contiguous segment range owns a contiguous range of global table
// numbers, and the distributed merge can replay shards in index order
// to reproduce the single-node scan order.
type Assignment struct {
	// Lo and Hi bound the manifest segments the shard owns: [Lo, Hi).
	Lo, Hi int
	// TableOffset is the number of live tables in all preceding
	// segments — the shard's first global table number.
	TableOffset int
	// Tables is the number of live tables the shard owns.
	Tables int
}

// Segments returns the number of segments assigned.
func (a Assignment) Segments() int { return a.Hi - a.Lo }

// LiveCount returns the segment's live (non-tombstoned) table count —
// the unit of global table numbering, since tombstoned tables are
// skipped when a corpus view numbers its tables.
func (sg *Segment) LiveCount() int { return len(sg.Tables) - len(sg.Dead) }

// SegmentList returns the snapshot's corpus as a segment manifest: the
// segment list verbatim, or the flat corpus as a single anonymous
// segment (exactly how saving and loading treat it). An empty snapshot
// returns nil.
func (s *Snapshot) SegmentList() []Segment {
	if len(s.Segments) > 0 {
		return s.Segments
	}
	if len(s.Tables) == 0 {
		return nil
	}
	return []Segment{{Tables: s.Tables, Anns: s.Anns}}
}

// AssignShards partitions a manifest into shards contiguous segment
// ranges balanced by live-table count. The split is deterministic (a
// pure function of the manifest and the shard count, so every process
// in a cluster derives the same placement): shard s extends while the
// cumulative live-table count is below the quota (s+1)·total/shards,
// and the last shard takes whatever remains. Shards may own zero
// segments when there are more shards than segments — legal, they just
// contribute no evidence. shards must be >= 1.
func AssignShards(segs []Segment, shards int) ([]Assignment, error) {
	live := make([]int, len(segs))
	for i := range segs {
		live[i] = segs[i].LiveCount()
	}
	return assign(live, shards)
}

// AssignShards is the package-level AssignShards over the file's
// manifest: the placement needs each segment's live-table count, which
// the manifest states, and none of its tables.
func (rd *Reader) AssignShards(shards int) ([]Assignment, error) {
	live := make([]int, len(rd.Manifest))
	for i, m := range rd.Manifest {
		live[i] = m.Tables - len(m.Dead)
	}
	return assign(live, shards)
}

// assign splits segments with the given live-table counts.
func assign(live []int, shards int) ([]Assignment, error) {
	if shards < 1 {
		return nil, fmt.Errorf("snapshot: shard count must be >= 1, got %d", shards)
	}
	total := 0
	for _, n := range live {
		total += n
	}
	out := make([]Assignment, shards)
	seg, cum := 0, 0
	for s := 0; s < shards; s++ {
		a := Assignment{Lo: seg, TableOffset: cum}
		quota := ((s + 1) * total) / shards
		for seg < len(live) && (s == shards-1 || cum < quota) {
			cum += live[seg]
			seg++
		}
		a.Hi = seg
		a.Tables = cum - a.TableOffset
		out[s] = a
	}
	return out, nil
}
