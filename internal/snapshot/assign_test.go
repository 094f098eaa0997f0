package snapshot

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/table"
)

// seg builds a manifest segment with n tables of which dead are
// tombstoned.
func seg(t *testing.T, id uint64, n int, dead ...int) Segment {
	t.Helper()
	s := Segment{ID: id, Dead: dead}
	for i := 0; i < n; i++ {
		s.Tables = append(s.Tables, &table.Table{
			ID:      fmt.Sprintf("s%d-t%d", id, i),
			Headers: []string{"A", "B"},
			Cells:   [][]string{{"a", "b"}},
		})
	}
	return s
}

// checkCover asserts the assignments form a contiguous exact cover of
// segments with the given live-table counts, with consistent table
// offsets.
func checkCover(t *testing.T, live []int, asn []Assignment) {
	t.Helper()
	seg, tables := 0, 0
	for i, a := range asn {
		if a.Lo != seg {
			t.Fatalf("shard %d starts at segment %d, want %d", i, a.Lo, seg)
		}
		if a.Hi < a.Lo {
			t.Fatalf("shard %d: inverted range [%d, %d)", i, a.Lo, a.Hi)
		}
		if a.TableOffset != tables {
			t.Fatalf("shard %d: table offset %d, want %d", i, a.TableOffset, tables)
		}
		owned := 0
		for s := a.Lo; s < a.Hi; s++ {
			owned += live[s]
		}
		if a.Tables != owned {
			t.Fatalf("shard %d: %d tables, segments hold %d live", i, a.Tables, owned)
		}
		seg, tables = a.Hi, tables+owned
	}
	if seg != len(live) {
		t.Fatalf("assignments cover %d of %d segments", seg, len(live))
	}
}

func TestAssignShardsUnevenSegments(t *testing.T) {
	live := []int{9, 1, 1, 1, 6, 2}
	for shards := 1; shards <= 8; shards++ {
		asn, err := assign(live, shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(asn) != shards {
			t.Fatalf("%d shards: got %d assignments", shards, len(asn))
		}
		checkCover(t, live, asn)
	}
}

func TestAssignShardsTombstoneHeavy(t *testing.T) {
	// Live counts 1, 0, 4, 0: balancing must follow live tables, not raw
	// segment sizes, and fully-dead segments still belong to exactly one
	// shard.
	live := []int{5 - 4, 3 - 3, 4, 2 - 2}
	asn, err := assign(live, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, live, asn)
	if got := asn[0].Tables + asn[1].Tables; got != 5 {
		t.Fatalf("total live tables %d, want 5", got)
	}
}

func TestAssignShardsSingleShardDegenerate(t *testing.T) {
	asn, err := assign([]int{3, 2 - 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Assignment{Lo: 0, Hi: 2, TableOffset: 0, Tables: 4}
	if asn[0] != want {
		t.Fatalf("single shard: %+v, want %+v", asn[0], want)
	}
}

func TestAssignShardsMoreShardsThanSegments(t *testing.T) {
	live := []int{2, 2}
	asn, err := assign(live, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, live, asn)
	empty := 0
	for _, a := range asn {
		if a.Segments() == 0 {
			empty++
		}
	}
	if empty != 3 {
		t.Fatalf("%d empty shards, want 3", empty)
	}
}

func TestAssignShardsRejectsBadCount(t *testing.T) {
	if _, err := assign(nil, 0); err == nil {
		t.Fatal("shards=0 accepted")
	}
	if _, err := assign(nil, -2); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestAssignShardsSnapshotRoundTrip is the manifest → assignment
// round trip: the placement a reader derives from a saved file is the
// one the saved segments' live counts give, so every process reading
// the same file agrees.
func TestAssignShardsSnapshotRoundTrip(t *testing.T) {
	snap := &Snapshot{
		Segments: []Segment{
			seg(t, 7, 4, 1), seg(t, 9, 1), seg(t, 12, 6, 0, 5), seg(t, 13, 2),
		},
		Generation: 17,
	}
	live := []int{4 - 1, 1, 6 - 2, 2}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	for shards := 1; shards <= 4; shards++ {
		want, err := assign(live, shards)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(context.Background(), bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := rd.AssignShards(shards)
		rd.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: shard %d placement diverges after reload: %+v vs %+v",
					shards, i, got[i], want[i])
			}
		}
		checkCover(t, live, got)
	}
}

// TestSegmentListFlat checks the v1 flat corpus maps to a single
// anonymous segment, matching how loading materializes it.
func TestSegmentListFlat(t *testing.T) {
	flat := &Snapshot{Tables: seg(t, 0, 3).Tables}
	list := flat.SegmentList()
	if len(list) != 1 || len(list[0].Tables) != 3 || len(list[0].Dead) != 0 {
		t.Fatalf("flat SegmentList = %+v", list)
	}
	if (&Snapshot{}).SegmentList() != nil {
		t.Fatal("empty snapshot: SegmentList should be nil")
	}
}
