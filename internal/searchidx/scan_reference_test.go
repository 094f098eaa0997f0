package searchidx

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
)

// scanColumnReference is ScanColumn one row at a time, with the probe's
// matching spellings in a map: no mask, no MatchSet, no shared loop.
func scanColumnReference(base int, texts []uint32, ents []catalog.EntityID, e2 catalog.EntityID, evidence map[uint32]float64) []RowHit {
	var out []RowHit
	for r, id := range texts {
		var ev float64
		switch {
		case e2 == catalog.None, ents[r] == catalog.None:
			ev = evidence[id]
		case ents[r] == e2:
			ev = 1.5
		}
		if ev > 0 {
			out = append(out, RowHit{Row: int32(base + r), Evidence: ev})
		}
	}
	return out
}

// TestScanColumnMatchesReference holds the row loop to a one-row-at-a-time
// reference: same rows, same order, same evidence bits. Column lengths
// run through 0–17 and 63–65 (either side of anything a loop might be
// unrolled or masked by), the slice starts at row 0 and at a later row,
// e2 is None, an entity in the column and one absent from it, and the
// cells rotate through every kind the loop tells apart: annotated with
// e2 (over a matching and a non-matching text), annotated with another
// entity over a matching text, and unannotated over a matching text, a
// second matching text of other evidence, a text that collides with a
// match in the mask without being one, and a text outside the mask —
// against a compiled set of two texts and against the empty set.
func TestScanColumnMatchesReference(t *testing.T) {
	const (
		inColumn, other, absent = catalog.EntityID(7), catalog.EntityID(8), catalog.EntityID(9)
		whole, partial          = uint32(3), uint32(70)
		collides, outside       = uint32(3 + 64), uint32(5)
	)
	kinds := []struct {
		text uint32
		ent  catalog.EntityID
	}{
		{whole, inColumn}, {outside, inColumn}, {whole, other},
		{whole, catalog.None}, {partial, catalog.None}, {collides, catalog.None}, {outside, catalog.None},
	}
	sets := []struct {
		name     string
		m        MatchSet
		evidence map[uint32]float64
	}{
		{"empty", MatchSet{}, nil},
		{"two texts", MatchSet{
			mask: 1<<(whole%64) | 1<<(partial%64),
			raws: []rawMatch{{whole, 1}, {partial, 0.6}},
		}, map[uint32]float64{whole: 1, partial: 0.6}},
	}
	lengths := []int{63, 64, 65}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, set := range sets {
		for _, n := range lengths {
			for rot := range kinds {
				texts, ents := make([]uint32, n), make([]catalog.EntityID, n)
				for r := range texts {
					k := kinds[(r+rot)%len(kinds)]
					texts[r], ents[r] = k.text, k.ent
				}
				for _, base := range []int{0, 1024} {
					for _, e2 := range []catalog.EntityID{catalog.None, inColumn, absent} {
						got := ScanColumn(nil, base, texts, ents, e2, &set.m)
						want := scanColumnReference(base, texts, ents, e2, set.evidence)
						if err := sameHits(got, want); err != nil {
							t.Fatalf("%s, %d rows rotated %d, base %d, e2 %d: %v\n got  %v\n want %v",
								set.name, n, rot, base, e2, err, got, want)
						}
					}
				}
			}
		}
	}
}

// sameHits compares two hit lists row for row, evidence by its bits.
func sameHits(got, want []RowHit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Row != want[i].Row || math.Float64bits(got[i].Evidence) != math.Float64bits(want[i].Evidence) {
			return fmt.Errorf("hit %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
