package searchidx

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/table"
	"repro/internal/text"
)

// oracleMatch is the reference verdict of the E2 text probe against one
// cell: 1 for equal normalized spellings, the token-set Jaccard when it
// reaches 0.5, else 0; an empty spelling on either side never matches.
// It is the query processor's map-based matcher (queryMatcher.match over
// text.JaccardSets, whose copy is below) frozen verbatim, and it stays
// map-based on purpose: whatever the index does to answer the same
// question must agree with it bit for bit (TestMatchOracle,
// FuzzCompiledMatch).
func oracleMatch(query, cell string) float64 {
	qNorm, cNorm := text.Normalize(query), text.Normalize(cell)
	if qNorm == "" || cNorm == "" {
		return 0
	}
	if qNorm == cNorm {
		return 1
	}
	if j := jaccardSets(tokenSet(query), tokenSet(cell)); j >= 0.5 {
		return j
	}
	return 0
}

// tokenSet returns the set of distinct tokens in s.
func tokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, t := range text.Tokenize(s) {
		set[t] = struct{}{}
	}
	return set
}

// jaccardSets is |A∩B| / |A∪B| over token sets, 0 when both are empty.
func jaccardSets(sa, sb map[string]struct{}) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 0
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// oneCellIndex indexes a single unannotated one-cell table.
func oneCellIndex(t testing.TB, cell string) *Index {
	t.Helper()
	c := catalog.New()
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return New(c, []*table.Table{{ID: "one", Cells: [][]string{{cell}}}}, nil)
}

// cellVerdict is the index's answer for the only cell of a oneCellIndex:
// the query compiled against the segment, looked up under the cell's
// raw-spelling ID.
func cellVerdict(ix *Index, query string) float64 { return verdict(ix, query, 0, 0, 0) }

// matchCases pins the matcher's verdicts as IEEE bit patterns: the
// thresholds, both lookups (spelling, token overlap) and the inputs a
// tokenizer gets wrong first.
var matchCases = []struct {
	query, cell string
	bits        uint64
}{
	{"", "", 0},
	{"", "Solo Auteur", 0},
	{"Solo Auteur", "", 0},
	{"!!! ---", "!!! ---", 0}, // punctuation only: no spelling, no tokens
	{"?", "Solo Auteur", 0},
	{"Solo Auteur", "  solo   AUTEUR!", 0x3ff0000000000000},  // equal spelling
	{"Solo Auteur", "Auteur Solo", 0x3ff0000000000000},       // equal token sets, different spelling
	{"solo solo auteur", "Auteur, Solo", 0x3ff0000000000000}, // repeated tokens count once
	{"Solo Auteur", "Solo", 0x3fe0000000000000},              // 1/2: exactly the threshold
	{"Solo", "Solo Auteur", 0x3fe0000000000000},
	{"a b c", "a b d e", 0},                                                              // 2/5
	{"a b c d", "a b c e f", 0x3fe0000000000000},                                         // 3/6
	{"Solo Auteur Grand Prix", "Solo Auteur Grand Gala", 0x3fe3333333333333},             // 3/5
	{"Solo Auteur Grand Prix", "Grand Prix Solo", 0x3fe8000000000000},                    // 3/4
	{"Solo Auteur Grand Prix", "Solo Auteur Grand Prix Winner", 0x3fe999999999999a},      // 4/5
	{"Solo Auteur Grand Prix", "Solo Auteur Grand Prix Gala Winner", 0x3fe5555555555555}, // 4/6
	{"Solo Auteur", "Unrelated Person", 0},
	{"Ünïcödé Straße 42", "ünïcödé STRASSE 42", 0x3fe0000000000000}, // ß does not fold to ss: 2/4
	{"R2D2", "r2d2", 0x3ff0000000000000},
	{"Apollo 11", "Apollo-11", 0x3ff0000000000000},
	{"caf\xe9 noir", "café noir", 0}, // an invalid byte ends the token: {caf, noir} vs {café, noir} is 1/3
	{"\xff\xfe", "\xff\xfe", 0},
	{"a\xffb", "a b", 0x3ff0000000000000}, // an invalid byte separates tokens like punctuation
	{forty(0), forty(0), 0x3ff0000000000000},
	{forty(0), forty(20), 0},                  // 20 shared of 60
	{forty(0), forty(10), 0x3fe3333333333333}, // 30 shared of 50
}

// forty returns 40 distinct tokens, numbered from off.
func forty(off int) string {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "tok%d ", off+i)
	}
	return sb.String()
}

// TestMatchOracle holds the index's per-cell match verdict to the
// reference matcher and to the pinned bit patterns, over a one-cell
// index per case.
func TestMatchOracle(t *testing.T) {
	for _, tc := range matchCases {
		want := oracleMatch(tc.query, tc.cell)
		if math.Float64bits(want) != tc.bits {
			t.Errorf("oracleMatch(%q, %q) = %v (%016x), pinned %016x", tc.query, tc.cell, want, math.Float64bits(want), tc.bits)
		}
		if got := cellVerdict(oneCellIndex(t, tc.cell), tc.query); math.Float64bits(got) != tc.bits {
			t.Errorf("index verdict(%q, %q) = %v (%016x), want %016x", tc.query, tc.cell, got, math.Float64bits(got), tc.bits)
		}
	}
}

// FuzzCompiledMatch: for any query and cell, the compiled match set's
// verdict equals the reference matcher's bit for bit — on a one-cell
// segment, and on a segment where the cell shares its dictionaries with
// a few fixed neighbours and with case, spacing and punctuation variants
// of itself (one text with several raw spellings), each of which must
// keep its own verdict too.
func FuzzCompiledMatch(f *testing.F) {
	for _, tc := range matchCases {
		f.Add(tc.query, tc.cell)
	}
	c := catalog.New()
	if err := c.Freeze(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, query, cell string) {
		want := oracleMatch(query, cell)
		if got := cellVerdict(oneCellIndex(t, cell), query); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("one-cell verdict(%q, %q) = %v, oracle %v", query, cell, got, want)
		}
		cells := []string{"Solo Auteur", cell, "", "auteur solo grand prix", cell + " solo", "!?",
			strings.ToUpper(cell), "  " + strings.ToLower(cell) + " ", cell + "?!", strings.ReplaceAll(cell, " ", " -  ")}
		rows := make([][]string, len(cells))
		for i, s := range cells {
			rows[i] = []string{s}
		}
		ix := New(c, []*table.Table{{ID: "many", Cells: rows}}, nil)
		p := NewProbe(query)
		m := ix.Compile(&p)
		raws, _ := ix.Column(0, 0)
		for i, s := range cells {
			if got, want := m.Lookup(raws[i]), oracleMatch(query, s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("verdict(%q, %q) beside %q = %v, oracle %v", query, s, cells, got, want)
			}
		}
	})
}
