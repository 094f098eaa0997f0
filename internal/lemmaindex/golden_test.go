package lemmaindex_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/lemmaindex"
	"repro/internal/worldgen"
)

var update = flag.Bool("update", false, "rewrite testdata/candidates.golden from the current implementation")

// goldenCells returns the world behind candidates.golden and the distinct
// cell and header strings of its tables, sorted: four clean WikiManual
// tables and seven WebManual tables rendered under NoisyProfile (typos,
// dropped tokens, abbreviations).
func goldenCells(t testing.TB) (w *worldgen.World, cells, headers []string) {
	t.Helper()
	w, err := worldgen.Build(worldgen.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	cellSet, headerSet := map[string]struct{}{}, map[string]struct{}{}
	for _, ds := range []worldgen.Dataset{w.WikiManual(0.1), w.WebManual(0.02)} {
		for _, lt := range ds.Tables {
			for _, h := range lt.Table.Headers {
				headerSet[h] = struct{}{}
			}
			for _, row := range lt.Table.Cells {
				for _, cell := range row {
					cellSet[cell] = struct{}{}
				}
			}
		}
	}
	return w, sortedSet(cellSet), sortedSet(headerSet)
}

func sortedSet(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// handCatalog is a small catalog with the spellings worldgen never
// produces: non-ASCII letters, case that only Unicode folding lowers,
// digits, a lemma repeating a token, and two near-identical surnames.
func handCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	person, err := c.AddType("Person", "people", "personnalité")
	if err != nil {
		t.Fatal(err)
	}
	place, err := c.AddType("Place", "city", "ville", "місто")
	if err != nil {
		t.Fatal(err)
	}
	year, err := c.AddType("Year", "year", "année")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		name   string
		lemmas []string
		ty     catalog.TypeID
	}{
		{"Gabriel García Márquez", []string{"García Márquez", "Gabo", "G. García Márquez"}, person},
		{"Gabriel Garcia", []string{"G. Garcia"}, person},
		{"Björk Guðmundsdóttir", []string{"Björk", "BJÖRK"}, person},
		{"Jon Jonsson", []string{"Jon Jon Jonsson", "J. Jonsson"}, person},
		{"Jon Johnsson", []string{"J. Johnsson"}, person},
		{"İstanbul", []string{"Istanbul", "Constantinople", "ISTANBUL İli"}, place},
		{"北京", []string{"Beijing", "北京 市", "Peking"}, place},
		{"Київ", []string{"Kyiv", "Kiev", "КИЇВ"}, place},
		{"New York City", []string{"New York", "NYC", "New York New York"}, place},
		{"1987", []string{"year 1987", "MCMLXXXVII"}, year},
		{"1988", []string{"year 1988"}, year},
		{"R2D2 Apollo 11", []string{"R2-D2", "Apollo 11"}, place},
	} {
		if _, err := c.AddEntity(e.name, e.lemmas, e.ty); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

// handCells are probed against handCatalog.
func handCells() []string {
	long := strings.TrimSpace(strings.Repeat("Gabriel García Márquez wrote in New York and İstanbul 1987 ", 4)) // 40 tokens
	return []string{
		"",
		"   ",
		"-- ?! … ·",
		"1987",
		"1987 1988",
		"007",
		"Gabriel García Márquez",
		"GABRIEL GARCÍA MÁRQUEZ",
		"gabriel garcia marquez",
		"Gabriel Garcia Marquex",
		"García-Márquez, G.",
		"Gabo",
		"björk",
		"Bjork",
		"BJÖRK GUÐMUNDSDÓTTIR",
		"Bjrök Guðmundsdóttir",
		"Jon Jonsson",
		"Jon Jon",
		"J. Jonson",
		"Jonsson Johnsson",
		"istanbul",
		"İSTANBUL",
		"ISTANBUL",
		"Istanbl",
		"北京",
		"北京市",
		"北京 市",
		"Київ",
		"київ",
		"Kiyv",
		"new york",
		"New  York,  New York!",
		"NewYork",
		"r2d2",
		"R2-D2",
		"Apollo 11",
		"Apolo 11",
		"\xff\xfeGabo\x80",
		long,
	}
}

// handHeaders are compared with handCatalog's type lemmas.
func handHeaders() []string {
	return []string{
		"", "  ", "--", "People", "PEOPLE", "Peopel", "Person", "personnalité", "PERSONNALITÉ",
		"personalite", "Cities", "City", "citty", "city / ville", "МІСТО", "місто", "Year", "Years",
		"année 1987", "Year of the city", "year year year", "Yaer",
	}
}

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func renderProfile(p lemmaindex.SimilarityProfile) string {
	return fmt.Sprintf("cos=%s jac=%s soft=%s exact=%s", bits(p.Cosine), bits(p.Jaccard), bits(p.SoftTFIDF), bits(p.Exact))
}

// renderProbes writes, for every cell, its candidates in rank order
// (entity ID and the IEEE bit patterns of the four similarities and the
// score), then for every header the non-zero TypeHeaderSim profiles over
// all types. ProfileFor — the retrieval-bypassing path training uses —
// must agree bit for bit with every candidate it is asked about; its
// profile of an entity retrieval may have missed (the ID after the top
// candidate's) is written when non-zero.
func renderProbes(t *testing.T, buf *bytes.Buffer, section string, cat *catalog.Catalog, cells, headers []string) {
	ix := lemmaindex.Build(cat, lemmaindex.DefaultConfig())
	fmt.Fprintf(buf, "== %s: %d cells, %d headers\n", section, len(cells), len(headers))
	for _, cell := range cells {
		cands := ix.CandidateEntities(cell)
		fmt.Fprintf(buf, "cell %q n=%d\n", cell, len(cands))
		for _, cd := range cands {
			fmt.Fprintf(buf, " e=%d %s score=%s\n", cd.Entity, renderProfile(cd.Sim), bits(cd.Score))
			if p := ix.ProfileFor(cd.Entity, cell); p != cd.Sim {
				t.Errorf("ProfileFor(%d, %q) = %s, candidate has %s", cd.Entity, cell, renderProfile(p), renderProfile(cd.Sim))
			}
		}
		if len(cands) > 0 {
			e := catalog.EntityID((int(cands[0].Entity) + 1) % cat.NumEntities())
			if p := ix.ProfileFor(e, cell); p != (lemmaindex.SimilarityProfile{}) {
				fmt.Fprintf(buf, " for e=%d %s\n", e, renderProfile(p))
			}
		}
	}
	for _, h := range headers {
		fmt.Fprintf(buf, "header %q\n", h)
		var compiled lemmaindex.Query
		ix.Compile(&compiled, h)
		for ty := 0; ty < cat.NumTypes(); ty++ {
			p := ix.TypeHeaderSim(catalog.TypeID(ty), &compiled)
			if p != (lemmaindex.SimilarityProfile{}) {
				fmt.Fprintf(buf, " t=%d %s\n", ty, renderProfile(p))
			}
		}
	}
}

// TestCandidatesGolden freezes candidate generation: every distinct cell
// and header of the goldenCells tables against the world's public
// catalog, and the hand cases against handCatalog, with similarities as
// IEEE bit patterns. The file was written by the implementation that
// re-tokenised both strings for every lemma; whatever replaces it must
// keep every fold order and tie-break, so the bytes may not change.
func TestCandidatesGolden(t *testing.T) {
	w, cells, headers := goldenCells(t)
	var buf bytes.Buffer
	renderProbes(t, &buf, "world", w.Public, cells, headers)
	renderProbes(t, &buf, "hand", handCatalog(t), handCells(), handHeaders())

	path := filepath.Join("testdata", "candidates.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestCandidatesGolden -update to create it)", err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
