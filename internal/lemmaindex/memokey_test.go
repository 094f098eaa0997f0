package lemmaindex_test

import (
	"math"
	"strings"
	"testing"
	"unicode"

	"repro/internal/lemmaindex"
	"repro/internal/text"
)

// noisyVariants spells raw the ways TabEAno's noise classes spell a
// mention: changed case (upper, lower, title), changed spacing (runs of
// blanks, tabs, stripped or padded ends) and punctuation between or
// around the tokens ("A. Einstein", "Einstein,", "-Einstein-").
func noisyVariants(raw string) []string {
	fields := strings.Fields(raw)
	title := make([]string, len(fields))
	for i, f := range fields {
		r := []rune(strings.ToLower(f))
		if len(r) > 0 {
			r[0] = unicode.ToUpper(r[0])
		}
		title[i] = string(r)
	}
	return []string{
		raw,
		strings.ToUpper(raw),
		strings.ToLower(raw),
		strings.Join(title, " "),
		strings.Join(fields, " "),
		"  " + strings.Join(fields, "   ") + "\t",
		strings.Join(fields, "\t"),
		strings.Join(fields, ". "),
		strings.Join(fields, ",") + ",",
		"-" + strings.Join(fields, "-") + "-",
		"(" + strings.Join(fields, " / ") + ")",
		strings.ReplaceAll(raw, " ", "_"),
	}
}

// sameCandidates reports whether two candidate lists agree on every
// entity and on the IEEE bits of every similarity and score.
func sameCandidates(a, b []lemmaindex.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.Entity != y.Entity || bits(x.Score) != bits(y.Score) ||
			bits(x.Sim.Cosine) != bits(y.Sim.Cosine) || bits(x.Sim.Jaccard) != bits(y.Sim.Jaccard) ||
			bits(x.Sim.SoftTFIDF) != bits(y.Sim.SoftTFIDF) || bits(x.Sim.Exact) != bits(y.Sim.Exact) {
			return false
		}
	}
	return true
}

// FuzzCandidatesByNormalizedText: candidate generation is a function of
// a cell's normalised text, which is what lets an annotator memoise it by
// that text. For a raw cell and its variants under case, spacing and
// punctuation noise, any two strings with equal text.Normalize get the
// same candidates from AppendCandidates, entity for entity and bit for
// bit, whether probed in a fresh Probe or in one that probed the other
// spellings just before.
func FuzzCandidatesByNormalizedText(f *testing.F) {
	w, cells, headers := goldenCells(f)
	for _, c := range cells {
		f.Add(c)
	}
	for _, h := range headers {
		f.Add(h)
	}
	for _, seed := range []string{"", " ", "A. Einstein", "ÉMILE zola", "straße", "İstanbul", "ǅemal", "\xff\xfe abc", "R2-D2"} {
		f.Add(seed)
	}
	ix := lemmaindex.Build(w.Public, lemmaindex.DefaultConfig())
	var reused lemmaindex.Probe
	f.Fuzz(func(t *testing.T, raw string) {
		variants := noisyVariants(raw)
		norms := make([]string, len(variants))
		got := make([][]lemmaindex.Candidate, len(variants))
		for i, v := range variants {
			norms[i] = text.Normalize(v)
			got[i] = ix.AppendCandidates(nil, v, &reused)
			if fresh := ix.CandidateEntities(v); !sameCandidates(got[i], fresh) {
				t.Fatalf("%q: a reused Probe gives %v, a fresh one %v", v, got[i], fresh)
			}
		}
		for i := range variants {
			for j := 0; j < i; j++ {
				if norms[i] == norms[j] && !sameCandidates(got[i], got[j]) {
					t.Fatalf("%q and %q both normalise to %q, but get %v and %v",
						variants[j], variants[i], norms[i], got[j], got[i])
				}
			}
		}
	})
}
