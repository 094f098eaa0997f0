package lemmaindex_test

import (
	"maps"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/lemmaindex"
	"repro/internal/text"
)

// pairProfile is the similarity profile computed one (query, lemma) pair
// at a time, as the index did before a probe remembered its token pairs:
// per lemma, a merge-join of the two sorted token lists for the cosine
// and Jaccard, and, unless a lemma matched exactly or the cosine reached
// 0.999, the soft-TFIDF double loop over every token pair. It reads only
// the compiled vectors' exported fields.
func pairProfile(q text.Vector, lemmas []text.Vector, threshold float64) lemmaindex.SimilarityProfile {
	var p lemmaindex.SimilarityProfile
	for _, l := range lemmas {
		cos, j := pairCosineJaccard(q, l)
		p.Cosine, p.Jaccard = max(p.Cosine, cos), max(p.Jaccard, j)
		if l.Text == q.Text && q.Text != "" {
			p.Exact = 1
		}
	}
	if p.Exact == 0 && p.Cosine < 0.999 {
		for _, l := range lemmas {
			if s := pairSoftTFIDF(q, l, threshold); s > p.SoftTFIDF {
				p.SoftTFIDF = s
			}
		}
	} else {
		p.SoftTFIDF = p.Cosine
	}
	return p
}

// pairCosineJaccard merge-joins the sorted token lists of a and b: the
// dot product of the shared tokens' weights, folded in token order, over
// the norms, and the Jaccard overlap of the token sets.
func pairCosineJaccard(a, b text.Vector) (cosine, jaccard float64) {
	var dot float64
	shared := 0
	for i, j := 0, 0; i < len(a.Tokens) && j < len(b.Tokens); {
		switch c := strings.Compare(a.Tokens[i].Text, b.Tokens[j].Text); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			dot += a.Tokens[i].Weight * b.Tokens[j].Weight
			shared++
			i++
			j++
		}
	}
	if a.Norm != 0 && b.Norm != 0 {
		cosine = dot / (a.Norm * b.Norm)
	}
	if union := len(a.Tokens) + len(b.Tokens) - shared; union != 0 {
		jaccard = float64(shared) / float64(union)
	}
	return cosine, jaccard
}

// pairSoftTFIDF is Bilenko et al.'s soft-TFIDF as a double loop over
// every token pair, outer over a's tokens and inner over b's, both in
// token order; the first strictly best match at or above threshold wins.
func pairSoftTFIDF(a, b text.Vector, threshold float64) float64 {
	if a.Norm == 0 || b.Norm == 0 {
		return 0
	}
	var sum float64
	for _, ta := range a.Tokens {
		best, bestSim := 0.0, 0.0
		for _, tb := range b.Tokens {
			sim := pairJaroWinkler([]rune(ta.Text), []rune(tb.Text))
			if sim >= threshold && sim > bestSim {
				bestSim, best = sim, tb.Weight
			}
		}
		if bestSim > 0 {
			sum += ta.Weight * best * bestSim
		}
	}
	return sum / (a.Norm * b.Norm)
}

// pairJaroWinkler is the JaroWinkler similarity (prefix scale 0.1, at
// most 4 prefix runes) spelled out over runes.
func pairJaroWinkler(ra, rb []rune) float64 {
	j := pairJaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func pairJaro(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max(0, max(len(ra), len(rb))/2-1)
	matchA, matchB := make([]bool, len(ra)), make([]bool, len(rb))
	matches := 0
	for i := range ra {
		for j := max(0, i-window); j < min(len(rb), i+window+1); j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i], matchB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions, j := 0, 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-float64(transpositions)/2)/m) / 3
}

// TestProfileMatchesPairReference holds every similarity the index hands
// out to the pair-at-a-time reference, bit for bit: every cell against
// every entity of its pool (with MinScore -Inf and no candidate cap, a
// probe returns its whole pool) through one Probe reused from cell to
// cell, ProfileFor on each of those entities, and every header against
// every type. It runs over the golden cells and headers of both golden
// catalogs at SoftThresholds inside and outside [0, 1], NaN included:
// Build accepts any Config.
func TestProfileMatchesPairReference(t *testing.T) {
	w, cells, headers := goldenCells(t)
	for _, th := range []float64{0, 0.5, 0.9, 1, 1.5, math.NaN()} {
		cfg := lemmaindex.DefaultConfig()
		cfg.MaxCandidates, cfg.MinScore, cfg.SoftThreshold = math.MaxInt32, math.Inf(-1), th
		checkPairReference(t, "world", lemmaindex.Build(w.Public, cfg), cfg, cells, headers)
		checkPairReference(t, "hand", lemmaindex.Build(handCatalog(t), cfg), cfg, handCells(), handHeaders())
	}
}

func checkPairReference(t *testing.T, name string, ix *lemmaindex.Index, cfg lemmaindex.Config, cells, headers []string) {
	t.Helper()
	cat, vs, th := ix.Catalog(), ix.VectorSpace(), cfg.SoftThreshold
	compile := func(lemmas []string) []text.Vector {
		vecs := make([]text.Vector, len(lemmas))
		for i, l := range lemmas {
			vecs[i] = vs.Vectorize(l)
		}
		return vecs
	}
	entities := make([][]text.Vector, cat.NumEntities())
	posted := map[string]map[catalog.EntityID]bool{} // token -> entities with a lemma holding it
	for e := range entities {
		entities[e] = compile(cat.EntityLemmas(catalog.EntityID(e)))
		for _, l := range entities[e] {
			for _, tok := range l.Tokens {
				if posted[tok.Text] == nil {
					posted[tok.Text] = map[catalog.EntityID]bool{}
				}
				posted[tok.Text][catalog.EntityID(e)] = true
			}
		}
	}
	var p lemmaindex.Probe
	var cands []lemmaindex.Candidate
	for _, cell := range cells {
		cands = ix.AppendCandidates(cands[:0], cell, &p)
		q := vs.Vectorize(cell)
		pool := map[catalog.EntityID]bool{}
		for _, tok := range vs.TopTokens(nil, q, cfg.MaxProbeTokens) {
			if len(posted[tok.Text]) <= cfg.MaxPostingLen {
				maps.Copy(pool, posted[tok.Text])
			}
		}
		if len(cands) != len(pool) {
			t.Fatalf("%s: cell %q pools %d entities, the probe returned %d", name, cell, len(pool), len(cands))
		}
		for _, c := range cands {
			want := renderProfile(pairProfile(q, entities[c.Entity], th))
			if got := renderProfile(c.Sim); got != want {
				t.Fatalf("%s, threshold %v: cell %q, entity %d: probe %s, reference %s", name, th, cell, c.Entity, got, want)
			}
			if got := renderProfile(ix.ProfileFor(c.Entity, cell)); got != want {
				t.Fatalf("%s, threshold %v: ProfileFor(%d, %q) = %s, reference %s", name, th, c.Entity, cell, got, want)
			}
		}
	}
	var hq lemmaindex.Query
	for _, h := range headers {
		hv := vs.Vectorize(h)
		ix.Compile(&hq, h)
		for ty := 0; ty < cat.NumTypes(); ty++ {
			want := renderProfile(pairProfile(hv, compile(cat.TypeLemmas(catalog.TypeID(ty))), th))
			if got := renderProfile(ix.TypeHeaderSim(catalog.TypeID(ty), &hq)); got != want {
				t.Fatalf("%s, threshold %v: header %q, type %d: %s, reference %s", name, th, h, ty, got, want)
			}
		}
	}
}
