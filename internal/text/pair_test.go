package text

import "strings"

// CosineJaccard and SoftTFIDF are the pair-at-a-time measures Scorer
// replaced: each compares one query with one lemma from scratch. They are
// the reference FuzzSoftTFIDF holds Scorer to bit for bit, and are
// themselves held to the string-level references below (Jaccard over
// TokenSet) in vector_test.go.

// Jaccard returns |A∩B| / |A∪B| over the token sets of a and b.
// Returns 0 when both are empty.
func Jaccard(a, b string) float64 {
	return JaccardSets(TokenSet(a), TokenSet(b))
}

// JaccardSets is Jaccard over pre-tokenized sets.
func JaccardSets(sa, sb map[string]struct{}) float64 {
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

// TokenSet returns the set of distinct tokens in s.
func TokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, t := range Tokenize(s) {
		set[t] = struct{}{}
	}
	return set
}

// CosineJaccard merge-joins the sorted token lists of a and b once and
// returns their TF-IDF cosine in [0,1] — the dot product of the shared
// tokens' weights folded in token order, over the norms — and the Jaccard
// overlap |A∩B| / |A∪B| of their token sets, 0 when both are empty.
func CosineJaccard(a, b Vector) (cosine, jaccard float64) {
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

// SoftTFIDF computes the soft-TFIDF similarity of Bilenko et al. between
// two vectors: like TF-IDF cosine, but tokens need not match exactly —
// a pair of tokens whose JaroWinkler similarity reaches threshold
// contributes proportionally. This tolerates the spelling noise in web
// table cells ("A. Einstein" vs "Albert Einstein").
//
// A pair below threshold contributes nothing, so a pair whose
// jaroWinklerBound is below it is skipped without running jaro; the
// result is the one the full double loop computes, bit for bit.
func SoftTFIDF(a, b Vector, threshold float64) float64 {
	if a.Norm == 0 || b.Norm == 0 {
		return 0
	}
	// Both loops run in token order: the outer order fixes the fold,
	// and the inner order fixes which token wins a best-similarity tie.
	var sum float64
	for i := range a.Tokens {
		ta := &a.Tokens[i]
		best, bestSim := 0.0, 0.0
		for j := range b.Tokens {
			tb := &b.Tokens[j]
			if jaroWinklerBound(ta, tb) < threshold-jaroWinklerSlack {
				continue
			}
			sim := jaroWinkler(ta.runes, tb.runes)
			if sim >= threshold && sim > bestSim {
				bestSim = sim
				best = tb.Weight
			}
		}
		if bestSim > 0 {
			sum += ta.Weight * best * bestSim
		}
	}
	return sum / (a.Norm * b.Norm)
}
