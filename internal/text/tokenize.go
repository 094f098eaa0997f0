// Package text provides tokenization and string-similarity primitives used
// throughout the table annotator: TF-IDF cosine similarity over a lemma
// corpus, Jaccard set overlap, Jaro-Winkler edit similarity, and the
// soft-TFIDF hybrid of Bilenko et al. that the paper cites for
// cell-text/lemma matching (§4.2.1).
//
// # The compiled form
//
// Matching one cell against the catalog compares one string with
// hundreds of lemmas under four measures, so the similarity code never
// works on raw strings. VectorSpace.Vectorize compiles a string once
// into a Vector — its canonical spelling, its distinct tokens in
// ascending order with their TF-IDF weights and decoded runes, and the
// L2 norm — and a Scorer only reads Vectors. A lemma is compiled when
// its index is built, a cell when it is probed; nothing is tokenised,
// lower-cased, sorted or decoded per comparison.
//
// Keeping the tokens sorted is also what keeps every score reproducible
// to the last bit. Floating-point addition is not associative, so a dot
// product or a norm is only well defined once the order of its terms is:
// here that order is ascending token order, everywhere. A walk over one
// sorted token list meets the tokens it shares with another in exactly
// that order, so it folds the same sum a merge-join or a sorted walk over
// a hash map would; soft-TFIDF's double loop (outer: the query's tokens,
// inner: the lemma's, first strictly better match wins) fixes both its
// fold and its tie-break the same way.
// Rankings, pagination cursors and the golden files under testdata/
// compare these bits exactly.
package text

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// foldRune is the tokenization rule: letters and digits belong to tokens
// and are lower-cased; every other rune separates tokens.
func foldRune(r rune) (rune, bool) {
	if unicode.IsLetter(r) || unicode.IsDigit(r) {
		return unicode.ToLower(r), true
	}
	return 0, false
}

// Tokenize lowercases s and splits it into maximal runs of letters or
// digits. Punctuation, whitespace and symbols act as separators. A run that
// mixes letters and digits (e.g. "b12") is kept as a single token, matching
// how cell strings such as "Apollo 11" or "R2D2" should be indexed.
func Tokenize(s string) []string {
	if s == "" {
		return nil
	}
	toks := make([]string, 0, 8)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			toks = append(toks, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if lr, ok := foldRune(r); ok {
			b.WriteRune(lr)
		} else {
			flush()
		}
	}
	flush()
	if len(toks) == 0 {
		return nil
	}
	return toks
}

// Normalize returns the canonical single-string form of s: its tokens
// joined by single spaces. Two strings with the same Normalize value are
// considered lexically identical by the exact-match feature.
func Normalize(s string) string {
	var stack [64]byte
	norm, _ := appendNormalized(stack[:0], s)
	return string(norm)
}

// AppendNormalized appends Normalize(s) to buf, allocating nothing once
// buf has grown: the key a memo over normalised texts looks s up by.
func AppendNormalized(buf []byte, s string) []byte {
	norm, _ := appendNormalized(buf, s)
	return norm
}

// appendNormalized appends Normalize(s) to buf in one pass, also counting
// the tokens.
func appendNormalized(buf []byte, s string) (norm []byte, tokens int) {
	inToken := false
	for _, r := range s {
		lr, ok := foldRune(r)
		if !ok {
			inToken = false
			continue
		}
		if !inToken {
			if tokens > 0 {
				buf = append(buf, ' ')
			}
			tokens++
			inToken = true
		}
		buf = utf8.AppendRune(buf, lr)
	}
	return buf, tokens
}
