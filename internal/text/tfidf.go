package text

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// VectorSpace accumulates document-frequency statistics over a corpus of
// short strings (catalog lemmas, in the annotator's case) and converts
// strings into sparse TF-IDF vectors. It implements the "standard TFIDF
// cosine similarity" the paper uses in §4.2.1/§4.2.2 [Salton & McGill].
//
// The zero value is not ready for use; call NewVectorSpace.
type VectorSpace struct {
	vocab map[string]term // token -> its statistics
	docs  int             // total documents
}

// term is a token's document frequency and its ID: the vocabulary is
// numbered from 1 in order of first sight.
type term struct{ df, id int32 }

// NewVectorSpace returns an empty vector space.
func NewVectorSpace() *VectorSpace {
	return &VectorSpace{vocab: make(map[string]term)}
}

// Add registers one document (e.g. one lemma) with the corpus statistics.
func (v *VectorSpace) Add(doc string) {
	v.docs++
	for _, t := range tokenize(Normalize(doc), make([]Token, 0, 8)) {
		tm := v.vocab[t.Text]
		v.vocab[t.Text] = term{df: tm.df + 1, id: cmp.Or(tm.id, int32(len(v.vocab))+1)}
	}
}

// Docs reports the number of documents added.
func (v *VectorSpace) Docs() int { return v.docs }

// Terms reports the number of distinct tokens added: their IDs (Token.ID)
// run from 1 to Terms.
func (v *VectorSpace) Terms() int { return len(v.vocab) }

// IDF returns the smoothed inverse document frequency
// log(1 + N/(1+df)). Tokens never seen get the maximum IDF.
func (v *VectorSpace) IDF(token string) float64 { return v.idf(v.vocab[token].df) }

func (v *VectorSpace) idf(df int32) float64 {
	if v.docs == 0 {
		return 0
	}
	return math.Log(1 + float64(v.docs)/float64(1+int(df)))
}

// Token is one distinct token of a compiled string.
type Token struct {
	Text   string
	Weight float64 // TF-IDF weight under the compiling VectorSpace
	runes  []rune  // Text decoded, for the edit similarities
	sig    uint64  // bit r%64 set for every rune r of Text
	id     int32   // Text's ID in the compiling VectorSpace; 0 if it has none
}

// ID returns the token's ID in the VectorSpace that compiled it, 0 for a
// token no document added to it had.
func (t *Token) ID() int32 { return t.id }

// Vector is a string compiled for comparison (see the package comment):
// a sparse TF-IDF vector whose tokens are kept sorted, with a precomputed
// L2 norm. The zero value is the compiled form of a string without
// tokens.
type Vector struct {
	// Text is the Normalize'd spelling of the source string.
	Text string
	// Tokens holds the distinct tokens in ascending order of Text.
	Tokens []Token
	// Norm is the L2 norm of the token weights, folded in token order.
	Norm float64
}

// tokenize appends to toks[:0] the distinct tokens of a normalized
// spelling in ascending order, each Weight holding the token's occurrence
// count. The tokens are substrings of norm.
func tokenize(norm string, toks []Token) []Token {
	toks = toks[:0]
	for rest := norm; rest != ""; {
		tok, tail, _ := strings.Cut(rest, " ")
		toks = append(toks, Token{Text: tok, Weight: 1})
		rest = tail
	}
	slices.SortFunc(toks, func(a, b Token) int { return strings.Compare(a.Text, b.Text) })
	distinct := toks[:min(len(toks), 1)]
	for _, t := range toks[min(len(toks), 1):] {
		if last := &distinct[len(distinct)-1]; last.Text == t.Text {
			last.Weight++
		} else {
			distinct = append(distinct, t)
		}
	}
	return distinct
}

// Vectorize compiles s into a TF-IDF vector under the corpus statistics.
func (v *VectorSpace) Vectorize(s string) Vector { return v.VectorizeInto(s, &Scratch{}) }

// Scratch is memory VectorizeInto compiles into, so that compiling one
// cell after another allocates nothing once it has grown.
type Scratch struct {
	text  []byte
	toks  []Token
	runes []rune
}

// VectorizeInto is Vectorize compiling into sc: the Vector's spelling,
// tokens and runes are valid until sc is used again.
func (v *VectorSpace) VectorizeInto(s string, sc *Scratch) Vector {
	var n int
	if sc.text, n = appendNormalized(slices.Grow(sc.text[:0], len(s)), s); n == 0 {
		return Vector{}
	}
	norm := unsafe.String(unsafe.SliceData(sc.text), len(sc.text))
	toks := tokenize(norm, slices.Grow(sc.toks[:0], n))
	// One backing array holds the runes of every token.
	runes := slices.Grow(sc.runes[:0], utf8.RuneCountInString(norm)-(len(toks)-1))
	var sq float64
	for i := range toks {
		t := &toks[i]
		start := len(runes)
		for _, r := range t.Text {
			runes = append(runes, r)
		}
		t.runes = runes[start:len(runes):len(runes)]
		t.sig = runeSignature(t.runes)
		tm := v.vocab[t.Text]
		t.id = tm.id
		// Sub-linear TF damping, standard in IR.
		t.Weight = (1 + math.Log(t.Weight)) * v.idf(tm.df)
		sq += t.Weight * t.Weight
	}
	sc.toks, sc.runes = toks, runes
	return Vector{Text: norm, Tokens: toks, Norm: math.Sqrt(sq)}
}

// runeSignature folds a token's runes into 64 bits, one per residue mod
// 64. Two tokens can only share a rune whose bit both signatures carry.
func runeSignature(runes []rune) uint64 {
	var sig uint64
	for _, r := range runes {
		sig |= 1 << (uint32(r) % 64)
	}
	return sig
}

// jaroWinklerSlack is how far below the threshold jaroWinklerBound must
// fall before a Scorer trusts it. The bound and the similarity are
// each a handful of correctly rounded operations on values in [0,1], so
// they carry errors near 1e-16; the bound only ever rejects pairs that
// miss the threshold by far more than this.
const jaroWinklerSlack = 1e-9

// jaroWinklerBound returns an upper bound on jaroWinkler(a.runes,
// b.runes) from what is known without matching runes: the two lengths,
// the common prefix, and the signatures. Jaro matches pair equal runes,
// so a rune whose signature bit the other token lacks stays unmatched,
// and each such bit stands for at least one rune; the bound is the
// similarity those many matches would score with no transposition.
func jaroWinklerBound(a, b *Token) float64 {
	la, lb := len(a.runes), len(b.runes)
	if la == 0 || lb == 0 {
		return 1 // jaro's empty-token cases; nothing to bound
	}
	m := min(la-bits.OnesCount64(a.sig&^b.sig), lb-bits.OnesCount64(b.sig&^a.sig))
	if m <= 0 {
		return 0
	}
	j := float64(m*(la+lb)+la*lb) / float64(3*la*lb) // (m/la + m/lb + 1) / 3
	return j + float64(commonPrefix(a.runes, b.runes))*0.1*(1-j)
}

// TopTokens appends to dst the n highest-IDF (rarest) tokens of q under
// the corpus statistics, most discriminative first, ties in ascending
// order of Text. Candidate generation uses this to probe the lemma index
// with informative tokens only.
func (v *VectorSpace) TopTokens(dst []Token, q Vector, n int) []Token {
	type tw struct {
		i   int // q.Tokens ascend by Text, so the index breaks ties as Text does
		idf float64
	}
	var stack [16]tw
	all := stack[:0]
	for i := range q.Tokens {
		all = append(all, tw{i, v.IDF(q.Tokens[i].Text)})
	}
	slices.SortFunc(all, func(a, b tw) int {
		return cmp.Or(cmp.Compare(b.idf, a.idf), cmp.Compare(a.i, b.i))
	})
	n = max(0, min(n, len(all)))
	dst = slices.Grow(dst, n)
	for _, t := range all[:n] {
		dst = append(dst, q.Tokens[t.i])
	}
	return dst
}
