package text

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// referenceSoftTFIDF is soft-TFIDF spelled on raw strings the way the
// package computed it before strings were compiled: tokenise and count
// both sides, weigh and fold in sorted-key order, compare every token
// pair with the string JaroWinkler. SoftTFIDF over Vectors must agree
// with it bit for bit.
func referenceSoftTFIDF(v *VectorSpace, a, b string, threshold float64) float64 {
	weigh := func(s string) (map[string]float64, float64) {
		w := Counts(s)
		var sq float64
		for _, t := range sortedKeys(w) {
			w[t] = (1 + math.Log(w[t])) * v.IDF(t)
			sq += w[t] * w[t]
		}
		return w, math.Sqrt(sq)
	}
	wa, na := weigh(a)
	wb, nb := weigh(b)
	if na == 0 || nb == 0 {
		return 0
	}
	var sum float64
	for _, ta := range sortedKeys(wa) {
		best, bestSim := 0.0, 0.0
		for _, tb := range sortedKeys(wb) {
			if sim := JaroWinkler(ta, tb); sim >= threshold && sim > bestSim {
				bestSim, best = sim, wb[tb]
			}
		}
		if bestSim > 0 {
			sum += wa[ta] * best * bestSim
		}
	}
	return sum / (na * nb)
}

// noisyStrings draws short strings over a small vocabulary with case
// changes, punctuation, repeated tokens, typos and non-ASCII letters.
func noisyStrings(rng *rand.Rand, n int) []string {
	vocab := []string{"albert", "einstein", "einstien", "alfred", "stannard", "russell", "quantum", "quest",
		"garcía", "garcia", "márquez", "İstanbul", "istanbul", "北京", "r2d2", "1987", "the", "of", "a"}
	seps := []string{" ", "  ", ", ", "-", ". ", "/"}
	out := make([]string, n)
	for i := range out {
		var sb strings.Builder
		for k := rng.Intn(6); k > 0; k-- {
			w := vocab[rng.Intn(len(vocab))]
			if rng.Intn(4) == 0 {
				w = strings.ToUpper(w)
			}
			sb.WriteString(w + seps[rng.Intn(len(seps))])
		}
		out[i] = sb.String()
	}
	return out
}

// TestVectorMatchesStringForms pins the compiled form to the string
// primitives it replaces on the hot path: Text is Normalize, Tokens are
// the sorted distinct Tokenize output, and Cosine, JaccardVectors and
// SoftTFIDF over Vectors equal their map-and-string spellings bit for
// bit.
func TestVectorMatchesStringForms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs := noisyStrings(rng, 200)
	vs := NewVectorSpace()
	for _, d := range docs {
		vs.Add(d)
	}
	for _, d := range docs {
		v := vs.Vectorize(d)
		if v.Text != strings.Join(Tokenize(d), " ") {
			t.Fatalf("Vectorize(%q).Text = %q, want %q", d, v.Text, strings.Join(Tokenize(d), " "))
		}
		want := make([]string, 0, len(v.Tokens))
		for tok := range TokenSet(d) {
			want = append(want, tok)
		}
		sort.Strings(want)
		if len(want) != len(v.Tokens) {
			t.Fatalf("Vectorize(%q) has %d tokens, want %v", d, len(v.Tokens), want)
		}
		for i, tok := range v.Tokens {
			if tok.Text != want[i] || string(tok.runes) != want[i] {
				t.Fatalf("Vectorize(%q).Tokens[%d] = %q (runes %q), want %q", d, i, tok.Text, string(tok.runes), want[i])
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := docs[rng.Intn(len(docs))], docs[rng.Intn(len(docs))]
		va, vb := vs.Vectorize(a), vs.Vectorize(b)
		if got, want := JaccardVectors(va, vb), Jaccard(a, b); got != want {
			t.Fatalf("JaccardVectors(%q, %q) = %v, want %v", a, b, got, want)
		}
		wa, wb := Counts(a), Counts(b)
		for _, w := range []map[string]float64{wa, wb} {
			for tok, tf := range w {
				w[tok] = (1 + math.Log(tf)) * vs.IDF(tok)
			}
		}
		if got, want := Cosine(va, vb), CosineCounts(wa, wb); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Cosine(%q, %q) = %v, want %v", a, b, got, want)
		}
		if got, want := SoftTFIDF(va, vb, 0.9), referenceSoftTFIDF(vs, a, b, 0.9); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SoftTFIDF(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
}

// referenceJaro is Jaro with freshly allocated match flags, as it was
// before the flags moved to the stack.
func referenceJaro(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max(len(ra), len(rb))/2 - 1
	if window < 0 {
		window = 0
	}
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

// TestJaroStackAndHeapFlags: tokens up to jaroStackRunes keep their match
// flags on the stack, longer ones on the heap; both must score exactly
// like the reference, including pairs that straddle the boundary.
func TestJaroStackAndHeapFlags(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	token := func(n int) []rune {
		r := make([]rune, n)
		for i := range r {
			r[i] = rune('a' + rng.Intn(5))
		}
		return r
	}
	lengths := []int{0, 1, 2, 7, jaroStackRunes - 1, jaroStackRunes, jaroStackRunes + 1, 3 * jaroStackRunes}
	for trial := 0; trial < 2000; trial++ {
		ra, rb := token(lengths[rng.Intn(len(lengths))]), token(lengths[rng.Intn(len(lengths))])
		if rng.Intn(3) == 0 && len(ra) > 0 { // a near-duplicate: one substitution
			rb = append([]rune(nil), ra...)
			rb[rng.Intn(len(rb))] = 'z'
		}
		if got, want := jaro(ra, rb), referenceJaro(ra, rb); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("jaro(%q, %q) = %v, want %v", string(ra), string(rb), got, want)
		}
	}
}

// TestSimilaritiesDoNotAllocate: comparing two compiled strings touches
// no heap, whichever measure.
func TestSimilaritiesDoNotAllocate(t *testing.T) {
	vs := NewVectorSpace()
	for _, l := range []string{"albert einstein", "alfred einstein", "russell stannard", "uncle albert and the quantum quest"} {
		vs.Add(l)
	}
	a, b := vs.Vectorize("Albert Einstien and the Qauntum Quest"), vs.Vectorize("uncle albert and the quantum quest")
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += Cosine(a, b) + JaccardVectors(a, b) + SoftTFIDF(a, b, 0.9)
	}); n != 0 {
		t.Errorf("Cosine+JaccardVectors+SoftTFIDF allocate %v times per comparison, want 0", n)
	}
	_ = sink
}

var benchSink float64

// BenchmarkSoftTFIDF measures one cell-vs-lemma soft-TFIDF over compiled
// vectors (5 × 6 token pairs, two of them near-matches).
func BenchmarkSoftTFIDF(b *testing.B) {
	vs := NewVectorSpace()
	for _, l := range []string{"albert einstein", "alfred einstein", "russell stannard", "uncle albert and the quantum quest"} {
		vs.Add(l)
	}
	cell, lemma := vs.Vectorize("Albert Einstien and the Qauntum Quest"), vs.Vectorize("uncle albert and the quantum quest")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += SoftTFIDF(cell, lemma, 0.9)
	}
}

// BenchmarkJaroWinkler measures one token pair over pre-decoded runes,
// the unit SoftTFIDF spends its time in.
func BenchmarkJaroWinkler(b *testing.B) {
	ra, rb := []rune("einstein"), []rune("einstien")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += jaroWinkler(ra, rb)
	}
}
