package text

import (
	"math"
	"math/rand"
	"reflect"
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
// the sorted distinct Tokenize output, and CosineJaccard and SoftTFIDF
// over Vectors equal their map-and-string spellings bit for bit; a
// string compiled into a reused Scratch is the one Vectorize returns.
func TestVectorMatchesStringForms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs := noisyStrings(rng, 200)
	vs := NewVectorSpace()
	for _, d := range docs {
		vs.Add(d)
	}
	var sc Scratch // one Scratch for every doc: nothing may survive from the one before
	for _, d := range docs {
		v := vs.Vectorize(d)
		if in := vs.VectorizeInto(d, &sc); !reflect.DeepEqual(in, v) {
			t.Fatalf("VectorizeInto(%q) = %+v, Vectorize %+v", d, in, v)
		}
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
		cos, jac := CosineJaccard(va, vb)
		if want := Jaccard(a, b); jac != want {
			t.Fatalf("CosineJaccard(%q, %q) Jaccard = %v, want %v", a, b, jac, want)
		}
		wa, wb := Counts(a), Counts(b)
		for _, w := range []map[string]float64{wa, wb} {
			for tok, tf := range w {
				w[tok] = (1 + math.Log(tf)) * vs.IDF(tok)
			}
		}
		if want := CosineCounts(wa, wb); math.Abs(cos-want) > 1e-12 {
			t.Fatalf("CosineJaccard(%q, %q) cosine = %v, want %v", a, b, cos, want)
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

// cosine is the cosine half of CosineJaccard.
func cosine(a, b Vector) float64 {
	c, _ := CosineJaccard(a, b)
	return c
}

// TestSimilaritiesDoNotAllocate: comparing two compiled strings in a
// grown Scorer touches no heap, and neither does compiling a cell into a
// grown Scratch.
func TestSimilaritiesDoNotAllocate(t *testing.T) {
	vs := NewVectorSpace()
	for _, l := range []string{"albert einstein", "alfred einstein", "russell stannard", "uncle albert and the quantum quest"} {
		vs.Add(l)
	}
	a, b := vs.Vectorize("Albert Einstien and the Qauntum Quest"), vs.Vectorize("uncle albert and the quantum quest")
	var sc Scratch
	vs.VectorizeInto("Albert Einstien and the Qauntum Quest", &sc)
	if n := testing.AllocsPerRun(100, func() { vs.VectorizeInto("Albert Einstein and the Quantum Quest", &sc) }); n != 0 {
		t.Errorf("VectorizeInto allocates %v times into a grown Scratch, want 0", n)
	}
	var sink float64
	var scorer Scorer
	score := func() {
		scorer.Reset(a, 0.9)
		cos, jac, soft := scorer.Score(&b)
		sink += cos + jac + soft
	}
	score() // grow
	if n := testing.AllocsPerRun(100, score); n != 0 {
		t.Errorf("a grown Scorer allocates %v times per Reset and Score, want 0", n)
	}
	_ = sink
}

var benchSink float64

// BenchmarkSoftTFIDF measures one cell-vs-lemma comparison over compiled
// vectors (5 × 6 token pairs, two of them near-matches) in a Scorer reset
// each time, so that every pair is computed.
func BenchmarkSoftTFIDF(b *testing.B) {
	vs := NewVectorSpace()
	for _, l := range []string{"albert einstein", "alfred einstein", "russell stannard", "uncle albert and the quantum quest"} {
		vs.Add(l)
	}
	cell, lemma := vs.Vectorize("Albert Einstien and the Qauntum Quest"), vs.Vectorize("uncle albert and the quantum quest")
	var scorer Scorer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scorer.Reset(cell, 0.9)
		_, _, soft := scorer.Score(&lemma)
		benchSink += soft
	}
}

// BenchmarkJaroWinkler measures one token pair over pre-decoded runes,
// the unit soft-TFIDF spends its time in.
func BenchmarkJaroWinkler(b *testing.B) {
	ra, rb := []rune("einstein"), []rune("einstien")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += jaroWinkler(ra, rb)
	}
}

// The string-level measures below are what the compiled ones replaced;
// the tests hold the compiled forms to them.

// Jaro returns the Jaro similarity of a and b in [0,1].
func Jaro(a, b string) float64 { return jaro([]rune(a), []rune(b)) }

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix
// (up to 4 runes) with the standard scaling factor 0.1.
func JaroWinkler(a, b string) float64 { return jaroWinkler([]rune(a), []rune(b)) }

// CosineCounts computes the cosine of two raw term-count maps (no IDF
// weighting). Useful when no corpus statistics are available.
func CosineCounts(a, b map[string]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	// Sorted folds: map order would perturb the low bits.
	var dot, na, nb float64
	for _, t := range sortedKeys(a) {
		wa := a[t]
		na += wa * wa
		if wb, ok := b[t]; ok {
			dot += wa * wb
		}
	}
	for _, t := range sortedKeys(b) {
		nb += b[t] * b[t]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Counts returns the term-frequency map of s.
func Counts(s string) map[string]float64 {
	m := make(map[string]float64)
	for _, t := range Tokenize(s) {
		m[t]++
	}
	return m
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
