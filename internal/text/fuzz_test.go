package text

import (
	"bufio"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// unboundedSoftTFIDF is SoftTFIDF as it stood before token pairs were
// rejected by jaroWinklerBound: every pair goes through jaroWinkler. It
// is kept as the reference FuzzSoftTFIDF holds SoftTFIDF to.
func unboundedSoftTFIDF(a, b Vector, threshold float64) float64 {
	if a.Norm == 0 || b.Norm == 0 {
		return 0
	}
	var sum float64
	for i := range a.Tokens {
		ta := &a.Tokens[i]
		best, bestSim := 0.0, 0.0
		for j := range b.Tokens {
			tb := &b.Tokens[j]
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

// rawVector compiles s without normalising it: the tokens are the
// space-separated pieces as they stand — empty ones, repeated ones,
// punctuation and the replacement runes of invalid UTF-8 included —
// which Vectorize would never produce but SoftTFIDF must still handle.
func rawVector(s string) Vector {
	var v Vector
	var sq float64
	for i, piece := range strings.Split(s, " ") {
		runes := []rune(piece)
		w := 1 + float64(i%3)
		v.Tokens = append(v.Tokens, Token{Text: piece, Weight: w, runes: runes, sig: runeSignature(runes)})
		sq += w * w
	}
	v.Norm = math.Sqrt(sq)
	return v
}

// goldenCells reads the probe strings of the lemma index's golden file:
// the noisy worldgen cells and the hand-written corner cases.
func goldenCells(f *testing.F) []string {
	f.Helper()
	file, err := os.Open("../lemmaindex/testdata/candidates.golden")
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	var cells []string
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "cell ")
		if !ok {
			continue
		}
		quoted := rest[:strings.LastIndex(rest, " n=")]
		cell, err := strconv.Unquote(quoted)
		if err != nil {
			f.Fatalf("candidates.golden: cell %s: %v", quoted, err)
		}
		cells = append(cells, cell)
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	return cells
}

// lemmaRun returns lemmas that share tokens with a, with b and with each
// other: b, both joined, a, and every other token of each. A Scorer that
// meets them in this order finds most lemma tokens in its memo.
func lemmaRun(a, b string) []string {
	var alternate []string
	for i, tok := range strings.Fields(b + " " + a) {
		if i%2 == 0 {
			alternate = append(alternate, tok)
		}
	}
	return []string{b, a + " " + b, a, strings.Join(alternate, " ")}
}

// FuzzSoftTFIDF holds Scorer to the pair-at-a-time measures. On arbitrary
// string pairs (a, b), with a and then b as the query scored in one
// Scorer against lemmaRun(a, b) — under a VectorSpace that has seen the
// lemmas, so their tokens carry IDs and repeat in the memo, and under one
// that has not — Score's cosine, Jaccard and soft-TFIDF equal
// CosineJaccard and SoftTFIDF bit for bit at thresholds 0, 0.5, 0.9, 1,
// 1.5 and NaN, and SoftTFIDF equals the double loop that rejects no pair
// by its JaroWinkler bound. On the pair compiled both by Vectorize and
// raw, no token pair's similarity exceeds its bound by more than the
// slack the rejection test allows for.
func FuzzSoftTFIDF(f *testing.F) {
	cells := goldenCells(f)
	if len(cells) < 600 {
		f.Fatalf("candidates.golden yielded %d cells", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		f.Add(cells[i-1], cells[i])
	}
	long := strings.Repeat("abcdefghij", 7) // 70 runes: jaro's heap flags
	for _, seed := range [][2]string{
		{"", ""},
		{"  ", "a  b"},                         // empty raw tokens
		{"albert einstein", "albert einstein"}, // equal tokens
		{"albert einstein", "a einstien"},
		{long, long[:69] + "x"},
		{long + " " + long, "abc " + long},
		{"aáš ġa", "áaġ aš"}, // a á š ġ: one residue mod 64
		{"ab", "ba"},
		{"martha", "marhta"},
		{"\xff\xfe", "\xff"},
		{"北京 東京", "京都 北京市"},
	} {
		f.Add(seed[0], seed[1])
	}
	vs := NewVectorSpace()
	for _, c := range cells {
		vs.Add(c)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, pair := range [][2]Vector{
			{vs.Vectorize(a), vs.Vectorize(b)},
			{rawVector(a), rawVector(b)},
		} {
			va, vb := pair[0], pair[1]
			for i := range va.Tokens {
				for j := range vb.Tokens {
					ta, tb := &va.Tokens[i], &vb.Tokens[j]
					sim, bound := jaroWinkler(ta.runes, tb.runes), jaroWinklerBound(ta, tb)
					if sim > bound+jaroWinklerSlack {
						t.Fatalf("jaroWinkler(%q, %q) = %v above its bound %v", ta.Text, tb.Text, sim, bound)
					}
				}
			}
		}
		lemmas := lemmaRun(a, b)
		seen := NewVectorSpace()
		for _, l := range lemmas {
			seen.Add(l)
		}
		var sc Scorer
		for _, space := range []*VectorSpace{seen, vs} {
			for _, threshold := range []float64{0, 0.5, 0.9, 1, 1.5, math.NaN()} {
				for _, query := range []string{a, b} {
					q := space.Vectorize(query)
					sc.Reset(q, threshold)
					for _, lemma := range lemmas {
						l := space.Vectorize(lemma)
						cos, jac, soft := sc.Score(&l)
						wantCos, wantJac := CosineJaccard(q, l)
						wantSoft := SoftTFIDF(q, l, threshold)
						for _, m := range []struct {
							name      string
							got, want float64
						}{
							{"cosine", cos, wantCos},
							{"Jaccard", jac, wantJac},
							{"soft-TFIDF", soft, wantSoft},
							{"unbounded soft-TFIDF", wantSoft, unboundedSoftTFIDF(q, l, threshold)},
						} {
							if math.Float64bits(m.got) != math.Float64bits(m.want) {
								t.Fatalf("query %q, lemma %q, threshold %v: %s %v (%016x), reference %v (%016x)",
									query, lemma, threshold, m.name, m.got, math.Float64bits(m.got), m.want, math.Float64bits(m.want))
							}
						}
					}
				}
			}
		}
	})
}
