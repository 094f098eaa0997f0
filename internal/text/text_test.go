package text

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Albert Einstein", []string{"albert", "einstein"}},
		{"A. Einstein", []string{"a", "einstein"}},
		{"Relativity: The Special and the General Theory", []string{"relativity", "the", "special", "and", "the", "general", "theory"}},
		{"  multiple   spaces ", []string{"multiple", "spaces"}},
		{"Apollo 11", []string{"apollo", "11"}},
		{"R2D2", []string{"r2d2"}},
		{"...", nil},
		{"café-au-lait", []string{"café", "au", "lait"}},
	}
	for _, tc := range cases {
		got := Tokenize(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize("The   TIME, and Space!"); got != "the time and space" {
		t.Errorf("Normalize = %q", got)
	}
	if Normalize("A. Einstein") != Normalize("a einstein") {
		t.Error("normalized forms should match")
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0},
		{"a b", "a b", 1},
		{"a b", "b a", 1}, // order independent
		{"a b c", "a", 1.0 / 3},
		{"x", "y", 0},
	}
	for _, tc := range cases {
		if got := Jaccard(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Jaccard(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("einstein", "einstein"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if got := JaroWinkler("abc", ""); got != 0 {
		t.Errorf("vs empty = %v", got)
	}
	// Prefix boost: "einstein" vs "einstien" should beat a transposed
	// pair with no shared prefix.
	jw := JaroWinkler("einstein", "einstien")
	if jw < 0.9 {
		t.Errorf("typo similarity = %v, want > 0.9", jw)
	}
	// Known value: MARTHA/MARHTA Jaro = 0.944..., JW = 0.961...
	j := Jaro("martha", "marhta")
	if math.Abs(j-0.944444444) > 1e-6 {
		t.Errorf("Jaro(martha,marhta) = %v, want 0.9444", j)
	}
}

func TestVectorSpaceIDF(t *testing.T) {
	vs := NewVectorSpace()
	for i := 0; i < 10; i++ {
		vs.Add("the common token")
	}
	vs.Add("rare gem")
	if vs.Docs() != 11 {
		t.Fatalf("docs = %d", vs.Docs())
	}
	if vs.IDF("the") >= vs.IDF("gem") {
		t.Errorf("IDF(the)=%v should be < IDF(gem)=%v", vs.IDF("the"), vs.IDF("gem"))
	}
	if vs.IDF("neverseen") < vs.IDF("gem") {
		t.Errorf("unseen token should have max IDF")
	}
}

func TestCosineSelfSimilarity(t *testing.T) {
	vs := NewVectorSpace()
	vs.Add("albert einstein")
	vs.Add("albert camus")
	vs.Add("quantum quest")
	v := vs.Vectorize("albert einstein")
	if got := cosine(v, v); math.Abs(got-1) > 1e-12 {
		t.Errorf("self cosine = %v, want 1", got)
	}
	if got := cosine(v, vs.Vectorize("")); got != 0 {
		t.Errorf("cosine with empty = %v, want 0", got)
	}
}

func TestCosineDiscriminates(t *testing.T) {
	vs := NewVectorSpace()
	for _, l := range []string{
		"albert einstein", "albert camus", "uncle albert and the quantum quest",
		"the time and space of uncle albert", "russell stannard",
	} {
		vs.Add(l)
	}
	q := "uncle albert quantum quest"
	simRight := cosine(vs.Vectorize(q), vs.Vectorize("uncle albert and the quantum quest"))
	simWrong := cosine(vs.Vectorize(q), vs.Vectorize("albert einstein"))
	if simRight <= simWrong {
		t.Errorf("cosine ranking wrong: right=%v wrong=%v", simRight, simWrong)
	}
	// "albert" is common in this corpus so its IDF is low — the Einstein
	// match should be weak.
	if simWrong > 0.5 {
		t.Errorf("spurious 'albert' match too strong: %v", simWrong)
	}
}

func TestSoftTFIDFToleratesTypos(t *testing.T) {
	vs := NewVectorSpace()
	for _, l := range []string{"albert einstein", "russell stannard", "isaac newton"} {
		vs.Add(l)
	}
	hard := cosine(vs.Vectorize("albert einstien"), vs.Vectorize("albert einstein")) // typo
	soft := SoftTFIDF(vs.Vectorize("albert einstien"), vs.Vectorize("albert einstein"), 0.9)
	if soft <= hard {
		t.Errorf("soft (%v) should beat hard (%v) on typos", soft, hard)
	}
	if soft < 0.9 {
		t.Errorf("soft similarity on near-identical = %v, want >= 0.9", soft)
	}
}

func TestTopTokens(t *testing.T) {
	vs := NewVectorSpace()
	for i := 0; i < 50; i++ {
		vs.Add("the of and")
	}
	vs.Add("zanzibar the")
	top := vs.TopTokens(nil, vs.Vectorize("the zanzibar of"), 2)
	if len(top) != 2 || top[0].Text != "zanzibar" {
		t.Fatalf("TopTokens = %v, want zanzibar first", top)
	}
	if got := vs.TopTokens(nil, vs.Vectorize("the"), 5); len(got) != 1 {
		t.Fatalf("TopTokens cap = %v", got)
	}
}

func TestCosineCounts(t *testing.T) {
	a := Counts("a a b")
	b := Counts("a b b")
	got := CosineCounts(a, b)
	want := 4.0 / 5.0 // (2*1 + 1*2) / (sqrt(5)*sqrt(5))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CosineCounts = %v, want %v", got, want)
	}
	if CosineCounts(nil, b) != 0 {
		t.Error("nil counts should give 0")
	}
}

// Property: similarity measures stay in [0,1] and are symmetric where
// specified, for random ASCII strings.
func TestQuickSimilarityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randStr := func() string {
		n := rng.Intn(12)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte('a' + rng.Intn(6)))
			if rng.Intn(4) == 0 {
				sb.WriteByte(' ')
			}
		}
		return sb.String()
	}
	for trial := 0; trial < 500; trial++ {
		a, b := randStr(), randStr()
		for name, f := range map[string]func(string, string) float64{
			"jaccard": Jaccard, "jaro": Jaro, "jw": JaroWinkler,
		} {
			v := f(a, b)
			if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
				t.Fatalf("%s(%q,%q) = %v out of [0,1]", name, a, b, v)
			}
			if w := f(b, a); math.Abs(v-w) > 1e-9 {
				t.Fatalf("%s not symmetric: %v vs %v", name, v, w)
			}
		}
	}
}

// Property: cosine of TF-IDF vectors is bounded and maximal on identity.
func TestQuickCosineBounds(t *testing.T) {
	vs := NewVectorSpace()
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		var sb strings.Builder
		for j := 0; j < 1+rng.Intn(4); j++ {
			sb.WriteString(words[rng.Intn(len(words))] + " ")
		}
		vs.Add(sb.String())
	}
	for trial := 0; trial < 300; trial++ {
		var a, b strings.Builder
		for j := 0; j < rng.Intn(5); j++ {
			a.WriteString(words[rng.Intn(len(words))] + " ")
		}
		for j := 0; j < rng.Intn(5); j++ {
			b.WriteString(words[rng.Intn(len(words))] + " ")
		}
		c := cosine(vs.Vectorize(a.String()), vs.Vectorize(b.String()))
		if c < -1e-12 || c > 1+1e-9 || math.IsNaN(c) {
			t.Fatalf("cosine out of bounds: %v", c)
		}
	}
}
