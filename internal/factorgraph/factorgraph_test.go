package factorgraph

import (
	"math"
	"math/rand"
	"testing"
)

func TestUnaryOnlyMAP(t *testing.T) {
	g := New()
	v := g.AddVariable("x", 3)
	g.AddUnary("phi", v, []float64{0.1, 2.0, -1.0})
	if iters, conv := g.RunFlooding(10, 1e-9); !conv {
		t.Fatalf("no convergence after %d iters", iters)
	}
	if got := g.MAPAssignment(); got[0] != 1 {
		t.Fatalf("MAP = %v, want [1]", got)
	}
}

func TestPairwiseChainExact(t *testing.T) {
	// x0 - x1 chain: BP on a tree is exact.
	g := New()
	x0 := g.AddVariable("x0", 2)
	x1 := g.AddVariable("x1", 2)
	g.AddUnary("u0", x0, []float64{0.5, 0.0})
	g.AddUnary("u1", x1, []float64{0.0, 0.4})
	// Strong agreement potential.
	g.AddFactor("agree", []VarID{x0, x1}, []float64{
		2.0, 0.0,
		0.0, 2.0,
	})
	g.RunFlooding(20, 1e-9)
	bp := g.MAPAssignment()
	exact, _ := g.BruteForceMAP()
	if bp[0] != exact[0] || bp[1] != exact[1] {
		t.Fatalf("BP %v != exact %v", bp, exact)
	}
	if g.Score(bp) != g.Score(exact) {
		t.Fatalf("scores differ: %v vs %v", g.Score(bp), g.Score(exact))
	}
}

func TestTernaryFactor(t *testing.T) {
	g := New()
	a := g.AddVariable("a", 2)
	b := g.AddVariable("b", 2)
	c := g.AddVariable("c", 2)
	// Potential rewarding a=b=c=1.
	pot := make([]float64, 8)
	pot[7] = 3.0
	g.AddFactor("all-ones", []VarID{a, b, c}, pot)
	g.AddUnary("bias-a", a, []float64{0.5, 0.0})
	g.RunFlooding(30, 1e-9)
	got := g.MAPAssignment()
	exact, _ := g.BruteForceMAP()
	if g.Score(got) < g.Score(exact)-1e-9 {
		t.Fatalf("BP %v (score %v) worse than exact %v (score %v)", got, g.Score(got), exact, g.Score(exact))
	}
}

// Random trees: max-product BP must agree with brute force on the MAP
// *score* (assignments may differ under exact ties).
func TestRandomTreesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		g := New()
		n := 2 + rng.Intn(5)
		vars := make([]VarID, n)
		for i := range vars {
			d := 2 + rng.Intn(3)
			vars[i] = g.AddVariable("v", d)
			u := make([]float64, d)
			for x := range u {
				u[x] = rng.NormFloat64()
			}
			g.AddUnary("u", vars[i], u)
		}
		// Tree edges: each node i>0 connects to a random earlier node.
		for i := 1; i < n; i++ {
			j := rng.Intn(i)
			di, dj := g.Domain(vars[i]), g.Domain(vars[j])
			pot := make([]float64, di*dj)
			for k := range pot {
				pot[k] = rng.NormFloat64()
			}
			g.AddFactor("e", []VarID{vars[i], vars[j]}, pot)
		}
		iters, conv := g.RunFlooding(100, 1e-10)
		if !conv {
			t.Fatalf("trial %d: tree BP did not converge in %d iters", trial, iters)
		}
		bp := g.MAPAssignment()
		_, exactScore := g.BruteForceMAP()
		if math.Abs(g.Score(bp)-exactScore) > 1e-6 {
			t.Fatalf("trial %d: BP score %v != exact %v", trial, g.Score(bp), exactScore)
		}
	}
}

// Loopy graphs: BP is approximate but must terminate and produce a valid
// assignment; on small random loopy graphs it should usually match exact.
func TestRandomLoopyGraphsReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	match := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		g := New()
		n := 3 + rng.Intn(3)
		vars := make([]VarID, n)
		for i := range vars {
			vars[i] = g.AddVariable("v", 2)
			g.AddUnary("u", vars[i], []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5})
		}
		// Ring + chords.
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			pot := make([]float64, 4)
			for k := range pot {
				pot[k] = rng.NormFloat64() * 0.5
			}
			g.AddFactor("e", []VarID{vars[i], vars[j]}, pot)
		}
		g.RunFlooding(200, 1e-8)
		bp := g.MAPAssignment()
		_, exactScore := g.BruteForceMAP()
		if math.Abs(g.Score(bp)-exactScore) < 1e-6 {
			match++
		}
	}
	if match < trials*2/3 {
		t.Fatalf("loopy BP matched exact on only %d/%d small graphs", match, trials)
	}
}

func TestScheduleSweepMatchesFlooding(t *testing.T) {
	build := func() *Graph {
		g := New()
		a := g.AddVariable("a", 3)
		b := g.AddVariable("b", 3)
		g.AddUnary("ua", a, []float64{0.3, 0.1, -0.2})
		g.AddUnary("ub", b, []float64{-0.1, 0.2, 0.0})
		g.AddFactor("ab", []VarID{a, b}, []float64{
			1, 0, 0,
			0, 1, 0,
			0, 0, 1,
		})
		return g
	}
	g1 := build()
	g1.RunFlooding(50, 1e-10)
	g2 := build()
	g2.InitMessages()
	for i := 0; i < 50; i++ {
		for f := 0; f < g2.NumFactors(); f++ {
			g2.SweepFactor(FactorID(f))
		}
	}
	m1, m2 := g1.MAPAssignment(), g2.MAPAssignment()
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("flooding %v != manual sweeps %v", m1, m2)
		}
	}
}

func TestBeliefNormalized(t *testing.T) {
	g := New()
	v := g.AddVariable("x", 4)
	g.AddUnary("u", v, []float64{1, 5, 2, 3})
	g.RunFlooding(5, 1e-9)
	b := g.Belief(v)
	mx := math.Inf(-1)
	for _, x := range b {
		if x > mx {
			mx = x
		}
	}
	if mx != 0 {
		t.Fatalf("belief max = %v, want 0 (normalized)", mx)
	}
	if b[1] != 0 {
		t.Fatalf("belief argmax at %v, want index 1", b)
	}
}

func TestScorePanicsOnBadLength(t *testing.T) {
	g := New()
	g.AddVariable("x", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad assignment length")
		}
	}()
	g.Score([]int{0, 1})
}

func TestAddFactorValidation(t *testing.T) {
	g := New()
	v := g.AddVariable("x", 2)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"bad table size", func() { g.AddFactor("f", []VarID{v}, []float64{1, 2, 3}) }},
		{"empty domain", func() { g.AddVariable("bad", 0) }},
		{"arity 0", func() { g.AddFactor("f", nil, nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestHardConstraintPropagation(t *testing.T) {
	// A -inf potential must make an assignment unreachable: x=y forced,
	// even against unary preferences.
	g := New()
	x := g.AddVariable("x", 2)
	y := g.AddVariable("y", 2)
	g.AddUnary("ux", x, []float64{0, 1}) // prefers x=1
	g.AddUnary("uy", y, []float64{1, 0}) // prefers y=0
	inf := math.Inf(-1)
	g.AddFactor("eq", []VarID{x, y}, []float64{
		0, inf,
		inf, 0,
	})
	g.RunFlooding(50, 1e-9)
	m := g.MAPAssignment()
	if m[0] != m[1] {
		t.Fatalf("equality constraint violated: %v", m)
	}
	exact, _ := g.BruteForceMAP()
	if g.Score(m) != g.Score(exact) {
		t.Fatalf("score %v != exact %v", g.Score(m), g.Score(exact))
	}
}

// BruteForceMAP enumerates all assignments — exponential, for tests and
// tiny graphs only. Returns the best assignment and its score.
func (g *Graph) BruteForceMAP() ([]int, float64) {
	assignment := make([]int, len(g.vars))
	best := make([]int, len(g.vars))
	bestScore := math.Inf(-1)
	var rec func(i int)
	rec = func(i int) {
		if i == len(g.vars) {
			if s := g.Score(assignment); s > bestScore {
				bestScore = s
				copy(best, assignment)
			}
			return
		}
		for x := 0; x < g.vars[i].domain; x++ {
			assignment[i] = x
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestScore
}
