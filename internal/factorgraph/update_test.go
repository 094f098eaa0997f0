package factorgraph

import (
	"math/rand"
	"testing"
)

// tableFactor builds one factor of the given dims with pseudo-random
// potentials and incoming messages — φ3-shaped (type × cell) when binary,
// φ5-shaped (relation × cell × cell) when ternary — and a unary factor
// beside it on every variable, so a sweep has messages to gather.
func tableFactor(dims ...int) (*Graph, FactorID, []VarID) {
	rng := rand.New(rand.NewSource(3))
	g := New()
	vars := make([]VarID, len(dims))
	size := 1
	for j, d := range dims {
		vars[j] = g.AddVariable("v", d)
		size *= d
	}
	pot := make([]float64, size)
	for i := range pot {
		pot[i] = rng.NormFloat64()
	}
	f := g.AddFactor("f", vars, pot)
	unaries := make([]FactorID, len(dims))
	for j, d := range dims {
		unary := make([]float64, d)
		for x := range unary {
			unary[x] = rng.NormFloat64()
		}
		unaries[j] = g.AddUnary("u", vars[j], unary)
	}
	g.InitMessages()
	for _, u := range unaries {
		g.SweepFactor(u)
	}
	for j := range vars {
		for x := range g.varToFac[f][j] {
			g.varToFac[f][j][x] = rng.NormFloat64()
		}
	}
	return g, f, vars
}

// TestUpdateFactorToVarDoesNotAllocate: message passing runs thousands of
// these per table. Neither the fused walk of a factor's table nor a whole
// SweepFactor around it (messages in, then messages out) touches the
// heap, at the φ1 (unary), φ3 (type × cell) and φ5 (relation × cell ×
// cell) shapes.
func TestUpdateFactorToVarDoesNotAllocate(t *testing.T) {
	for _, dims := range [][]int{{9}, {20, 9}, {5, 9, 9}} {
		g, f, vars := tableFactor(dims...)
		if n := testing.AllocsPerRun(50, func() { g.UpdateFactorToVar(f, vars[0]) }); n != 0 {
			t.Errorf("dims %v: UpdateFactorToVar allocates %v times per call, want 0", dims, n)
		}
		if n := testing.AllocsPerRun(50, func() { g.SweepFactor(f) }); n != 0 {
			t.Errorf("dims %v: SweepFactor allocates %v times per sweep, want 0", dims, n)
		}
		if n := testing.AllocsPerRun(50, func() { g.MessageChange() }); n != 0 {
			t.Errorf("dims %v: MessageChange allocates %v times per call, want 0", dims, n)
		}
	}
}

// TestInitMessagesAllocations: the message store is two arenas and their
// slice headers, so the number of allocations does not grow with the
// graph.
func TestInitMessagesAllocations(t *testing.T) {
	allocs := func(factors int) float64 {
		g := New()
		for i := 0; i < factors; i++ {
			a, b := g.AddVariable("a", 3), g.AddVariable("b", 4)
			g.AddFactor("f", []VarID{a, b}, make([]float64, 12))
		}
		return testing.AllocsPerRun(20, g.InitMessages)
	}
	small, large := allocs(2), allocs(200)
	if small != large || large > 4 {
		t.Errorf("InitMessages allocates %v times for 2 factors and %v for 200, want the same and at most 4", small, large)
	}
}

func benchmarkUpdateFactorToVar(b *testing.B, dims ...int) {
	g, f, vars := tableFactor(dims...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.UpdateFactorToVar(f, vars[0])
	}
}

// BenchmarkUpdateFactorToVar measures all outgoing messages of one factor
// — one walk of its table — at the annotator's table shapes: a φ3 (20
// types × 9 entities) and a φ5 (5 relations × 9 × 9 entities).
func BenchmarkUpdateFactorToVar(b *testing.B) {
	b.Run("binary", func(b *testing.B) { benchmarkUpdateFactorToVar(b, 20, 9) })
	b.Run("ternary", func(b *testing.B) { benchmarkUpdateFactorToVar(b, 5, 9, 9) })
}
