package factorgraph

import (
	"math/rand"
	"testing"
)

// tableFactor builds one factor of the given dims with pseudo-random
// potentials and incoming messages — φ3-shaped (type × cell) when binary,
// φ5-shaped (relation × cell × cell) when ternary.
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
	g.InitMessages()
	for j := range vars {
		for x := range g.varToFac[f][j] {
			g.varToFac[f][j][x] = rng.NormFloat64()
		}
	}
	return g, f, vars
}

// TestUpdateFactorToVarDoesNotAllocate: message passing runs thousands of
// these per table; the index tuple lives on the stack.
func TestUpdateFactorToVarDoesNotAllocate(t *testing.T) {
	for _, dims := range [][]int{{9}, {20, 9}, {5, 9, 9}} {
		g, f, vars := tableFactor(dims...)
		if n := testing.AllocsPerRun(50, func() {
			for _, v := range vars {
				g.UpdateFactorToVar(f, v)
			}
		}); n != 0 {
			t.Errorf("dims %v: UpdateFactorToVar allocates %v times per sweep, want 0", dims, n)
		}
	}
}

func benchmarkUpdateFactorToVar(b *testing.B, dims ...int) {
	g, f, vars := tableFactor(dims...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vars {
			g.UpdateFactorToVar(f, v)
		}
	}
}

// BenchmarkUpdateFactorToVar measures all outgoing messages of one factor
// at the annotator's table shapes: a φ3 (20 types × 9 entities) and a φ5
// (5 relations × 9 × 9 entities).
func BenchmarkUpdateFactorToVar(b *testing.B) {
	b.Run("binary", func(b *testing.B) { benchmarkUpdateFactorToVar(b, 20, 9) })
	b.Run("ternary", func(b *testing.B) { benchmarkUpdateFactorToVar(b, 5, 9, 9) })
}
