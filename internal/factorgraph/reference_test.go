package factorgraph

import (
	"math"
	"math/rand"
	"testing"
)

// unflatten recovers the index tuple of a flat row-major table offset.
func unflatten(flat int, dims, out []int) {
	for i := len(dims) - 1; i >= 0; i-- {
		out[i] = flat % dims[i]
		flat /= dims[i]
	}
}

// referenceFactorToVar is the max-product factor→variable update spelled
// the slow, obviously-right way: visit the table in flat order and
// recover each entry's index tuple with unflatten. UpdateFactorToVar must
// produce the same message bit for bit — same visiting order, same
// left-to-right additions into score, same first-wins max.
func referenceFactorToVar(g *Graph, f FactorID, k int) []float64 {
	fac := &g.factors[f]
	out := make([]float64, fac.dims[k])
	for x := range out {
		out[x] = math.Inf(-1)
	}
	idx := make([]int, len(fac.dims))
	for flat, lp := range fac.logPot {
		unflatten(flat, fac.dims, idx)
		score := lp
		for j := range fac.vars {
			if j == k {
				continue
			}
			score += g.varToFac[f][j][idx[j]]
		}
		if score > out[idx[k]] {
			out[idx[k]] = score
		}
	}
	normalizeLog(out)
	return out
}

// TestUpdateFactorToVarMatchesReference draws unary, binary and ternary
// factors with uneven dims (dim 1 included), potentials and incoming
// messages of mixed sign and magnitude with -Inf entries (hard
// constraints), and compares every outgoing message with the reference
// enumerator's, as IEEE bit patterns.
func TestUpdateFactorToVarMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	value := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return math.Inf(-1)
		case 1:
			return 0
		case 2:
			return rng.NormFloat64() * 1e6
		default:
			return rng.NormFloat64() * 3
		}
	}
	dimChoices := []int{1, 1, 2, 3, 5, 7, 9, 20}
	for trial := 0; trial < 400; trial++ {
		g := New()
		arity := 1 + trial%3
		vars := make([]VarID, arity)
		size := 1
		for j := range vars {
			d := dimChoices[rng.Intn(len(dimChoices))]
			vars[j] = g.AddVariable("v", d)
			size *= d
		}
		pot := make([]float64, size)
		for i := range pot {
			pot[i] = value()
		}
		f := g.AddFactor("f", vars, pot)
		g.InitMessages()
		for j := range vars {
			in := g.varToFac[f][j]
			for x := range in {
				in[x] = value()
			}
		}
		for k, v := range vars {
			want := referenceFactorToVar(g, f, k)
			g.UpdateFactorToVar(f, v)
			got := g.facToVar[f][k]
			if len(got) != len(want) {
				t.Fatalf("trial %d slot %d: message length %d, want %d", trial, k, len(got), len(want))
			}
			for x := range want {
				if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
					t.Fatalf("trial %d (dims %v) slot %d x=%d: got %v (%016x), want %v (%016x)",
						trial, g.factors[f].dims, k, x, got[x], math.Float64bits(got[x]), want[x], math.Float64bits(want[x]))
				}
			}
		}
	}
}
