// Package factorgraph implements a generic discrete factor graph with
// max-product (MAP) belief propagation in log space, the inference
// machinery of §4.4 / Appendix B. Variables have small finite domains;
// factors couple 1–3 variables through explicit log-potential tables.
//
// The package supports both a synchronous flooding schedule and the
// fine-grained per-factor sweeps the paper's Appendix-D schedule needs
// (entities→φ3→types→back, entities→φ5→relations→back, types→φ4→
// relations→back), plus exact brute-force inference for validation on
// small graphs.
package factorgraph

import (
	"fmt"
	"math"
)

// VarID indexes a variable in the graph.
type VarID int

// FactorID indexes a factor in the graph.
type FactorID int

type variable struct {
	name    string
	domain  int
	factors []FactorID // factors touching this variable
}

type factor struct {
	name string
	vars []VarID
	// logPot is the log-potential table, row-major over vars in order:
	// index = ((x0*d1)+x1)*d2+x2 for arity 3, etc.
	logPot []float64
	dims   []int
}

// Graph is a factor graph under construction or inference. Not safe for
// concurrent use.
type Graph struct {
	vars    []variable
	factors []factor

	// Messages, log space. varToFac[f][k] is the message from the k-th
	// variable of factor f to f; facToVar[f][k] the reverse.
	varToFac [][][]float64
	facToVar [][][]float64
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddVariable declares a variable with the given domain size (>= 1).
func (g *Graph) AddVariable(name string, domain int) VarID {
	if domain < 1 {
		panic(fmt.Sprintf("factorgraph: variable %q has empty domain", name))
	}
	g.vars = append(g.vars, variable{name: name, domain: domain})
	return VarID(len(g.vars) - 1)
}

// NumVars reports the variable count.
func (g *Graph) NumVars() int { return len(g.vars) }

// NumFactors reports the factor count.
func (g *Graph) NumFactors() int { return len(g.factors) }

// Domain returns the domain size of v.
func (g *Graph) Domain(v VarID) int { return g.vars[v].domain }

// VarName returns the debug name of v.
func (g *Graph) VarName(v VarID) string { return g.vars[v].name }

// AddFactor attaches a factor over vars with the given log-potential
// table (row-major, length = product of domains). Arity 1-3 supported.
func (g *Graph) AddFactor(name string, vars []VarID, logPot []float64) FactorID {
	if len(vars) == 0 || len(vars) > 3 {
		panic(fmt.Sprintf("factorgraph: factor %q arity %d unsupported", name, len(vars)))
	}
	dims := make([]int, len(vars))
	size := 1
	for i, v := range vars {
		dims[i] = g.vars[v].domain
		size *= dims[i]
	}
	if len(logPot) != size {
		panic(fmt.Sprintf("factorgraph: factor %q table size %d, want %d", name, len(logPot), size))
	}
	id := FactorID(len(g.factors))
	g.factors = append(g.factors, factor{name: name, vars: append([]VarID(nil), vars...), logPot: logPot, dims: dims})
	for _, v := range vars {
		g.vars[v].factors = append(g.vars[v].factors, id)
	}
	return id
}

// AddUnary is shorthand for a one-variable factor.
func (g *Graph) AddUnary(name string, v VarID, logPot []float64) FactorID {
	return g.AddFactor(name, []VarID{v}, logPot)
}

// InitMessages allocates and zeroes all messages ("initialize all
// messages to 1", i.e. log 0). Must be called before any sweep; RunFlooding
// and Schedule helpers call it implicitly if needed.
func (g *Graph) InitMessages() {
	g.varToFac = make([][][]float64, len(g.factors))
	g.facToVar = make([][][]float64, len(g.factors))
	for f := range g.factors {
		n := len(g.factors[f].vars)
		g.varToFac[f] = make([][]float64, n)
		g.facToVar[f] = make([][]float64, n)
		for k, v := range g.factors[f].vars {
			g.varToFac[f][k] = make([]float64, g.vars[v].domain)
			g.facToVar[f][k] = make([]float64, g.vars[v].domain)
		}
	}
}

func (g *Graph) messagesReady() bool { return g.varToFac != nil }

// slotOf returns the position of v in factor f's variable list.
func (g *Graph) slotOf(f FactorID, v VarID) int {
	for k, u := range g.factors[f].vars {
		if u == v {
			return k
		}
	}
	panic(fmt.Sprintf("factorgraph: variable %d not in factor %d", v, f))
}

// UpdateVarToFactor recomputes M(v→f): the sum of incoming factor→var
// messages from every factor touching v except f. (Unary potentials are
// modeled as unary factors, so they participate automatically.)
// The message is normalized to max 0 for numerical stability.
func (g *Graph) UpdateVarToFactor(v VarID, f FactorID) {
	k := g.slotOf(f, v)
	msg := g.varToFac[f][k]
	for x := range msg {
		msg[x] = 0
	}
	for _, other := range g.vars[v].factors {
		if other == f {
			continue
		}
		ok := g.slotOf(other, v)
		in := g.facToVar[other][ok]
		for x := range msg {
			msg[x] += in[x]
		}
	}
	normalizeLog(msg)
}

// UpdateFactorToVar recomputes M(f→v): max over the other variables'
// assignments of the factor's log-potential plus their incoming messages.
//
// The table is visited in flat (row-major) order with idx stepped like an
// odometer beside it — last slot fastest, carrying leftward — so no entry
// pays a div/mod to recover its index tuple, and idx lives on the stack.
// The additions into score run in slot order, as they always have; max
// is exact, so every message is reproducible to the last bit.
func (g *Graph) UpdateFactorToVar(f FactorID, v VarID) {
	fac := &g.factors[f]
	k := g.slotOf(f, v)
	out := g.facToVar[f][k]
	for x := range out {
		out[x] = math.Inf(-1)
	}
	in := g.varToFac[f]
	var idx [3]int // AddFactor caps arity at 3
	for _, lp := range fac.logPot {
		score := lp
		for j := range fac.dims {
			if j != k {
				score += in[j][idx[j]]
			}
		}
		if score > out[idx[k]] {
			out[idx[k]] = score
		}
		for j := len(fac.dims) - 1; j >= 0; j-- {
			if idx[j]++; idx[j] < fac.dims[j] {
				break
			}
			idx[j] = 0
		}
	}
	normalizeLog(out)
}

// SweepFactor refreshes all messages into f and then all messages out of
// f — one full pass of the local message schedule around one factor.
func (g *Graph) SweepFactor(f FactorID) {
	for _, v := range g.factors[f].vars {
		g.UpdateVarToFactor(v, f)
	}
	for _, v := range g.factors[f].vars {
		g.UpdateFactorToVar(f, v)
	}
}

// RunFlooding runs synchronous sweeps over all factors until messages
// change by less than tol (L∞) or maxIters is reached. Returns the number
// of iterations used and whether it converged.
func (g *Graph) RunFlooding(maxIters int, tol float64) (iters int, converged bool) {
	if !g.messagesReady() {
		g.InitMessages()
	}
	prev := g.snapshotMessages()
	for iters = 1; iters <= maxIters; iters++ {
		for f := range g.factors {
			g.SweepFactor(FactorID(f))
		}
		cur := g.snapshotMessages()
		if maxDelta(prev, cur) < tol {
			return iters, true
		}
		prev = cur
	}
	return maxIters, false
}

// Messages returns a flat copy of all factor→variable messages, for
// custom schedules that need their own convergence test.
func (g *Graph) Messages() []float64 {
	if !g.messagesReady() {
		g.InitMessages()
	}
	return g.snapshotMessages()
}

// MessageDelta returns the L∞ distance between two message snapshots,
// ignoring positions that are -inf in both.
func MessageDelta(a, b []float64) float64 { return maxDelta(a, b) }

func (g *Graph) snapshotMessages() []float64 {
	var out []float64
	for f := range g.facToVar {
		for _, m := range g.facToVar[f] {
			out = append(out, m...)
		}
	}
	return out
}

func maxDelta(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		v := math.Abs(a[i] - b[i])
		if math.IsInf(a[i], -1) && math.IsInf(b[i], -1) {
			continue
		}
		if v > d {
			d = v
		}
	}
	return d
}

// Belief returns the normalized (max=0) log-belief of v: the sum of all
// incoming factor messages.
func (g *Graph) Belief(v VarID) []float64 {
	b := make([]float64, g.vars[v].domain)
	if !g.messagesReady() {
		return b
	}
	for _, f := range g.vars[v].factors {
		k := g.slotOf(f, v)
		in := g.facToVar[f][k]
		for x := range b {
			b[x] += in[x]
		}
	}
	normalizeLog(b)
	return b
}

// MAPAssignment decodes each variable to its belief argmax (ties broken
// toward the lowest index, which by the annotator's convention is the
// highest-scored candidate).
func (g *Graph) MAPAssignment() []int {
	out := make([]int, len(g.vars))
	for v := range g.vars {
		b := g.Belief(VarID(v))
		best, bestScore := 0, math.Inf(-1)
		for x, s := range b {
			if s > bestScore {
				best, bestScore = x, s
			}
		}
		out[v] = best
	}
	return out
}

// Score evaluates the total log-potential of a full assignment.
func (g *Graph) Score(assignment []int) float64 {
	if len(assignment) != len(g.vars) {
		panic("factorgraph: assignment length mismatch")
	}
	total := 0.0
	idx := make([]int, 3)
	for f := range g.factors {
		fac := &g.factors[f]
		for j, v := range fac.vars {
			idx[j] = assignment[v]
		}
		total += fac.logPot[flatten(idx[:len(fac.vars)], fac.dims)]
	}
	return total
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

func flatten(idx, dims []int) int {
	flat := 0
	for i := range dims {
		flat = flat*dims[i] + idx[i]
	}
	return flat
}

// normalizeLog shifts a log-vector so its max is 0; all -inf vectors are
// left unchanged.
func normalizeLog(m []float64) {
	mx := math.Inf(-1)
	for _, v := range m {
		if v > mx {
			mx = v
		}
	}
	if math.IsInf(mx, -1) || mx == 0 {
		return
	}
	for i := range m {
		m[i] -= mx
	}
}
