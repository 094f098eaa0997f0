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
//
// Messages live in two flat arenas, one per direction, laid out factor by
// factor and slot by slot (a factor's k-th variable is its slot k); every
// message is a window into its arena at a position fixed by InitMessages,
// so a sweep searches for nothing and the convergence test (MessageChange)
// is one pass over the factor→variable arena against a copy kept from the
// pass before. A factor's outgoing messages all come from one walk of its
// table (UpdateFactorToVar). Reset keeps all of that memory, and the
// slabs the factors' variable lists are cut from, for the next graph.
//
// Every message is reproducible to the last bit: a variable→factor message
// adds the variable's incoming messages in the order its factors were
// added; a table entry's score is folded in slot order — the potential,
// plus the lower slot's message, plus the higher slot's; and entries
// compete for a maximum in row-major order, first wins.
// So a message is a pure function of its inputs' bits, and a sweep skips
// what cannot change: a variable→factor sum when no other factor's
// message to the variable changed a bit since it was last taken, and a
// factor's walk when no message into it did. Every message, and so the
// schedule and the convergence test, is what skipping nothing gives.
package factorgraph

import (
	"fmt"
	"math"
	"slices"
)

// VarID indexes a variable in the graph.
type VarID int

// FactorID indexes a factor in the graph.
type FactorID int

type variable struct {
	name   string
	domain int
	edges  []edge // factors touching this variable, in AddFactor order
}

// edge is one end of a variable's link to a factor: the factor, and the
// slot the variable's messages with it occupy there.
type edge struct {
	factor FactorID
	slot   int
}

type factor struct {
	name string
	vars []VarID
	// logPot is the log-potential table, row-major over vars in order:
	// index = ((x0*d1)+x1)*d2+x2 for arity 3, etc.
	logPot []float64
	dims   []int
	// slot[k] is the first position of vars[k] in vars: k itself, unless
	// the factor names one variable twice. Such a variable exchanges
	// messages with the factor through its first slot only; the later
	// slot's messages stay at their initial 0.
	slot []int
	base int // the position of slot 0 among all slots
}

// Graph is a factor graph under construction or inference. Not safe for
// concurrent use.
type Graph struct {
	vars    []variable
	factors []factor
	varSlab []VarID // every factor's vars
	intSlab []int   // every factor's dims and slot

	// Messages, log space. varToFac[f][k] is the message from the k-th
	// variable of factor f to f; facToVar[f][k] the reverse. They are
	// slice headers (headers) into the two arenas (msgs).
	varToFac [][][]float64
	facToVar [][][]float64
	headers  [][]float64
	msgs     []float64
	// toVar is the factor→variable arena; prev is what it held when
	// MessageChange last looked.
	toVar, prev []float64
	ready       bool // InitMessages ran since the last Reset

	// What a sweep may skip. clock counts factor→variable messages that
	// changed a bit; latest[v] is v's last such change; summed[s] is the
	// clock when the message in header slot s was last summed; stale[f]
	// is set by InitMessages and every sum into f, cleared by f's walk;
	// scratch holds a walk's previous outgoing messages.
	clock        uint64
	latest       []change
	summed       []uint64
	stale        []bool
	scratch      []float64
	walks, skips int
}

// change is the factor of a variable's latest changed message and its
// stamp, and the latest stamp of any other factor's: whether anything but
// f changed since a stamp is one comparison.
type change struct {
	factor    FactorID
	at, other uint64
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Reset empties the graph, keeping its memory for the next one.
func (g *Graph) Reset() {
	g.vars, g.factors = g.vars[:0], g.factors[:0]
	g.varSlab, g.intSlab = g.varSlab[:0], g.intSlab[:0]
	g.ready = false
}

// AddVariable declares a variable with the given domain size (>= 1).
func (g *Graph) AddVariable(name string, domain int) VarID {
	if domain < 1 {
		panic(fmt.Sprintf("factorgraph: variable %q has empty domain", name))
	}
	n := len(g.vars)
	g.vars = slices.Grow(g.vars, 1)[:n+1] // a slot a Reset left keeps its edges' memory
	g.vars[n] = variable{name: name, domain: domain, edges: g.vars[n].edges[:0]}
	return VarID(n)
}

// NumVars reports the variable count.
func (g *Graph) NumVars() int { return len(g.vars) }

// NumFactors reports the factor count.
func (g *Graph) NumFactors() int { return len(g.factors) }

// Domain returns the domain size of v.
func (g *Graph) Domain(v VarID) int { return g.vars[v].domain }

// AddFactor attaches a factor over vars with the given log-potential
// table (row-major, length = product of domains). Arity 1-3 supported.
func (g *Graph) AddFactor(name string, vars []VarID, logPot []float64) FactorID {
	if len(vars) == 0 || len(vars) > 3 {
		panic(fmt.Sprintf("factorgraph: factor %q arity %d unsupported", name, len(vars)))
	}
	n, v0, i0 := len(vars), len(g.varSlab), len(g.intSlab)
	g.varSlab = append(g.varSlab, vars...)
	g.intSlab = slices.Grow(g.intSlab, 2*n)[:i0+2*n]
	ints := g.intSlab[i0 : i0+2*n : i0+2*n]
	dims, slot := ints[:n:n], ints[n:]
	size := 1
	for i, v := range vars {
		dims[i] = g.vars[v].domain
		size *= dims[i]
		slot[i] = slices.Index(vars, v)
	}
	if len(logPot) != size {
		panic(fmt.Sprintf("factorgraph: factor %q table size %d, want %d", name, len(logPot), size))
	}
	id := FactorID(len(g.factors))
	g.factors = append(g.factors, factor{name: name, vars: g.varSlab[v0 : v0+n : v0+n], logPot: logPot, dims: dims, slot: slot})
	for i, v := range vars {
		g.vars[v].edges = append(g.vars[v].edges, edge{id, slot[i]})
	}
	return id
}

// AddUnary is shorthand for a one-variable factor.
func (g *Graph) AddUnary(name string, v VarID, logPot []float64) FactorID {
	return g.AddFactor(name, []VarID{v}, logPot)
}

// InitMessages allocates and zeroes all messages ("initialize all
// messages to 1", i.e. log 0). Must be called before any sweep; RunFlooding
// calls it implicitly if needed. The number of allocations does not
// depend on the size of the graph, and is 0 after a Reset of a graph as large.
func (g *Graph) InitMessages() {
	slots, n, widest := 0, 0, 0
	for f := range g.factors {
		g.factors[f].base = slots
		slots += len(g.factors[f].dims)
		w := 0
		for _, d := range g.factors[f].dims {
			w += d
		}
		n, widest = n+w, max(widest, w)
	}
	g.msgs = resize(g.msgs, 3*n)
	clear(g.msgs)
	toFac := g.msgs[:n:n]
	g.toVar, g.prev = g.msgs[n:2*n:2*n], g.msgs[2*n:]
	g.headers = resize(g.headers, 2*slots)
	headers := g.headers
	g.varToFac = resize(g.varToFac, len(g.factors))
	g.facToVar = resize(g.facToVar, len(g.factors))
	s, off := 0, 0
	for f := range g.factors {
		dims := g.factors[f].dims
		e := s + len(dims)
		g.varToFac[f] = headers[s:e:e]
		g.facToVar[f] = headers[slots+s : slots+e : slots+e]
		for k, d := range dims {
			g.varToFac[f][k] = toFac[off : off+d : off+d]
			g.facToVar[f][k] = g.toVar[off : off+d : off+d]
			off += d
		}
		s = e
	}
	g.clock, g.walks, g.skips = 0, 0, 0
	g.latest = resize(g.latest, len(g.vars))
	fill(g.latest, change{factor: -1})
	g.summed = resize(g.summed, slots)
	clear(g.summed)
	g.stale = resize(g.stale, len(g.factors))
	fill(g.stale, true)
	g.scratch = resize(g.scratch, widest)
	g.ready = true
}

// resize returns s at length n, in its own array if that is long enough.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// updateVarToFactor recomputes the message into slot k of f from the
// variable there: the sum of incoming factor→var messages from every
// factor touching it except f. (Unary potentials are modeled as unary
// factors, so they participate automatically.) The message is normalized
// to max 0 for numerical stability. A sum that is taken marks f stale; it
// almost always changes a bit, so it is not compared.
func (g *Graph) updateVarToFactor(f FactorID, k int) {
	fac := &g.factors[f]
	v := fac.vars[k]
	c := &g.latest[v]
	since := c.at
	if c.factor == f {
		since = c.other
	}
	if since <= g.summed[fac.base+k] {
		return
	}
	g.summed[fac.base+k] = g.clock
	g.stale[f] = true
	msg := g.varToFac[f][k]
	clear(msg)
	for _, e := range g.vars[v].edges {
		if e.factor == f {
			continue
		}
		in := g.facToVar[e.factor][e.slot][:len(msg)]
		for x, m := range in {
			msg[x] += m
		}
	}
	normalizeLog(msg)
}

// bitsEqual reports whether a and b hold the same IEEE bit patterns.
func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// UpdateFactorToVar recomputes M(f→v): max over the other variables'
// assignments of the factor's log-potential plus their incoming messages.
// One walk of the table yields every message out of f, so the messages to
// f's other variables are recomputed with it, whichever v is named.
//
// The table is visited in flat (row-major) order by loops nested to the
// factor's arity, so no entry pays for an index tuple or a branch on the
// slot it feeds. Each score is folded in slot order, as it always has
// been — the potential, plus the lower slot's message, plus the higher
// slot's: (lp+in₀)+in₂, never lp+(in₀+in₂) — and max is exact, so every
// message is reproducible to the last bit. An outgoing message that
// changes a bit is stamped.
func (g *Graph) UpdateFactorToVar(f FactorID, _ VarID) {
	fac := &g.factors[f]
	in, out := g.varToFac[f], g.facToVar[f]
	old := g.scratch[:0]
	for _, m := range out {
		old = append(old, m...)
	}
	negInf := math.Inf(-1)
	switch len(fac.dims) {
	case 1:
		// The potential itself — through the same comparison against
		// -Inf the wider arities make, so that a NaN reads as -Inf.
		out0 := out[0]
		for x0, lp := range fac.logPot {
			out0[x0] = negInf
			if lp > negInf {
				out0[x0] = lp
			}
		}
	case 2:
		in0, in1, out0, out1 := in[0], in[1], out[0], out[1]
		fill(out1, negInf)
		pot := fac.logPot
		for x0, a0 := range in0 {
			m0 := negInf
			for x1, a1 := range in1 {
				lp := pot[x1]
				if s := lp + a1; s > m0 {
					m0 = s
				}
				if s := lp + a0; s > out1[x1] {
					out1[x1] = s
				}
			}
			out0[x0] = m0
			pot = pot[len(in1):]
		}
	case 3:
		in0, in1, in2, out0, out1, out2 := in[0], in[1], in[2], out[0], out[1], out[2]
		fill(out1, negInf)
		fill(out2, negInf)
		pot := fac.logPot
		for x0, a0 := range in0 {
			m0 := negInf
			for x1, a1 := range in1 {
				m1 := out1[x1]
				for x2, a2 := range in2 {
					lp := pot[x2]
					p0, p1 := lp+a0, lp+a1
					if s := p1 + a2; s > m0 {
						m0 = s
					}
					if s := p0 + a2; s > m1 {
						m1 = s
					}
					if s := p0 + a1; s > out2[x2] {
						out2[x2] = s
					}
				}
				out1[x1] = m1
				pot = pot[len(in2):]
			}
			out0[x0] = m0
		}
	}
	for k, first := range fac.slot {
		if first != k {
			clear(out[k])
			continue
		}
		normalizeLog(out[k])
		if !bitsEqual(out[k], old[:len(out[k])]) {
			g.clock++
			c := &g.latest[fac.vars[k]]
			if c.factor != f {
				c.factor, c.other = f, c.at
			}
			c.at = g.clock
		}
		old = old[len(out[k]):]
	}
	g.stale[f] = false
}

func fill[T any](m []T, v T) {
	for i := range m {
		m[i] = v
	}
}

// SweepFactor refreshes all messages into f and then all messages out of
// f — one full pass of the local message schedule around one factor —
// skipping the walk when it would write what f's messages hold.
func (g *Graph) SweepFactor(f FactorID) {
	for _, k := range g.factors[f].slot {
		g.updateVarToFactor(f, k)
	}
	if !g.stale[f] {
		g.skips++
		return
	}
	g.walks++
	g.UpdateFactorToVar(f, g.factors[f].vars[0])
}

// Walks reports how many of SweepFactor's walks since InitMessages ran
// and how many were skipped.
func (g *Graph) Walks() (walked, skipped int) { return g.walks, g.skips }

// RunFlooding runs synchronous sweeps over all factors until messages
// change by less than tol (L∞) or maxIters is reached. Returns the number
// of iterations used and whether it converged.
func (g *Graph) RunFlooding(maxIters int, tol float64) (iters int, converged bool) {
	if !g.ready {
		g.InitMessages()
	}
	g.MessageChange()
	for iters = 1; iters <= maxIters; iters++ {
		for f := range g.factors {
			g.SweepFactor(FactorID(f))
		}
		if g.MessageChange() < tol {
			return iters, true
		}
	}
	return maxIters, false
}

// MessageChange returns the L∞ distance between the factor→variable
// messages now and when it was last called (or, the first time, when
// InitMessages zeroed them), ignoring positions that are -inf both
// times, and remembers the current messages for the next call. Custom
// schedules build their convergence test on it; it allocates nothing.
func (g *Graph) MessageChange() float64 {
	d := 0.0
	for i, cur := range g.toVar {
		old := g.prev[i]
		g.prev[i] = cur
		if math.IsInf(old, -1) && math.IsInf(cur, -1) {
			continue
		}
		if v := math.Abs(old - cur); v > d {
			d = v
		}
	}
	return d
}

// Belief returns the normalized (max=0) log-belief of v: the sum of all
// incoming factor messages.
func (g *Graph) Belief(v VarID) []float64 {
	return g.belief(nil, v)
}

// belief is Belief computed into buf's memory.
func (g *Graph) belief(buf []float64, v VarID) []float64 {
	b := resize(buf, g.vars[v].domain)
	clear(b)
	if !g.ready {
		return b
	}
	for _, e := range g.vars[v].edges {
		in := g.facToVar[e.factor][e.slot]
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
	var b []float64
	for v := range g.vars {
		b = g.belief(b, VarID(v))
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
