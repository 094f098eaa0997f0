package factorgraph

import (
	"math"
	"math/rand"
	"testing"
)

// oracleGraph is the message passing of this package as it stood before
// the flat message store and the fused factor sweep: one slice per
// message, slotOf's linear search, one odometer walk of the table per
// outgoing message, and a convergence snapshot grown by append. It is
// kept verbatim as the reference TestSweepReference holds Graph to, bit
// for bit.
type oracleGraph struct {
	domains  []int
	touching [][]int // factors touching each variable, in AddFactor order
	vars     [][]int // variables of each factor
	dims     [][]int
	logPot   [][]float64
	varToFac [][][]float64
	facToVar [][][]float64
}

func (o *oracleGraph) addVariable(domain int) int {
	o.domains = append(o.domains, domain)
	o.touching = append(o.touching, nil)
	return len(o.domains) - 1
}

func (o *oracleGraph) addFactor(vars []int, logPot []float64) {
	f := len(o.vars)
	dims := make([]int, len(vars))
	for i, v := range vars {
		dims[i] = o.domains[v]
		o.touching[v] = append(o.touching[v], f)
	}
	o.vars = append(o.vars, append([]int(nil), vars...))
	o.dims = append(o.dims, dims)
	o.logPot = append(o.logPot, logPot)
}

func (o *oracleGraph) initMessages() {
	o.varToFac = make([][][]float64, len(o.vars))
	o.facToVar = make([][][]float64, len(o.vars))
	for f := range o.vars {
		n := len(o.vars[f])
		o.varToFac[f] = make([][]float64, n)
		o.facToVar[f] = make([][]float64, n)
		for k, v := range o.vars[f] {
			o.varToFac[f][k] = make([]float64, o.domains[v])
			o.facToVar[f][k] = make([]float64, o.domains[v])
		}
	}
}

func (o *oracleGraph) slotOf(f, v int) int {
	for k, u := range o.vars[f] {
		if u == v {
			return k
		}
	}
	panic("oracle: variable not in factor")
}

func (o *oracleGraph) updateVarToFactor(v, f int) {
	k := o.slotOf(f, v)
	msg := o.varToFac[f][k]
	for x := range msg {
		msg[x] = 0
	}
	for _, other := range o.touching[v] {
		if other == f {
			continue
		}
		ok := o.slotOf(other, v)
		in := o.facToVar[other][ok]
		for x := range msg {
			msg[x] += in[x]
		}
	}
	normalizeLog(msg)
}

func (o *oracleGraph) updateFactorToVar(f, v int) {
	dims := o.dims[f]
	k := o.slotOf(f, v)
	out := o.facToVar[f][k]
	for x := range out {
		out[x] = math.Inf(-1)
	}
	in := o.varToFac[f]
	var idx [3]int
	for _, lp := range o.logPot[f] {
		score := lp
		for j := range dims {
			if j != k {
				score += in[j][idx[j]]
			}
		}
		if score > out[idx[k]] {
			out[idx[k]] = score
		}
		for j := len(dims) - 1; j >= 0; j-- {
			if idx[j]++; idx[j] < dims[j] {
				break
			}
			idx[j] = 0
		}
	}
	normalizeLog(out)
}

func (o *oracleGraph) sweepFactor(f int) {
	for _, v := range o.vars[f] {
		o.updateVarToFactor(v, f)
	}
	for _, v := range o.vars[f] {
		o.updateFactorToVar(f, v)
	}
}

func (o *oracleGraph) snapshotMessages() []float64 {
	var out []float64
	for f := range o.facToVar {
		for _, m := range o.facToVar[f] {
			out = append(out, m...)
		}
	}
	return out
}

func oracleMaxDelta(a, b []float64) float64 {
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

func (o *oracleGraph) runFlooding(maxIters int, tol float64) (int, bool) {
	prev := o.snapshotMessages()
	for iters := 1; iters <= maxIters; iters++ {
		for f := range o.vars {
			o.sweepFactor(f)
		}
		cur := o.snapshotMessages()
		if oracleMaxDelta(prev, cur) < tol {
			return iters, true
		}
		prev = cur
	}
	return maxIters, false
}

func (o *oracleGraph) belief(v int) []float64 {
	b := make([]float64, o.domains[v])
	for _, f := range o.touching[v] {
		in := o.facToVar[f][o.slotOf(f, v)]
		for x := range b {
			b[x] += in[x]
		}
	}
	normalizeLog(b)
	return b
}

// referencePair draws one random graph into both implementations:
// factors of arity 1-3 over domains that include 1, potentials of mixed
// magnitude with -Inf and NaN entries, now and then a factor whose table
// is -Inf throughout (its neighbours then receive all -Inf inputs) and a
// factor naming one variable twice.
func referencePair(rng *rand.Rand) (*Graph, *oracleGraph) {
	g, o := New(), &oracleGraph{}
	domChoices := []int{1, 1, 2, 3, 4, 6, 9}
	nV := 1 + rng.Intn(6)
	for v := 0; v < nV; v++ {
		d := domChoices[rng.Intn(len(domChoices))]
		g.AddVariable("v", d)
		o.addVariable(d)
	}
	value := func() float64 {
		switch rng.Intn(13) {
		case 0:
			return math.Inf(-1)
		case 12:
			return math.NaN()
		case 1:
			return 0
		case 2:
			return rng.NormFloat64() * 1e6
		default:
			return rng.NormFloat64() * 3
		}
	}
	for f, nF := 0, 1+rng.Intn(8); f < nF; f++ {
		arity := 1 + rng.Intn(3)
		vars := make([]int, arity)
		for j := range vars {
			vars[j] = rng.Intn(nV)
		}
		if arity > 1 && rng.Intn(8) == 0 {
			vars[arity-1] = vars[0] // one variable named twice
		}
		size := 1
		gv := make([]VarID, arity)
		for j, v := range vars {
			gv[j] = VarID(v)
			size *= o.domains[v]
		}
		pot := make([]float64, size)
		dead := rng.Intn(10) == 0
		for i := range pot {
			if pot[i] = value(); dead {
				pot[i] = math.Inf(-1)
			}
		}
		g.AddFactor("f", gv, pot)
		o.addFactor(vars, pot)
	}
	return g, o
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// compareMessages requires every message of g, both directions, to equal
// the oracle's as IEEE bit patterns.
func compareMessages(t *testing.T, when string, g *Graph, o *oracleGraph) {
	t.Helper()
	for f := range o.vars {
		for k := range o.vars[f] {
			if !sameBits(g.varToFac[f][k], o.varToFac[f][k]) {
				t.Fatalf("%s: var→factor message into factor %d slot %d (vars %v dims %v): got %v, oracle %v",
					when, f, k, o.vars[f], o.dims[f], g.varToFac[f][k], o.varToFac[f][k])
			}
			if !sameBits(g.facToVar[f][k], o.facToVar[f][k]) {
				t.Fatalf("%s: factor→var message out of factor %d slot %d (vars %v dims %v): got %v, oracle %v",
					when, f, k, o.vars[f], o.dims[f], g.facToVar[f][k], o.facToVar[f][k])
			}
		}
	}
}

// resweep runs a schedule that sweeps factors again whose inputs may not
// have changed since their last sweep, in both graphs, and compares every
// message after every sweep: each factor twice in a row, then the
// factors in order (as a flooding pass would), then the Appendix-D shape
// — one family of factors after another, three times over — and last,
// sweeps mixed with bare walks.
func resweep(t *testing.T, rng *rand.Rand, g *Graph, o *oracleGraph) {
	t.Helper()
	sweep := func(f int) {
		g.SweepFactor(FactorID(f))
		o.sweepFactor(f)
		compareMessages(t, "after a re-sweep", g, o)
	}
	for f := range o.vars {
		sweep(f)
		sweep(f)
	}
	for f := range o.vars {
		sweep(f)
	}
	families := make([][]int, 3)
	for f := range o.vars {
		k := rng.Intn(len(families))
		families[k] = append(families[k], f)
	}
	for pass := 0; pass < 3; pass++ {
		for _, fam := range families {
			for _, f := range fam {
				sweep(f)
			}
		}
	}
	// Walks without their sums (UpdateFactorToVar alone) between sweeps:
	// a factor's own message to a variable may then be newer than another
	// factor's that its next sum must still read.
	for step, steps := 0, 3*len(o.vars); step < steps; step++ {
		f := rng.Intn(len(o.vars))
		if rng.Intn(2) == 0 {
			sweep(f)
			continue
		}
		g.UpdateFactorToVar(FactorID(f), VarID(o.vars[f][0]))
		for _, v := range o.vars[f] {
			o.updateFactorToVar(f, v)
		}
		compareMessages(t, "after a walk", g, o)
	}
}

// TestSweepReference: SweepFactor, RunFlooding and Belief reproduce the
// one-message-at-a-time implementation bit for bit — every message after
// every sweep of a random sweep order and of schedules that sweep
// factors again, the iteration count and convergence verdict of
// flooding, and the decoded beliefs. The oracle skips nothing, and the
// test requires SweepFactor to have skipped walks in most trials, so
// that the skipping is what it compares.
func TestSweepReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const trials = 600
	skipping := 0
	for trial := 0; trial < trials; trial++ {
		g, o := referencePair(rng)
		g.InitMessages()
		o.initMessages()
		for step, steps := 0, 3*len(o.vars); step < steps; step++ {
			f := rng.Intn(len(o.vars))
			g.SweepFactor(FactorID(f))
			o.sweepFactor(f)
			compareMessages(t, "after a sweep", g, o)
		}
		resweep(t, rng, g, o)
		maxIters, tol := 1+rng.Intn(8), []float64{1e-6, 1e-2, 0}[rng.Intn(3)]
		gi, gc := g.RunFlooding(maxIters, tol)
		oi, oc := o.runFlooding(maxIters, tol)
		if gi != oi || gc != oc {
			t.Fatalf("trial %d: RunFlooding(%d, %g) = (%d, %t), oracle (%d, %t)", trial, maxIters, tol, gi, gc, oi, oc)
		}
		compareMessages(t, "after flooding", g, o)
		for v := range o.domains {
			if got, want := g.Belief(VarID(v)), o.belief(v); !sameBits(got, want) {
				t.Fatalf("trial %d: Belief(%d) = %v, oracle %v", trial, v, got, want)
			}
		}
		if _, skipped := g.Walks(); skipped > 0 {
			skipping++
		}
	}
	t.Logf("walks skipped in %d of %d trials", skipping, trials)
	if skipping < trials/2 {
		t.Errorf("walks skipped in only %d of %d trials", skipping, trials)
	}
}
