package feature_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/feature"
	"repro/internal/lemmaindex"
	"repro/internal/worldgen"
)

// untouched fills the entries a fill must leave alone (the na labels').
const untouched = -12345.5

type namedCatalog struct {
	name string
	*catalog.Catalog
}

// fillCatalogs returns the worldgen public catalogs of seeds 1-3 and seed
// 1's after a Clone → RemoveEntityType → re-Freeze.
func fillCatalogs(t *testing.T, rng *rand.Rand) []namedCatalog {
	t.Helper()
	var cats []namedCatalog
	for seed := int64(1); seed <= 3; seed++ {
		spec := worldgen.DefaultSpec()
		spec.Seed = seed
		w, err := worldgen.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		cats = append(cats, namedCatalog{fmt.Sprintf("seed %d", seed), w.Public})
	}
	d := cats[0].Clone()
	for e := catalog.EntityID(0); int(e) < d.NumEntities(); e++ {
		if ts := d.DirectTypes(e); len(ts) > 0 && rng.Intn(4) == 0 {
			if err := d.RemoveEntityType(e, ts[rng.Intn(len(ts))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Freeze(); err != nil {
		t.Fatal(err)
	}
	return append(cats, namedCatalog{"seed 1 degraded", d})
}

// someEntities draws n entities, most of them ends of b's tuples.
func someEntities(rng *rand.Rand, c *catalog.Catalog, b catalog.RelationID, subjects bool, n int) []catalog.EntityID {
	tuples := c.Tuples(b)
	out := make([]catalog.EntityID, n)
	for i := range out {
		switch {
		case len(tuples) == 0 || rng.Intn(4) == 0:
			out[i] = catalog.EntityID(rng.Intn(c.NumEntities()))
		case subjects:
			out[i] = tuples[rng.Intn(len(tuples))].Subject
		default:
			out[i] = tuples[rng.Intn(len(tuples))].Object
		}
	}
	return out
}

// typeSpace is the union of the entities' ancestors and a few random
// types, ascending: a column type space as core builds one, give or take.
func typeSpace(rng *rand.Rand, c *catalog.Catalog, ents []catalog.EntityID) []catalog.TypeID {
	var ts []catalog.TypeID
	for _, e := range ents {
		anc, _ := c.TypeDistances(e)
		ts = append(ts, anc...)
	}
	for k := rng.Intn(4); k > 0; k-- {
		ts = append(ts, catalog.TypeID(rng.Intn(c.NumTypes())))
	}
	slices.Sort(ts)
	return slices.Compact(ts)
}

func candidatesOf(ents []catalog.EntityID) []lemmaindex.Candidate {
	out := make([]lemmaindex.Candidate, len(ents))
	for i, e := range ents {
		out[i].Entity = e
	}
	return out
}

// relSpace is every relation some candidate pair shares, plus a random
// direction or two, minus a random one, in core's order.
func relSpace(rng *rand.Rand, c *catalog.Catalog, ci, cj []lemmaindex.Candidate) []feature.RelDir {
	var rels []feature.RelDir
	for _, a := range ci {
		for _, b := range cj {
			for _, rd := range c.RelationsBetween(a.Entity, b.Entity) {
				rels = append(rels, feature.RelDir(rd))
			}
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		rels = append(rels, feature.RelDir{Relation: catalog.RelationID(rng.Intn(c.NumRelations())), Forward: rng.Intn(2) == 0})
	}
	slices.SortFunc(rels, func(x, y feature.RelDir) int {
		if o := cmp.Compare(x.Relation, y.Relation); o != 0 || x.Forward == y.Forward {
			return o
		}
		if x.Forward {
			return -1
		}
		return 1
	})
	rels = slices.Compact(rels)
	if len(rels) > 1 && rng.Intn(2) == 0 {
		k := rng.Intn(len(rels))
		rels = slices.Delete(rels, k, k+1)
	}
	return rels
}

func sameBits(t *testing.T, got, want float64, format string, args ...any) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: fill %v (%#x), per entry %v (%#x)", fmt.Sprintf(format, args...), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func filled(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = untouched
	}
	return out
}

// TestFillsMatchPerEntry: FillPhi3, FillPhi4 and FillPhi5 write what
// LogPhi3, LogPhi4 and LogPhi5 return, bit for bit, and leave the na
// entries alone: in all three type-entity modes, under the default and
// random weights, over random type spaces, candidate lists and relation
// sets in both directions, on the worldgen catalogs of seeds 1-3 and on a
// catalog with ∈ links removed.
func TestFillsMatchPerEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	weights := []feature.Weights{feature.DefaultWeights()}
	flat := make([]float64, feature.TotalDim)
	for i := range flat {
		flat[i] = rng.NormFloat64() * 3
	}
	random, err := feature.WeightsFromFlat(flat)
	if err != nil {
		t.Fatal(err)
	}
	weights = append(weights, random)
	entries := 0
	var fired [4]int // missing links, participations, tuples, violations
	for _, nc := range fillCatalogs(t, rng) {
		name, c := nc.name, nc.Catalog
		for _, mode := range []feature.TypeEntityMode{feature.ModeSqrtDist, feature.ModeDist, feature.ModeIDF} {
			x := feature.NewExtractor(c, nil, mode)
			for wi := range weights {
				w := &weights[wi]
				where := fmt.Sprintf("%s, %v, weights %d", name, mode, wi)
				for trial := 0; trial < 300; trial++ {
					b := catalog.RelationID(rng.Intn(c.NumRelations()))
					subjs := someEntities(rng, c, b, true, 1+rng.Intn(6))
					objs := someEntities(rng, c, b, false, 1+rng.Intn(6))
					ti, tj := typeSpace(rng, c, subjs), typeSpace(rng, c, objs)

					out := filled(len(ti))
					for _, e := range append(subjs, objs...) {
						x.FillPhi3(w, e, ti, out)
						for k, T := range ti {
							sameBits(t, out[k], x.LogPhi3(w, T, e), "%s: φ3(%d,%d)", where, T, e)
							if x.F3(T, e)[1] > 0 {
								fired[0]++
							}
						}
						entries += len(ti)
					}

					for _, rd := range []feature.RelDir{{Relation: b, Forward: true}, {Relation: b, Forward: false}} {
						if !rd.Forward {
							ti, tj = tj, ti
						}
						out := filled((len(ti) + 1) * (len(tj) + 1))
						x.FillPhi4(w, rd, ti, tj, out)
						for i := range len(ti) + 1 {
							for j := range len(tj) + 1 {
								want := untouched
								if i < len(ti) && j < len(tj) {
									want = x.LogPhi4(w, rd, ti[i], tj[j])
									if x.F4(rd, ti[i], tj[j])[1] > 0 {
										fired[1]++
									}
								}
								sameBits(t, out[i*(len(tj)+1)+j], want, "%s: φ4(%v,%d,%d)", where, rd, i, j)
							}
						}
						entries += len(ti) * len(tj)
					}

					ci, cj := candidatesOf(subjs), candidatesOf(objs)
					if rng.Intn(2) == 0 {
						ci, cj = cj, ci
					}
					rels := relSpace(rng, c, ci, cj)
					nI, nJ := len(ci)+1, len(cj)+1
					out = filled((len(rels) + 1) * nI * nJ)
					x.FillPhi5(w, rels, ci, cj, make([]bool, len(cj)), out)
					for r := range len(rels) + 1 {
						for i := range nI {
							for j := range nJ {
								want := untouched
								if r < len(rels) && i < len(ci) && j < len(cj) {
									want = x.LogPhi5(w, rels[r], ci[i].Entity, cj[j].Entity)
									f := x.F5(rels[r], ci[i].Entity, cj[j].Entity)
									fired[2] += int(f[0])
									fired[3] += int(f[1])
								}
								sameBits(t, out[(r*nI+i)*nJ+j], want, "%s: φ5(%v,%d,%d)", where, r, i, j)
							}
						}
					}
					entries += len(rels) * len(ci) * len(cj)
				}
			}
		}
	}
	t.Logf("%d entries equal; fired: %d missing links, %d participations, %d tuples, %d violations",
		entries, fired[0], fired[1], fired[2], fired[3])
	if slices.Contains(fired[:], 0) {
		t.Errorf("a feature never fired (%v): the draws do not reach every branch", fired)
	}
}

// TestFillsDoNotAllocate: a fill reads the catalog's runs and writes to
// its caller's slices (core cuts them from the annotation arena).
func TestFillsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := fillCatalogs(t, rng)[0].Catalog
	x := feature.NewExtractor(c, nil, feature.ModeSqrtDist)
	w := feature.DefaultWeights()
	subjs, objs := someEntities(rng, c, 0, true, 5), someEntities(rng, c, 0, false, 5)
	ti, tj := typeSpace(rng, c, subjs), typeSpace(rng, c, objs)
	ci, cj := candidatesOf(subjs), candidatesOf(objs)
	rels := relSpace(rng, c, ci, cj)
	phi3, phi4 := make([]float64, len(ti)), make([]float64, (len(ti)+1)*(len(tj)+1))
	phi5, viol := make([]float64, (len(rels)+1)*(len(ci)+1)*(len(cj)+1)), make([]bool, len(cj))
	if n := testing.AllocsPerRun(20, func() {
		x.FillPhi3(&w, subjs[0], ti, phi3)
		x.FillPhi4(&w, feature.RelDir{Relation: 0, Forward: true}, ti, tj, phi4)
		x.FillPhi5(&w, rels, ci, cj, viol, phi5)
	}); n != 0 {
		t.Errorf("fills allocate %v times per call, want 0", n)
	}
}
