package catalog

import (
	"cmp"
	"fmt"
	"slices"
)

// RootTypeName is the canonical name of the synthetic root type created by
// Freeze when the hierarchy has no unique top element (§3.1: "If not
// already present, we can create a root type that reaches all other
// types").
const RootTypeName = "Entity"

// Freeze validates the catalog (acyclic subtype DAG), installs a root type
// reaching all others, and computes the closures used by the annotator:
//
//   - T(E): all type ancestors of every entity, with dist(E,T) (§4.2.3),
//   - a number per entity for its set of direct types (TypeSignature),
//   - E(T): all entities transitively reachable from every type,
//   - type ancestor sets with edge distances,
//   - |E(T′)∩E(T)| for every pair of types sharing an entity (§4.2.3),
//   - per-relation adjacency (by subject, by object) and, per entity, the
//     entities it is related to with the relation and direction of each,
//   - per relation, the two participation counts of every (subject type,
//     object type) pair some tuple reaches (§4.2.4).
//
// Freeze is idempotent; calling it twice returns nil immediately.
func (c *Catalog) Freeze() error {
	if c.frozen {
		return nil
	}
	if err := c.ensureRoot(); err != nil {
		return err
	}
	if err := c.checkAcyclic(); err != nil {
		return err
	}
	c.computeTypeAncestors()
	c.computeEntityClosures()
	c.computeCoMembership()
	c.computeRelationIndexes()
	c.computeParticipation()
	c.frozen = true
	return nil
}

// ensureRoot guarantees a single type that reaches every other type.
func (c *Catalog) ensureRoot() error {
	var orphans []TypeID
	for id := range c.types {
		if len(c.types[id].parents) == 0 {
			orphans = append(orphans, TypeID(id))
		}
	}
	if existing, ok := c.typeByName[RootTypeName]; ok {
		c.root = existing
	} else if len(orphans) == 1 {
		// A unique top element already exists; adopt it as root.
		c.root = orphans[0]
		return nil
	} else {
		id, err := c.AddType(RootTypeName, "entity", "thing")
		if err != nil {
			return err
		}
		c.root = id
	}
	for _, t := range orphans {
		if t == c.root {
			continue
		}
		if err := c.AddSubtype(t, c.root); err != nil {
			return err
		}
	}
	return nil
}

// checkAcyclic runs Kahn's algorithm over the parent→child edges.
func (c *Catalog) checkAcyclic() error {
	n := len(c.types)
	indeg := make([]int, n) // number of parents
	for id := range c.types {
		indeg[id] = len(c.types[id].parents)
	}
	queue := make([]TypeID, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, TypeID(id))
		}
	}
	seen := 0
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, ch := range c.types[t].children {
			indeg[ch]--
			if indeg[ch] == 0 {
				queue = append(queue, ch)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("%w: %d of %d types unreachable in topological order", ErrCycle, n-seen, n)
	}
	return nil
}

// computeTypeAncestors fills typeAncestors[t] = {ancestor -> min #edges},
// including t itself at distance 0, and the same closure as a types ×
// types bit matrix for IsSubtype. BFS upward per type; the DAG is small
// relative to the entity set so this is cheap.
func (c *Catalog) computeTypeAncestors() {
	n := len(c.types)
	c.typeAncestors = make([]map[TypeID]int32, n)
	c.subtypeWords = (n + 63) / 64
	c.subtypeBits = make([]uint64, n*c.subtypeWords)
	// Process in an order where parents are done first so we could reuse,
	// but a direct BFS per type is simpler and fast enough.
	for id := 0; id < n; id++ {
		anc := map[TypeID]int32{TypeID(id): 0}
		frontier := []TypeID{TypeID(id)}
		for d := int32(1); len(frontier) > 0; d++ {
			var next []TypeID
			for _, t := range frontier {
				for _, p := range c.types[t].parents {
					if _, ok := anc[p]; !ok {
						anc[p] = d
						next = append(next, p)
					}
				}
			}
			frontier = next
		}
		c.typeAncestors[id] = anc
		row := c.subtypeBits[id*c.subtypeWords:]
		for a := range anc {
			row[a/64] |= 1 << (a % 64)
		}
	}
}

// computeEntityClosures fills the per-entity ancestor runs (T(E) with
// distances), typeEntities (E(T)), minEntityDist and the type signatures:
// a direct-type set (the dist-1 entries of a run) extends the signature
// of all but its last type by the last — {t} through single[t], a longer
// set through a map keyed by (prefix signature, last type).
func (c *Catalog) computeEntityClosures() {
	nT := len(c.types)
	nE := len(c.entities)
	c.typeEntities = make([][]EntityID, nT)
	c.minEntityDist = make([]int32, nT)
	runs := make([]int32, 2*nE+1)
	c.ancStart, c.typeSig = runs[:nE+1:nE+1], runs[nE+1:]
	sigs, multi := int32(0), 0 // at most multi entities have several types
	for e := range c.entities {
		multi += min(len(c.entities[e].types)/2, 1)
	}
	several := make(map[[2]int32]int32, multi)

	// dist(e, t) of the entity at hand, 0 when t is not an ancestor.
	scratch := make([]int32, 2*nT)
	dist, single := scratch[:nT:nT], scratch[nT:]
	var reached []TypeID
	for e := 0; e < nE; e++ {
		sig := int32(0)
		reached = reached[:0]
		for _, direct := range c.entities[e].types {
			// dist(E,T) counts the ∈ edge (1) plus ⊆ edges.
			for t, d := range c.typeAncestors[direct] {
				if old := dist[t]; old == 0 {
					reached = append(reached, t)
					dist[t] = d + 1
				} else if d+1 < old {
					dist[t] = d + 1
				}
			}
		}
		slices.Sort(reached)
		for _, t := range reached {
			d := dist[t]
			dist[t] = 0
			c.ancTypes = append(c.ancTypes, t)
			c.ancDist = append(c.ancDist, d)
			// Entities arrive in ascending order, so E(T) is born sorted.
			c.typeEntities[t] = append(c.typeEntities[t], EntityID(e))
			if c.minEntityDist[t] == 0 || d < c.minEntityDist[t] {
				c.minEntityDist[t] = d
			}
			if d != 1 {
				continue
			}
			key, next := [2]int32{sig, int32(t)}, single[t]
			if sig != 0 {
				next = several[key]
			}
			if next == 0 {
				sigs++
				next = sigs
				if sig == 0 {
					single[t] = next
				} else {
					several[key] = next
				}
			}
			sig = next
		}
		c.typeSig[e] = sig
		c.ancStart[e+1] = int32(len(c.ancTypes))
	}
}

// ancestors returns entity e's run of ancTypes/ancDist.
func (c *Catalog) ancestors(e EntityID) (types []TypeID, dists []int32) {
	lo, hi := c.ancStart[e], c.ancStart[e+1]
	return c.ancTypes[lo:hi:hi], c.ancDist[lo:hi:hi]
}

// computeCoMembership counts |E(T′)∩E(T)| for every pair of types that
// share an entity: for each T′, one pass over the ancestor runs of the
// entities under it. The work is Σ_E |T(E)|² and the result holds at
// most that many pairs (never more than types²), which for a hierarchy
// whose entities sit a few levels deep is a small multiple of |E|.
func (c *Catalog) computeCoMembership() {
	nT := len(c.types)
	c.coStart = make([]int32, nT+1)
	shared := make([]int32, nT) // |E(T′)∩E(t)| for the T′ at hand
	var touched []TypeID
	for tp := 0; tp < nT; tp++ {
		touched = touched[:0]
		for _, e := range c.typeEntities[tp] {
			types, _ := c.ancestors(e)
			for _, t := range types {
				if shared[t] == 0 {
					touched = append(touched, t)
				}
				shared[t]++
			}
		}
		slices.Sort(touched)
		for _, t := range touched {
			c.coTypes = append(c.coTypes, t)
			c.coCounts = append(c.coCounts, shared[t])
			shared[t] = 0
		}
		c.coStart[tp+1] = int32(len(c.coTypes))
	}
}

// computeRelationIndexes builds per-relation subject/object adjacency
// over the distinct tuples, and the per-entity runs of related entities
// that RelationsBetween and HasTuple probe.
func (c *Catalog) computeRelationIndexes() {
	type entry struct {
		self, other EntityID
		dir         RelationDirection
	}
	tuples := 0
	for i := range c.relations {
		tuples += len(c.relations[i].tuples)
	}
	entries := make([]entry, 0, 2*tuples)
	seen := make(map[Tuple]struct{})
	var distinct []Tuple
	for i := range c.relations {
		r := &c.relations[i]
		clear(seen)
		distinct = distinct[:0]
		for _, tp := range r.tuples {
			if _, dup := seen[tp]; dup {
				continue
			}
			seen[tp] = struct{}{}
			distinct = append(distinct, tp)
			entries = append(entries,
				entry{tp.Subject, tp.Object, RelationDirection{Relation: RelationID(i), Forward: true}},
				entry{tp.Object, tp.Subject, RelationDirection{Relation: RelationID(i), Forward: false}})
		}
		r.bySubject = newAdjacency(distinct)
		for k, tp := range distinct {
			distinct[k] = Tuple{Subject: tp.Object, Object: tp.Subject}
		}
		r.byObject = newAdjacency(distinct)
	}
	slices.SortFunc(entries, func(a, b entry) int {
		forwardFirst := 0
		if a.dir.Forward != b.dir.Forward {
			forwardFirst = 1
			if a.dir.Forward {
				forwardFirst = -1
			}
		}
		return cmp.Or(cmp.Compare(a.self, b.self), cmp.Compare(a.other, b.other),
			cmp.Compare(a.dir.Relation, b.dir.Relation), forwardFirst)
	})
	c.relStart = make([]int32, len(c.entities)+1)
	c.relOther = make([]EntityID, len(entries))
	c.relDir = make([]RelationDirection, len(entries))
	for i, en := range entries {
		c.relStart[en.self+1]++
		c.relOther[i] = en.other
		c.relDir[i] = en.dir
	}
	for e := range c.entities {
		c.relStart[e+1] += c.relStart[e]
	}
}

// computeParticipation counts, per relation, the participation of every
// (subject type a, object type u) pair some tuple reaches: for each a in
// order, a subject under a counts once toward every type above one of its
// objects, and such an object once toward every type above it (stamps
// keep either from counting twice); row holds a's counts by u.
func (c *Catalog) computeParticipation() {
	nT := len(c.types)
	c.partStart = make([]int32, len(c.relations)+1)
	row := make([][2]int32, nT)
	under := make([][]int32, nT) // positions in bySubject.keys of the subjects under each type
	typeStamp, entityStamp := make([]int, nT), make([]int, len(c.entities))
	var touched []TypeID
	stamp, round := 0, 0
	for b := range c.relations {
		adj := &c.relations[b].bySubject
		for a := range under {
			under[a] = under[a][:0]
		}
		for k, s := range adj.keys {
			own, _ := c.ancestors(s)
			for _, a := range own {
				under[a] = append(under[a], int32(k))
			}
		}
		for a, subjects := range under {
			round++
			touched = touched[:0]
			for _, k := range subjects {
				stamp++
				for _, o := range adj.others[adj.start[k]:adj.start[k+1]] {
					firstObject := entityStamp[o] != round
					entityStamp[o] = round
					types, _ := c.ancestors(o)
					for _, u := range types {
						if typeStamp[u] != stamp {
							typeStamp[u] = stamp
							if row[u][0] == 0 {
								touched = append(touched, u)
							}
							row[u][0]++
						}
						if firstObject {
							row[u][1]++
						}
					}
				}
			}
			slices.Sort(touched)
			for _, u := range touched {
				c.partSubj = append(c.partSubj, TypeID(a))
				c.partObj = append(c.partObj, u)
				c.partCount = append(c.partCount, row[u])
				row[u] = [2]int32{}
			}
		}
		c.partStart[b+1] = int32(len(c.partSubj))
	}
}

// newAdjacency groups tuples by subject; a stable sort keeps each run in
// tuple order.
func newAdjacency(tuples []Tuple) adjacency {
	bySubject := slices.Clone(tuples)
	slices.SortStableFunc(bySubject, func(a, b Tuple) int { return cmp.Compare(a.Subject, b.Subject) })
	a := adjacency{others: make([]EntityID, len(bySubject))}
	for i, tp := range bySubject {
		if n := len(a.keys); n == 0 || a.keys[n-1] != tp.Subject {
			a.keys = append(a.keys, tp.Subject)
			a.start = append(a.start, int32(i))
		}
		a.others[i] = tp.Object
	}
	a.start = append(a.start, int32(len(bySubject)))
	return a
}

// Clone returns a deep copy of the catalog in the unfrozen state, suitable
// for injecting incompleteness (RemoveEntityType / RemoveSubtype) before
// re-freezing. Frozen closures are not copied; call Freeze on the clone.
func (c *Catalog) Clone() *Catalog {
	out := New()
	out.types = make([]typeNode, len(c.types))
	for i, t := range c.types {
		out.types[i] = typeNode{
			name:     t.name,
			lemmas:   append([]string(nil), t.lemmas...),
			parents:  append([]TypeID(nil), t.parents...),
			children: append([]TypeID(nil), t.children...),
		}
		out.typeByName[t.name] = TypeID(i)
	}
	out.entities = make([]entityNode, len(c.entities))
	for i, e := range c.entities {
		out.entities[i] = entityNode{
			name:   e.name,
			lemmas: append([]string(nil), e.lemmas...),
			types:  append([]TypeID(nil), e.types...),
		}
		out.entityByName[e.name] = EntityID(i)
	}
	out.relations = make([]relationNode, len(c.relations))
	for i, r := range c.relations {
		out.relations[i] = relationNode{
			name:    r.name,
			subject: r.subject,
			object:  r.object,
			card:    r.card,
			tuples:  append([]Tuple(nil), r.tuples...),
		}
		out.relationByName[r.name] = RelationID(i)
	}
	return out
}
