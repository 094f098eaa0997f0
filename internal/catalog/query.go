package catalog

import "slices"

// Query methods over the frozen closures. All methods in this file require
// Freeze to have been called; they return zero values otherwise.

// IsA reports whether E ∈+ T (e is transitively an instance of t).
func (c *Catalog) IsA(e EntityID, t TypeID) bool {
	_, ok := c.Dist(e, t)
	return ok
}

// Dist returns dist(E,T), the number of edges (one ∈ edge followed by ⊆*
// edges) on the shortest path from e up to t (§4.2.3). The second result is
// false when e is not reachable from t, which the paper rationalizes as
// dist = ∞.
func (c *Catalog) Dist(e EntityID, t TypeID) (int, bool) {
	if !c.frozen || !c.validEntity(e) {
		return 0, false
	}
	types, dists := c.ancestors(e)
	i, ok := slices.BinarySearch(types, t)
	if !ok {
		return 0, false
	}
	return int(dists[i]), true
}

// TypeDistances returns T(E): every type t with e ∈+ t, sorted by TypeID,
// and dist(E,T) at the same positions. Callers must not mutate either
// slice.
func (c *Catalog) TypeDistances(e EntityID) ([]TypeID, []int32) {
	if !c.frozen || !c.validEntity(e) {
		return nil, nil
	}
	return c.ancestors(e)
}

// TypeSignature numbers e's set of direct types (the dist-1 entries of its
// ancestor run), equal exactly for equal sets. T(E), dist(E,T) and the
// missing-link relatedness are computed from that set alone, so equal
// signatures mean equal TypeDistances and Relatedness for every
// type. No types is 0; an unknown entity or unfrozen catalog is -1.
func (c *Catalog) TypeSignature(e EntityID) int32 {
	if !c.frozen || !c.validEntity(e) {
		return -1
	}
	return c.typeSig[e]
}

// EntitiesOf returns E(T): the entities transitively under t, sorted by
// EntityID. Callers must not mutate the returned slice.
func (c *Catalog) EntitiesOf(t TypeID) []EntityID {
	if !c.frozen || !c.validType(t) {
		return nil
	}
	return c.typeEntities[t]
}

// Specificity models type specificity as |E| / |E(T)| (§4.2.3, the
// IDF-inspired feature). Large values mean t is specific. Types with no
// entities get |E| (maximally specific but useless).
func (c *Catalog) Specificity(t TypeID) float64 {
	if !c.frozen || !c.validType(t) || len(c.entities) == 0 {
		return 0
	}
	n := len(c.typeEntities[t])
	if n == 0 {
		n = 1
	}
	return float64(len(c.entities)) / float64(n)
}

// IsSubtype reports whether a ⊆* b (b is an ancestor of a, or a == b).
func (c *Catalog) IsSubtype(a, b TypeID) bool {
	if !c.frozen || !c.validType(a) || !c.validType(b) {
		return false
	}
	return c.subtypeBits[int(a)*c.subtypeWords+int(b)/64]>>(uint(b)%64)&1 != 0
}

// TypeDist returns the minimum number of ⊆ edges from a up to b, with
// ok=false when b is not an ancestor of a.
func (c *Catalog) TypeDist(a, b TypeID) (int, bool) {
	if !c.frozen || !c.validType(a) || !c.validType(b) {
		return 0, false
	}
	d, ok := c.typeAncestors[a][b]
	return int(d), ok
}

// MinEntityDist returns min over E' ∈ E(T) of dist(E',T), used by the
// missing-link feature's denominator (§4.2.3). Returns 1 when E(T) is
// empty so the feature degrades gracefully instead of dividing by zero.
func (c *Catalog) MinEntityDist(t TypeID) int {
	if !c.frozen || !c.validType(t) || c.minEntityDist[t] == 0 {
		return 1
	}
	return int(c.minEntityDist[t])
}

// OverlapFraction returns |E(T′) ∩ E(T)| / |E(T′)|, the relatedness hint
// that a missing E ∈+ T link is likely (§4.2.3). Returns 0 when E(T′) is
// empty.
func (c *Catalog) OverlapFraction(tPrime, t TypeID) float64 {
	types, counts := c.CoMembers(tPrime)
	i, ok := slices.BinarySearch(types, t)
	if !ok {
		return 0
	}
	return float64(counts[i]) / float64(len(c.typeEntities[tPrime]))
}

// CoMembers returns the types sharing an entity with t′, ascending, and
// at the same positions |E(t′)∩E(T)|, the counts OverlapFraction divides
// by |E(t′)|. Callers must not mutate either slice.
func (c *Catalog) CoMembers(tPrime TypeID) ([]TypeID, []int32) {
	if !c.frozen || !c.validType(tPrime) {
		return nil, nil
	}
	lo, hi := c.coStart[tPrime], c.coStart[tPrime+1]
	return c.coTypes[lo:hi:hi], c.coCounts[lo:hi:hi]
}

// Relatedness implements the full missing-link quantity of §4.2.3: the
// minimum over the immediate parent types T′ of e of
// |E(T′)∩E(T)| / |E(T′)|. When e has no direct types the result is 0.
func (c *Catalog) Relatedness(e EntityID, t TypeID) float64 {
	if !c.frozen || !c.validEntity(e) || !c.validType(t) {
		return 0
	}
	direct := c.entities[e].types
	if len(direct) == 0 {
		return 0
	}
	minFrac := 1.0
	for _, tp := range direct {
		f := c.OverlapFraction(tp, t)
		if f < minFrac {
			minFrac = f
		}
	}
	return minFrac
}

// HasTuple reports whether relation b contains the fact (subject, object).
func (c *Catalog) HasTuple(b RelationID, subject, object EntityID) bool {
	return slices.Contains(c.RelationsBetween(subject, object), RelationDirection{Relation: b, Forward: true})
}

// Objects returns the objects related to subject under b.
func (c *Catalog) Objects(b RelationID, subject EntityID) []EntityID {
	if !c.frozen || !c.validRelation(b) {
		return nil
	}
	return c.relations[b].bySubject.of(subject)
}

// Subjects returns the subjects related to object under b.
func (c *Catalog) Subjects(b RelationID, object EntityID) []EntityID {
	if !c.frozen || !c.validRelation(b) {
		return nil
	}
	return c.relations[b].byObject.of(object)
}

// RelationsBetween returns every relation id b such that the catalog
// contains a tuple b(e1, e2) or b(e2, e1), in ascending relation order
// with b(e1, e2) before b(e2, e1). The bool in the result reports whether
// e1 was the subject (true) or object (false). The result is nil when
// nothing relates the two; callers must not mutate it.
func (c *Catalog) RelationsBetween(e1, e2 EntityID) []RelationDirection {
	if !c.frozen || !c.validEntity(e1) {
		return nil
	}
	lo, hi := int(c.relStart[e1]), int(c.relStart[e1+1])
	others := c.relOther[lo:hi]
	first, found := slices.BinarySearch(others, e2)
	if !found {
		return nil
	}
	end := first + 1
	for end < len(others) && others[end] == e2 {
		end++
	}
	return c.relDir[lo+first : lo+end : lo+end]
}

// RelationDirection pairs a relation with an orientation between two
// column candidates: Forward means (first column = subject).
type RelationDirection struct {
	Relation RelationID
	Forward  bool
}

// Participation returns, for relation b and subject type subj, the
// object types some tuple of b reaches from an entity under subj,
// ascending, and at the same positions two counts: the entities under
// subj with an object of b under that type, and the entities under that
// type with a subject of b under subj. Divided by |E(subj)| and by
// |E(obj)| they are f4's participation fractions (§4.2.4); both are 0 for
// a pair absent from the run. Callers must not mutate the results.
func (c *Catalog) Participation(b RelationID, subj TypeID) (objs []TypeID, counts [][2]int32) {
	if !c.frozen || !c.validRelation(b) {
		return nil, nil
	}
	lo, hi := int(c.partStart[b]), int(c.partStart[b+1])
	i, _ := slices.BinarySearch(c.partSubj[lo:hi], subj)
	n, _ := slices.BinarySearch(c.partSubj[lo+i:hi], subj+1)
	return c.partObj[lo+i : lo+i+n : lo+i+n], c.partCount[lo+i : lo+i+n : lo+i+n]
}

// SchemaMatches reports whether relation b's declared schema (T1,T2) is
// compatible with labeling the subject column tSubj and object column
// tObj, i.e. tSubj ⊆* T1 and tObj ⊆* T2 (first f4 feature, §4.2.4).
func (c *Catalog) SchemaMatches(b RelationID, tSubj, tObj TypeID) bool {
	if !c.frozen || !c.validRelation(b) {
		return false
	}
	r := &c.relations[b]
	return c.IsSubtype(tSubj, r.subject) && c.IsSubtype(tObj, r.object)
}

// LCA returns the least common ancestors of the given set of types: every
// type that is an ancestor of all inputs and has no descendant that is
// also such a common ancestor. Used by the LCA baseline (§4.5.1).
func (c *Catalog) LCA(types []TypeID) []TypeID {
	if !c.frozen || len(types) == 0 {
		return nil
	}
	// Intersect ancestor sets.
	common := make(map[TypeID]struct{})
	for t := range c.typeAncestors[types[0]] {
		common[t] = struct{}{}
	}
	for _, t := range types[1:] {
		anc := c.typeAncestors[t]
		for a := range common {
			if _, ok := anc[a]; !ok {
				delete(common, a)
			}
		}
	}
	// Keep minimal elements: drop any common ancestor that has a strict
	// descendant also in the set.
	var out []TypeID
	for a := range common {
		minimal := true
		for b := range common {
			if b != a && c.IsSubtype(b, a) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, a)
		}
	}
	sortTypeIDs(out)
	return out
}

func sortTypeIDs(ts []TypeID) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
