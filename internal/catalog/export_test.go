package catalog

import "slices"

// Methods only tests call: three lookups, and the per-query references
// the participation counts Freeze computes are held to.

// TypeAncestorsOf returns T(E), the first half of TypeDistances.
func (c *Catalog) TypeAncestorsOf(e EntityID) []TypeID {
	types, _ := c.TypeDistances(e)
	return types
}

// EntityCount returns |E(T)|.
func (c *Catalog) EntityCount(t TypeID) int {
	if !c.frozen || !c.validType(t) {
		return 0
	}
	return len(c.typeEntities[t])
}

// AncestorsOf returns all ancestors of t including t itself, sorted.
func (c *Catalog) AncestorsOf(t TypeID) []TypeID {
	if !c.frozen || !c.validType(t) {
		return nil
	}
	anc := c.typeAncestors[t]
	out := make([]TypeID, 0, len(anc))
	for a := range anc {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// ParticipationFraction is the reference for the first of f4's
// participation fractions (§4.2.4), as the feature extractor computed it
// per (relation, type, type) before Freeze counted them: the fraction of
// entities under tSubj that appear as subjects of b with an object in
// tObj.
func (c *Catalog) ParticipationFraction(b RelationID, tSubj, tObj TypeID) float64 {
	if !c.frozen || !c.validRelation(b) || !c.validType(tSubj) || !c.validType(tObj) {
		return 0
	}
	under := c.typeEntities[tSubj]
	if len(under) == 0 {
		return 0
	}
	r := &c.relations[b]
	// Iterate the smaller side: either entities under tSubj or tuples.
	count := 0
	if len(r.tuples) < len(under) {
		seen := make(map[EntityID]struct{})
		for _, tp := range r.tuples {
			if _, dup := seen[tp.Subject]; dup {
				continue
			}
			if c.IsA(tp.Subject, tSubj) {
				// Does this subject relate to any object under tObj?
				for _, o := range r.bySubject.of(tp.Subject) {
					if c.IsA(o, tObj) {
						seen[tp.Subject] = struct{}{}
						count++
						break
					}
				}
			}
		}
	} else {
		for _, e := range under {
			for _, o := range r.bySubject.of(e) {
				if c.IsA(o, tObj) {
					count++
					break
				}
			}
		}
	}
	return float64(count) / float64(len(under))
}

// ReverseParticipation is the reference for the second fraction: the
// fraction of entities under tObj that appear as objects of b with a
// subject in tSubj.
func (c *Catalog) ReverseParticipation(b RelationID, tSubj, tObj TypeID) float64 {
	under := c.EntitiesOf(tObj)
	if len(under) == 0 {
		return 0
	}
	count := 0
	for _, e := range under {
		for _, s := range c.Subjects(b, e) {
			if c.IsA(s, tSubj) {
				count++
				break
			}
		}
	}
	return float64(count) / float64(len(under))
}
