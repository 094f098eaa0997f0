// Package catalog implements the entity/type/relation catalog of §3.1: a
// type hierarchy forming a DAG under the subtype relation ⊆, entities that
// are instances (∈) of one or more types, lemmas describing both, and named
// binary relations B(T1,T2) with a tuple store. It plays the role YAGO
// plays in the paper; any catalog with this shape can be modeled.
//
// A Catalog is built incrementally (AddType, AddEntity, ...), then Freeze
// compiles every question the annotator asks per potential-table entry
// into sorted flat arrays, so that each is a binary search of a short run
// and none allocates:
//
//   - E(T), ascending, and T(E) with dist(E,T), one run per entity
//     (IsA, Dist, TypeDistances);
//   - |E(T′)∩E(T)| for every ordered pair of types that share an entity,
//     one run per T′ (CoMembers, OverlapFraction, Relatedness). A pair
//     sharing nothing is absent, so the table holds at most Σ_E |T(E)|²
//     counts and never more than types²;
//   - for every entity, the entities some tuple joins it with, each
//     tagged with the relation and the direction: two entries per
//     distinct tuple (RelationsBetween, HasTuple);
//   - per relation, subject/object adjacency runs and the participation
//     counts of every type pair its tuples reach (Participation);
//   - type ancestor sets.
//
// On the generated catalog of internal/worldgen (40 types, 1190
// entities, 752 tuples) that is 404 co-membership counts, 1504
// related-pair entries and 433 participation entries, about 33 KB,
// beside 44 KB of ancestor runs.
// After Freeze the catalog is immutable and safe for concurrent readers.
package catalog

import (
	"errors"
	"fmt"
	"slices"
)

// TypeID identifies a type in the catalog. IDs are dense, starting at 0.
type TypeID int32

// EntityID identifies an entity in the catalog.
type EntityID int32

// RelationID identifies a binary relation name in the catalog.
type RelationID int32

// None is the sentinel for "no id" / the paper's na label when an ID-typed
// value is required.
const None = -1

// Cardinality describes the functional constraints of a relation, used by
// feature f5's second element (§4.2.5) to penalize violations.
type Cardinality uint8

// Cardinality values.
const (
	ManyToMany Cardinality = iota
	OneToMany              // a subject may relate to many objects; each object has one subject
	ManyToOne              // each subject has exactly one object
	OneToOne
)

func (c Cardinality) String() string {
	switch c {
	case OneToMany:
		return "1:N"
	case ManyToOne:
		return "N:1"
	case OneToOne:
		return "1:1"
	default:
		return "N:N"
	}
}

// FunctionalSubject reports whether each object admits at most one subject.
func (c Cardinality) FunctionalSubject() bool { return c == OneToMany || c == OneToOne }

// FunctionalObject reports whether each subject admits at most one object.
func (c Cardinality) FunctionalObject() bool { return c == ManyToOne || c == OneToOne }

// Tuple is one row B(Subject, Object) of a binary relation.
type Tuple struct {
	Subject EntityID
	Object  EntityID
}

type typeNode struct {
	name     string
	lemmas   []string
	parents  []TypeID
	children []TypeID
}

type entityNode struct {
	name   string
	lemmas []string
	types  []TypeID // direct ∈ types
}

type relationNode struct {
	name    string
	subject TypeID
	object  TypeID
	card    Cardinality
	tuples  []Tuple

	// Frozen indexes, over the distinct tuples in first-occurrence order.
	bySubject, byObject adjacency
}

// adjacency lists, for each entity on one side of a relation's distinct
// tuples, the entities on the other side: keys ascending, and the run of
// keys[k] is others[start[k]:start[k+1]], in tuple order.
type adjacency struct {
	keys   []EntityID
	start  []int32
	others []EntityID
}

// of returns e's run, nil when no tuple has e on this side.
func (a *adjacency) of(e EntityID) []EntityID {
	k, ok := slices.BinarySearch(a.keys, e)
	if !ok {
		return nil
	}
	lo, hi := a.start[k], a.start[k+1]
	return a.others[lo:hi:hi]
}

// Catalog is the complete catalog. Zero value is unusable; use New.
type Catalog struct {
	frozen bool

	types     []typeNode
	entities  []entityNode
	relations []relationNode

	typeByName     map[string]TypeID
	entityByName   map[string]EntityID
	relationByName map[string]RelationID

	root TypeID // set at Freeze

	// Frozen closures.
	typeEntities  [][]EntityID       // E(T), sorted ascending
	typeAncestors []map[TypeID]int32 // proper+self ancestors of each type with edge distance (self=0)
	minEntityDist []int32            // min over E'∈E(T) of dist(E',T); 0 if E(T) empty

	// The ⊆* closure as bits, for IsSubtype (the query planner asks once
	// per posted column pair): bit b of the subtypeWords words from
	// subtypeBits[a*subtypeWords] is set when b is a or an ancestor of a.
	// typeAncestors keeps the distances, for TypeDist and the walks.
	subtypeBits  []uint64
	subtypeWords int

	// T(E), one run per entity: e's ancestors are
	// ancTypes[ancStart[e]:ancStart[e+1]], ascending, each with dist(E,T)
	// at the same position of ancDist.
	ancStart []int32
	ancTypes []TypeID
	ancDist  []int32
	// typeSig[e] numbers e's set of direct types (TypeSignature).
	typeSig []int32

	// Type co-membership, one run per type: the types sharing an entity
	// with T′ are coTypes[coStart[T′]:coStart[T′+1]], ascending, each with
	// |E(T′)∩E(T)| at the same position of coCounts. A pair of types
	// without a common entity is absent.
	coStart  []int32
	coTypes  []TypeID
	coCounts []int32

	// Related entity pairs, one run per entity: relOther[relStart[e]:
	// relStart[e+1]] lists, ascending, the entities some tuple joins with
	// e, once per relation and direction; relDir holds that relation and
	// whether e is its subject, by relation and forward first among equal
	// entities.
	relStart []int32
	relOther []EntityID
	relDir   []RelationDirection

	// Participation (§4.2.4), one run per relation: partSubj/partObj[
	// partStart[b]:partStart[b+1]] list, ascending, the (subject type,
	// object type) pairs some tuple of b reaches; partCount holds at the
	// same position how many entities under the subject type have an
	// object under the object type, and how many under the object type
	// have a subject under the subject type.
	partStart []int32
	partSubj  []TypeID
	partObj   []TypeID
	partCount [][2]int32
}

// New returns an empty, unfrozen catalog.
func New() *Catalog {
	return &Catalog{
		typeByName:     make(map[string]TypeID),
		entityByName:   make(map[string]EntityID),
		relationByName: make(map[string]RelationID),
	}
}

// Errors returned by catalog mutation and lookup.
var (
	ErrFrozen    = errors.New("catalog: frozen; mutations not allowed")
	ErrDuplicate = errors.New("catalog: duplicate name")
	ErrBadID     = errors.New("catalog: id out of range")
	ErrCycle     = errors.New("catalog: subtype relation contains a cycle")
)

// NumTypes reports the number of types.
func (c *Catalog) NumTypes() int { return len(c.types) }

// NumEntities reports the number of entities.
func (c *Catalog) NumEntities() int { return len(c.entities) }

// NumRelations reports the number of relation names.
func (c *Catalog) NumRelations() int { return len(c.relations) }

// Frozen reports whether Freeze has completed.
func (c *Catalog) Frozen() bool { return c.frozen }

// AddType registers a type with the given canonical name and lemmas. The
// canonical name is always included as a lemma. Returns the new TypeID.
func (c *Catalog) AddType(name string, lemmas ...string) (TypeID, error) {
	if c.frozen {
		return None, ErrFrozen
	}
	if _, dup := c.typeByName[name]; dup {
		return None, fmt.Errorf("%w: type %q", ErrDuplicate, name)
	}
	id := TypeID(len(c.types))
	c.types = append(c.types, typeNode{name: name, lemmas: withName(name, lemmas)})
	c.typeByName[name] = id
	return id, nil
}

// AddSubtype declares child ⊆ parent (an edge parent→child in the DAG).
// Cycles are detected at Freeze time.
func (c *Catalog) AddSubtype(child, parent TypeID) error {
	if c.frozen {
		return ErrFrozen
	}
	if !c.validType(child) || !c.validType(parent) {
		return fmt.Errorf("%w: subtype(%d,%d)", ErrBadID, child, parent)
	}
	if child == parent {
		return fmt.Errorf("%w: self edge on type %d", ErrCycle, child)
	}
	for _, p := range c.types[child].parents {
		if p == parent {
			return nil // idempotent
		}
	}
	c.types[child].parents = append(c.types[child].parents, parent)
	c.types[parent].children = append(c.types[parent].children, child)
	return nil
}

// AddEntity registers an entity with its lemmas and direct types. The
// canonical name is always included as a lemma.
func (c *Catalog) AddEntity(name string, lemmas []string, types ...TypeID) (EntityID, error) {
	if c.frozen {
		return None, ErrFrozen
	}
	if _, dup := c.entityByName[name]; dup {
		return None, fmt.Errorf("%w: entity %q", ErrDuplicate, name)
	}
	for _, t := range types {
		if !c.validType(t) {
			return None, fmt.Errorf("%w: entity %q type %d", ErrBadID, name, t)
		}
	}
	id := EntityID(len(c.entities))
	c.entities = append(c.entities, entityNode{name: name, lemmas: withName(name, lemmas), types: append([]TypeID(nil), types...)})
	c.entityByName[name] = id
	return id, nil
}

// AddRelation registers a binary relation with schema B(subject, object)
// and a cardinality constraint.
func (c *Catalog) AddRelation(name string, subject, object TypeID, card Cardinality) (RelationID, error) {
	if c.frozen {
		return None, ErrFrozen
	}
	if _, dup := c.relationByName[name]; dup {
		return None, fmt.Errorf("%w: relation %q", ErrDuplicate, name)
	}
	if !c.validType(subject) || !c.validType(object) {
		return None, fmt.Errorf("%w: relation %q schema (%d,%d)", ErrBadID, name, subject, object)
	}
	id := RelationID(len(c.relations))
	c.relations = append(c.relations, relationNode{name: name, subject: subject, object: object, card: card})
	c.relationByName[name] = id
	return id, nil
}

// AddTuple appends the fact B(subject, object) to relation b.
func (c *Catalog) AddTuple(b RelationID, subject, object EntityID) error {
	if c.frozen {
		return ErrFrozen
	}
	if !c.validRelation(b) {
		return fmt.Errorf("%w: relation %d", ErrBadID, b)
	}
	if !c.validEntity(subject) || !c.validEntity(object) {
		return fmt.Errorf("%w: tuple(%d,%d)", ErrBadID, subject, object)
	}
	c.relations[b].tuples = append(c.relations[b].tuples, Tuple{subject, object})
	return nil
}

// RemoveEntityType drops a direct ∈ link, simulating catalog
// incompleteness (§4.2.3 "Missing links"). No-op if absent.
func (c *Catalog) RemoveEntityType(e EntityID, t TypeID) error {
	if c.frozen {
		return ErrFrozen
	}
	if !c.validEntity(e) {
		return fmt.Errorf("%w: entity %d", ErrBadID, e)
	}
	ts := c.entities[e].types
	for i, have := range ts {
		if have == t {
			c.entities[e].types = append(ts[:i], ts[i+1:]...)
			return nil
		}
	}
	return nil
}

// RemoveSubtype drops a ⊆ link, simulating catalog incompleteness.
func (c *Catalog) RemoveSubtype(child, parent TypeID) error {
	if c.frozen {
		return ErrFrozen
	}
	if !c.validType(child) || !c.validType(parent) {
		return fmt.Errorf("%w: subtype(%d,%d)", ErrBadID, child, parent)
	}
	ps := c.types[child].parents
	for i, p := range ps {
		if p == parent {
			c.types[child].parents = append(ps[:i], ps[i+1:]...)
			break
		}
	}
	cs := c.types[parent].children
	for i, ch := range cs {
		if ch == child {
			c.types[parent].children = append(cs[:i], cs[i+1:]...)
			break
		}
	}
	return nil
}

// TypeName returns the canonical name of t.
func (c *Catalog) TypeName(t TypeID) string {
	if !c.validType(t) {
		return fmt.Sprintf("<type %d>", t)
	}
	return c.types[t].name
}

// EntityName returns the canonical name of e.
func (c *Catalog) EntityName(e EntityID) string {
	if !c.validEntity(e) {
		return fmt.Sprintf("<entity %d>", e)
	}
	return c.entities[e].name
}

// RelationName returns the canonical name of b.
func (c *Catalog) RelationName(b RelationID) string {
	if !c.validRelation(b) {
		return fmt.Sprintf("<relation %d>", b)
	}
	return c.relations[b].name
}

// TypeByName looks a type up by canonical name.
func (c *Catalog) TypeByName(name string) (TypeID, bool) {
	id, ok := c.typeByName[name]
	return id, ok
}

// EntityByName looks an entity up by canonical name.
func (c *Catalog) EntityByName(name string) (EntityID, bool) {
	id, ok := c.entityByName[name]
	return id, ok
}

// RelationByName looks a relation up by canonical name.
func (c *Catalog) RelationByName(name string) (RelationID, bool) {
	id, ok := c.relationByName[name]
	return id, ok
}

// TypeLemmas returns L(T), the lemmas describing type t.
func (c *Catalog) TypeLemmas(t TypeID) []string {
	if !c.validType(t) {
		return nil
	}
	return c.types[t].lemmas
}

// EntityLemmas returns L(E), the lemmas describing entity e.
func (c *Catalog) EntityLemmas(e EntityID) []string {
	if !c.validEntity(e) {
		return nil
	}
	return c.entities[e].lemmas
}

// DirectTypes returns the direct ∈ types of e (not the closure).
func (c *Catalog) DirectTypes(e EntityID) []TypeID {
	if !c.validEntity(e) {
		return nil
	}
	return c.entities[e].types
}

// Parents returns the direct supertypes of t.
func (c *Catalog) Parents(t TypeID) []TypeID {
	if !c.validType(t) {
		return nil
	}
	return c.types[t].parents
}

// Children returns the direct subtypes of t.
func (c *Catalog) Children(t TypeID) []TypeID {
	if !c.validType(t) {
		return nil
	}
	return c.types[t].children
}

// RelationSchema returns the declared schema (subject type, object type)
// and cardinality of b.
func (c *Catalog) RelationSchema(b RelationID) (subject, object TypeID, card Cardinality) {
	if !c.validRelation(b) {
		return None, None, ManyToMany
	}
	r := &c.relations[b]
	return r.subject, r.object, r.card
}

// Tuples returns the tuple list of relation b. Callers must not mutate it.
func (c *Catalog) Tuples(b RelationID) []Tuple {
	if !c.validRelation(b) {
		return nil
	}
	return c.relations[b].tuples
}

// Root returns the root type (valid after Freeze).
func (c *Catalog) Root() TypeID { return c.root }

func (c *Catalog) validType(t TypeID) bool {
	return t >= 0 && int(t) < len(c.types)
}

func (c *Catalog) validEntity(e EntityID) bool {
	return e >= 0 && int(e) < len(c.entities)
}

func (c *Catalog) validRelation(b RelationID) bool {
	return b >= 0 && int(b) < len(c.relations)
}

func withName(name string, lemmas []string) []string {
	for _, l := range lemmas {
		if l == name {
			return append([]string(nil), lemmas...)
		}
	}
	out := make([]string, 0, len(lemmas)+1)
	out = append(out, name)
	out = append(out, lemmas...)
	return out
}
