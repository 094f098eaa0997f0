package worldgen

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
)

// RelationInfo carries the rendering metadata of one world relation:
// header synonyms per column and context vocabulary, used when tables are
// generated and when search queries are posed as strings.
type RelationInfo struct {
	Name           string
	Subject        catalog.TypeID
	Object         catalog.TypeID
	SubjectAliases []string // header strings for the subject column
	ObjectAliases  []string // header strings for the object column
	ContextWords   []string // phrases seeding table context text
}

// World is a complete synthetic universe.
type World struct {
	Spec Spec

	// True is the full world knowledge: used to generate tables, as
	// ground truth, and as the DBPedia-stand-in for search evaluation.
	True *catalog.Catalog
	// Public is the degraded catalog the annotator sees: missing ∈/⊆
	// links, only a seed fraction of tuples, and some entities absent
	// entirely (IDs match True).
	Public *catalog.Catalog
	// Absent marks entities missing from the public catalog; mentions of
	// these entities carry ground truth na.
	Absent map[catalog.EntityID]bool

	// Relations in generation order; Rel(name) looks up by name.
	Relations []RelationInfo

	rng *rand.Rand
}

// Rel returns the RelationInfo with the given name.
func (w *World) Rel(name string) (RelationInfo, bool) {
	for _, ri := range w.Relations {
		if ri.Name == name {
			return ri, true
		}
	}
	return RelationInfo{}, false
}

// RelID resolves a relation name to its catalog ID (same in True and
// Public).
func (w *World) RelID(name string) catalog.RelationID {
	id, ok := w.True.RelationByName(name)
	if !ok {
		panic(fmt.Sprintf("worldgen: unknown relation %q", name))
	}
	return id
}

// Build constructs a world from the spec. The same seed always yields the
// same world.
func Build(spec Spec) (*World, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	w := &World{Spec: spec, rng: rng}
	nm := newNamer(rng, spec.TitleWordPool)

	c := catalog.New()
	mustType := func(name string, lemmas ...string) catalog.TypeID {
		id, err := c.AddType(name, lemmas...)
		if err != nil {
			panic(err)
		}
		return id
	}
	sub := func(child, parent catalog.TypeID) {
		if err := c.AddSubtype(child, parent); err != nil {
			panic(err)
		}
	}

	// ---- Type hierarchy ----
	// Deliberately deep (YAGO-style): GT-level types sit 2-3 levels below
	// the root with named abstractions above them, so an over-generalizing
	// labeler (LCA) lands on a *wrong* named type rather than near the
	// ground truth.
	work := mustType("Work", "works", "creative work")
	visual := mustType("VisualWork", "visual works")
	written := mustType("WrittenWork", "written works", "publication")
	musical := mustType("MusicalWork", "musical works")
	sub(visual, work)
	sub(written, work)
	sub(musical, work)
	film := mustType("Film", "film", "movie", "motion picture")
	novel := mustType("Novel", "novel", "book")
	album := mustType("Album", "album", "record")
	sub(film, visual)
	sub(novel, written)
	sub(album, musical)

	person := mustType("Person", "person", "people")
	performer := mustType("Performer", "performers")
	crew := mustType("FilmCrew", "film crew")
	writerKind := mustType("WriterKind", "writers")
	sub(performer, person)
	sub(crew, person)
	sub(writerKind, person)
	actor := mustType("Actor", "actor", "actress", "cast")
	director := mustType("Director", "director", "filmmaker")
	producer := mustType("Producer", "producer")
	novelist := mustType("Novelist", "novelist", "author", "writer")
	musician := mustType("Musician", "musician", "artist", "band")
	sub(actor, performer)
	sub(musician, performer)
	sub(director, crew)
	sub(producer, crew)
	sub(novelist, writerKind)

	place := mustType("Place", "place", "location")
	populated := mustType("PopulatedPlace", "populated places")
	sub(populated, place)
	country := mustType("Country", "country", "nation")
	city := mustType("City", "city", "town")
	sub(country, populated)
	sub(city, populated)
	language := mustType("Language", "language")

	filmGenres := []string{"Action", "Drama", "Comedy", "SciFi"}
	novelGenres := []string{"Mystery", "SciFi", "Romance", "Historical"}
	decades := []string{"1950s", "1960s", "1970s", "1980s", "1990s"}

	filmGenreIDs := make([]catalog.TypeID, len(filmGenres))
	for i, g := range filmGenres {
		filmGenreIDs[i] = mustType(g+"Film", lower(g)+" films", lower(g)+" movies")
		sub(filmGenreIDs[i], film)
	}
	filmDecadeIDs := make([]catalog.TypeID, len(decades))
	for i, d := range decades {
		filmDecadeIDs[i] = mustType("Films"+d, d+" films")
		sub(filmDecadeIDs[i], film)
	}
	novelGenreIDs := make([]catalog.TypeID, len(novelGenres))
	for i, g := range novelGenres {
		novelGenreIDs[i] = mustType(g+"Novel", lower(g)+" novels", lower(g)+" books")
		sub(novelGenreIDs[i], novel)
	}
	novelDecadeIDs := make([]catalog.TypeID, len(decades))
	for i, d := range decades {
		novelDecadeIDs[i] = mustType("Novels"+d, d+" novels")
		sub(novelDecadeIDs[i], novel)
	}

	mustEntity := func(name string, lemmas []string, types ...catalog.TypeID) catalog.EntityID {
		id, err := c.AddEntity(name, lemmas, types...)
		if err != nil {
			panic(err)
		}
		return id
	}

	// ---- Entities ----
	var films, novels, albums []catalog.EntityID
	for gi, g := range filmGenreIDs {
		_ = gi
		for i := 0; i < spec.FilmsPerGenre; i++ {
			title := nm.title()
			lemmas := []string{}
			if ab := abbreviate(title); ab != title {
				lemmas = append(lemmas, ab)
			}
			dec := filmDecadeIDs[rng.Intn(len(filmDecadeIDs))]
			films = append(films, mustEntity(title, lemmas, g, dec))
		}
	}
	for _, g := range novelGenreIDs {
		for i := 0; i < spec.NovelsPerGenre; i++ {
			title := nm.title()
			lemmas := []string{}
			if ab := abbreviate(title); ab != title {
				lemmas = append(lemmas, ab)
			}
			dec := novelDecadeIDs[rng.Intn(len(novelDecadeIDs))]
			novels = append(novels, mustEntity(title, lemmas, g, dec))
		}
	}
	for i := 0; i < spec.AlbumCount; i++ {
		albums = append(albums, mustEntity(nm.title(), nil, album))
	}

	roleTypes := []catalog.TypeID{actor, director, producer, novelist, musician}
	people := make([][]catalog.EntityID, len(roleTypes))
	for ri, role := range roleTypes {
		for i := 0; i < spec.PeoplePerRole; i++ {
			full, given, surname := nm.personName(spec.SurnameShareProb)
			lemmas := []string{given[:1] + ". " + surname, surname}
			types := []catalog.TypeID{role}
			if pick(rng, 0.1) { // dual-role people (actor-directors etc.)
				other := roleTypes[rng.Intn(len(roleTypes))]
				if other != role {
					types = append(types, other)
				}
			}
			people[ri] = append(people[ri], mustEntity(full, lemmas, types...))
		}
	}
	actors, directors, producers, novelists, musicians := people[0], people[1], people[2], people[3], people[4]

	var countries, cities, languages []catalog.EntityID
	for i := 0; i < spec.CountryCount; i++ {
		countries = append(countries, mustEntity(nm.place(), nil, country))
	}
	for _, co := range countries {
		for i := 0; i < spec.CitiesPerCountry; i++ {
			name := nm.place()
			lemmas := []string{}
			if pick(rng, 0.15) {
				// A city sharing its country's name (New York / New York).
				lemmas = append(lemmas, c.EntityName(co))
			}
			cities = append(cities, mustEntity(name, lemmas, city))
		}
	}
	for i := 0; i < spec.LanguageCount; i++ {
		languages = append(languages, mustEntity(nm.place()+"ish", nil, language))
	}

	// ---- Relations & tuples ----
	addRel := func(name string, subj, obj catalog.TypeID, card catalog.Cardinality, subjAl, objAl, ctx []string) catalog.RelationID {
		id, err := c.AddRelation(name, subj, obj, card)
		if err != nil {
			panic(err)
		}
		w.Relations = append(w.Relations, RelationInfo{
			Name: name, Subject: subj, Object: obj,
			SubjectAliases: subjAl, ObjectAliases: objAl, ContextWords: ctx,
		})
		return id
	}
	tuple := func(b catalog.RelationID, s, o catalog.EntityID) {
		if err := c.AddTuple(b, s, o); err != nil {
			panic(err)
		}
	}

	actedIn := addRel("actedIn", film, actor, catalog.ManyToMany,
		[]string{"Movie", "Film", "Title"},
		[]string{"Actor", "Starring", "Cast"},
		[]string{"films and their cast", "who starred in", "movie actors"})
	directed := addRel("directed", film, director, catalog.ManyToOne,
		[]string{"Movie", "Film", "Title"},
		[]string{"Director", "Directed by", "Filmmaker"},
		[]string{"films and their directors", "directed movies", "filmography"})
	produced := addRel("produced", film, producer, catalog.ManyToMany,
		[]string{"Movie", "Film", "Title"},
		[]string{"Producer", "Produced by"},
		[]string{"film producers", "produced the movie"})
	wrote := addRel("wrote", novel, novelist, catalog.ManyToOne,
		[]string{"Novel", "Title", "Book"},
		[]string{"Author", "Written by", "Novelist", "Writer"},
		[]string{"novels and their authors", "books written by", "bibliography"})
	officialLang := addRel("language", country, language, catalog.ManyToMany,
		[]string{"Country", "Nation"},
		[]string{"Language", "Official language", "Spoken"},
		[]string{"countries and languages", "official languages of"})
	performedBy := addRel("performedBy", album, musician, catalog.ManyToOne,
		[]string{"Album", "Record", "Title"},
		[]string{"Artist", "Musician", "Performed by", "Band"},
		[]string{"albums and artists", "discography"})
	capitalOf := addRel("capitalOf", city, country, catalog.OneToOne,
		[]string{"Capital", "City"},
		[]string{"Country", "Nation"},
		[]string{"capitals of countries", "national capitals"})
	bornIn := addRel("bornIn", person, city, catalog.ManyToOne,
		[]string{"Name", "Person"},
		[]string{"Birthplace", "Born in", "City"},
		[]string{"birthplaces", "born in"})

	for _, f := range films {
		tuple(directed, f, directors[rng.Intn(len(directors))])
		na := 2 + rng.Intn(3)
		perm := rng.Perm(len(actors))
		for i := 0; i < na; i++ {
			tuple(actedIn, f, actors[perm[i]])
		}
		np := 1 + rng.Intn(2)
		pperm := rng.Perm(len(producers))
		for i := 0; i < np; i++ {
			tuple(produced, f, producers[pperm[i]])
		}
	}
	for _, n := range novels {
		tuple(wrote, n, novelists[rng.Intn(len(novelists))])
	}
	for _, al := range albums {
		tuple(performedBy, al, musicians[rng.Intn(len(musicians))])
	}
	for ci, co := range countries {
		nl := 1 + rng.Intn(2)
		perm := rng.Perm(len(languages))
		for i := 0; i < nl; i++ {
			tuple(officialLang, co, languages[perm[i]])
		}
		// First city of each country is its capital.
		tuple(capitalOf, cities[ci*spec.CitiesPerCountry], co)
	}
	for _, group := range people {
		for _, p := range group {
			tuple(bornIn, p, cities[rng.Intn(len(cities))])
		}
	}

	if err := c.Freeze(); err != nil {
		return nil, fmt.Errorf("worldgen: freeze true catalog: %w", err)
	}
	w.True = c

	pub, absent, err := degrade(c, spec, rand.New(rand.NewSource(spec.Seed+1)))
	if err != nil {
		return nil, err
	}
	w.Public = pub
	w.Absent = absent
	return w, nil
}

// degrade produces the published (incomplete) catalog: some ∈ links of
// multi-typed entities dropped, some leaf ⊆ links dropped, only a seed
// fraction of tuples retained (§4.2.3 and §1.2: "the seed tuples we start
// with ... are only a small fraction of all the tuples"), and a fraction
// of entities made entirely unfindable — the web mentions far more
// entities than any catalog holds.
func degrade(full *catalog.Catalog, spec Spec, rng *rand.Rand) (*catalog.Catalog, map[catalog.EntityID]bool, error) {
	pub := full.Clone()
	for e := 0; e < pub.NumEntities(); e++ {
		id := catalog.EntityID(e)
		direct := pub.DirectTypes(id)
		if len(direct) >= 2 && pick(rng, spec.MissingInstanceLinkRate) {
			drop := direct[rng.Intn(len(direct))]
			if err := pub.RemoveEntityType(id, drop); err != nil {
				return nil, nil, err
			}
		}
	}
	for t := 0; t < pub.NumTypes(); t++ {
		id := catalog.TypeID(t)
		parents := pub.Parents(id)
		if len(parents) == 1 && len(pub.Children(id)) == 0 && pick(rng, spec.MissingSubtypeLinkRate) {
			if err := pub.RemoveSubtype(id, parents[0]); err != nil {
				return nil, nil, err
			}
		}
	}
	// Rebuild via snapshot: thin the tuple store and erase absent
	// entities' names and lemmas (IDs must stay aligned with True, so the
	// slot remains but is unfindable — its tombstone name has no
	// indexable tokens).
	snap := pub.Snapshot()
	absent := make(map[catalog.EntityID]bool)
	for i := range snap.Entities {
		if pick(rng, spec.EntityAbsenceRate) {
			id := catalog.EntityID(i)
			absent[id] = true
			snap.Entities[i].Name = tombstone(i)
			snap.Entities[i].Lemmas = nil
			snap.Entities[i].Types = nil
		}
	}
	for i := range snap.Relations {
		kept := snap.Relations[i].Tuples[:0:0]
		for _, tp := range snap.Relations[i].Tuples {
			if absent[tp.Subject] || absent[tp.Object] {
				continue
			}
			if pick(rng, spec.TupleSeedFraction) {
				kept = append(kept, tp)
			}
		}
		snap.Relations[i].Tuples = kept
	}
	rebuilt, err := catalog.FromSnapshot(snap)
	if err != nil {
		return nil, nil, fmt.Errorf("worldgen: rebuild public catalog: %w", err)
	}
	if err := rebuilt.Freeze(); err != nil {
		return nil, nil, fmt.Errorf("worldgen: freeze public catalog: %w", err)
	}
	return rebuilt, absent, nil
}

// tombstone names an absent entity's slot with punctuation-only runes so
// it tokenizes to nothing and can never be retrieved as a candidate.
func tombstone(i int) string {
	const digits = "·‡§¶†‖※"
	runes := []rune(digits)
	out := []rune{'⟂'}
	for {
		out = append(out, runes[i%len(runes)])
		i /= len(runes)
		if i == 0 {
			break
		}
	}
	return string(out)
}

func lower(s string) string {
	out := []rune(s)
	for i, r := range out {
		if r >= 'A' && r <= 'Z' {
			out[i] = r + 32
		}
	}
	return string(out)
}
