// Package worldgen synthesizes the paper's data assets: a YAGO-like
// catalog (type DAG, ambiguous entity lemmas, binary relations with
// tuples), a degraded "public" catalog with injected incompleteness
// (missing ∈/⊆ links, partial tuple seeds — §4.2.3's motivation), table
// corpora with controlled noise matching the four evaluation datasets of
// Figure 5, and the search workload of §6.2.
//
// Everything is driven by a seeded PRNG, so worlds are reproducible.
package worldgen

import (
	"fmt"
	"math/rand"
)

// Spec controls world scale and noise. Start from DefaultSpec and
// change the fields of interest.
type Spec struct {
	Seed int64

	// Scale knobs.
	FilmsPerGenre    int // entities per film-genre leaf
	NovelsPerGenre   int
	PeoplePerRole    int // actors/directors/producers/novelists/musicians each
	AlbumCount       int
	CountryCount     int
	CitiesPerCountry int
	LanguageCount    int

	// Lemma ambiguity.
	SurnameShareProb float64 // probability a person reuses an existing surname
	TitleWordPool    int     // shared word pool size for work titles

	// Catalog degradation (the published catalog the annotator sees).
	MissingInstanceLinkRate float64 // fraction of duplicate ∈ links dropped
	MissingSubtypeLinkRate  float64 // fraction of ⊆ links dropped (leaf level)
	TupleSeedFraction       float64 // fraction of true tuples kept in catalog
	// EntityAbsenceRate is the fraction of world entities absent from the
	// public catalog entirely (web tables mention far more entities than
	// YAGO knows). Mentions of absent entities have ground truth na.
	EntityAbsenceRate float64
}

// DefaultSpec is the laptop-scale operating point used by tests and the
// experiment harness. It yields a few thousand entities — large enough for
// ambiguity and IDF statistics to be meaningful, small enough for the full
// Figure-6 matrix to run in seconds.
func DefaultSpec() Spec {
	return Spec{
		Seed:                    1,
		FilmsPerGenre:           60,
		NovelsPerGenre:          50,
		PeoplePerRole:           80,
		AlbumCount:              120,
		CountryCount:            40,
		CitiesPerCountry:        4,
		LanguageCount:           30,
		SurnameShareProb:        0.55,
		TitleWordPool:           60,
		MissingInstanceLinkRate: 0.15,
		MissingSubtypeLinkRate:  0.05,
		TupleSeedFraction:       0.45,
		EntityAbsenceRate:       0.12,
	}
}

// validate reports the first scale count that is not positive. Rates
// are taken as given: a rate of 0 asks for none.
func (s Spec) validate() error {
	for _, f := range []struct {
		name string
		n    int
	}{
		{"FilmsPerGenre", s.FilmsPerGenre},
		{"NovelsPerGenre", s.NovelsPerGenre},
		{"PeoplePerRole", s.PeoplePerRole},
		{"AlbumCount", s.AlbumCount},
		{"CountryCount", s.CountryCount},
		{"CitiesPerCountry", s.CitiesPerCountry},
		{"LanguageCount", s.LanguageCount},
		{"TitleWordPool", s.TitleWordPool},
	} {
		if f.n <= 0 {
			return fmt.Errorf("worldgen: Spec.%s must be positive, got %d", f.name, f.n)
		}
	}
	return nil
}

// NoiseProfile controls table rendering fidelity, the axis that separates
// the WikiManual (clean) and WebManual (noisy) datasets.
type NoiseProfile struct {
	// Mention rendering probabilities (must sum to <= 1; remainder is
	// canonical name).
	AltLemmaProb  float64 // render an alternate lemma (surname, short title)
	AbbrevProb    float64 // initial + surname / truncated title
	TypoProb      float64 // one character edit
	DropTokenProb float64 // drop one token from the mention

	// Header behavior.
	HeaderOmitProb  float64 // column rendered with empty header
	HeaderAliasProb float64 // use a synonym header ("written by" for author)

	// Structure noise.
	DistractorColProb float64 // append an unrelated text column
	NumericColProb    float64 // append a numeric attribute column
	ShuffleColsProb   float64 // shuffle column order
	ContextOmitProb   float64 // drop the table context text

	// SpecificTypeTableProb renders a table whose subject column draws
	// from a single leaf subtype ("List of SciFi novels ..."), making the
	// leaf the ground-truth column type instead of the relation's schema
	// type. Exercises the specificity features of §4.2.3.
	SpecificTypeTableProb float64

	// UnrelatedTableProb renders a table whose two entity columns are
	// sampled independently (no relation holds between them); the
	// ground-truth relation label is na. Exercises relation-precision:
	// an uncalibrated voter hallucinates a relation, the collective
	// model should abstain.
	UnrelatedTableProb float64
}

// CleanProfile approximates Wikipedia article tables.
func CleanProfile() NoiseProfile {
	return NoiseProfile{
		AltLemmaProb:          0.15,
		AbbrevProb:            0.10,
		TypoProb:              0.02,
		DropTokenProb:         0.03,
		HeaderOmitProb:        0.05,
		HeaderAliasProb:       0.30,
		DistractorColProb:     0.10,
		NumericColProb:        0.35,
		ShuffleColsProb:       0.25,
		ContextOmitProb:       0.10,
		SpecificTypeTableProb: 0.30,
		UnrelatedTableProb:    0.15,
	}
}

// NoisyProfile approximates open-web tables ("the cell, header, and
// context texts ... are more noisy").
func NoisyProfile() NoiseProfile {
	return NoiseProfile{
		AltLemmaProb:          0.30,
		AbbrevProb:            0.20,
		TypoProb:              0.10,
		DropTokenProb:         0.08,
		HeaderOmitProb:        0.30,
		HeaderAliasProb:       0.45,
		DistractorColProb:     0.20,
		NumericColProb:        0.40,
		ShuffleColsProb:       0.50,
		ContextOmitProb:       0.40,
		SpecificTypeTableProb: 0.25,
		UnrelatedTableProb:    0.20,
	}
}

// LinkProfile approximates the WikiLink dataset: internally-linked
// Wikipedia cells, i.e. nearly canonical mentions.
func LinkProfile() NoiseProfile {
	return NoiseProfile{
		AltLemmaProb:          0.10,
		AbbrevProb:            0.03,
		TypoProb:              0.0,
		DropTokenProb:         0.0,
		HeaderOmitProb:        0.10,
		HeaderAliasProb:       0.25,
		DistractorColProb:     0.05,
		NumericColProb:        0.30,
		ShuffleColsProb:       0.20,
		ContextOmitProb:       0.15,
		SpecificTypeTableProb: 0.30,
		UnrelatedTableProb:    0.10,
	}
}

// pick returns true with probability p.
func pick(rng *rand.Rand, p float64) bool { return rng.Float64() < p }
