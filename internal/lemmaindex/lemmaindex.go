// Package lemmaindex implements the text index of §4.3: an inverted index
// over catalog lemmas used to collect candidate entities E_rc for each
// cell based on token overlap between the cell text and entity lemmas, and
// to compute the similarity profiles consumed by features f1 and f2.
//
// Build compiles every entity and type lemma exactly once into a
// text.Vector (canonical spelling, sorted distinct tokens with TF-IDF
// weights and decoded runes, norm) and derives the postings from the
// compiled tokens. A cell probe (CandidateEntities, ProfileFor) compiles
// its cell once into a Query; a header arrives already compiled
// (TypeHeaderSim takes a Query), because one header is compared with
// every candidate type of its column and the caller compiles it once per
// column. A Query scores each distinct token pair once, however many
// lemmas repeat it: no lemma is tokenised, normalised or vectorised after
// Build, and a probe allocates nothing in a Probe its caller reuses
// (AppendCandidates). The index is immutable after Build and a probe
// writes only to its stack, its Probe and the candidates it returns, so
// annotation workers share one Index without synchronisation.
//
// The paper reports that ~80% of its annotation time went into probing
// this index and computing textual similarities, as did this
// implementation while every comparison re-tokenised both strings
// (`tabeval -exp fig7`: candidate generation 75% of a collective
// annotation, potential construction 11%, inference 14%). With compiled
// lemmas, top-k probes and pooled arenas, and each token pair scored once
// per probe, `tabeval -exp fig7 -scale 0.05` reads about 42% / 24% / 34%
// (≈3.3 ms a table on a 2-core machine, where scoring pair by pair read
// ≈4.4 ms). The experiment reports what it measures.
package lemmaindex

import (
	"slices"

	"repro/internal/catalog"
	"repro/internal/text"
)

// SimilarityProfile aggregates, per similarity measure, the maximum over
// an item's lemmas of sim(cellText, lemma) — the "elements in a vector
// f1(r,c,E)" of §4.2.1.
type SimilarityProfile struct {
	Cosine    float64 // TF-IDF cosine (Salton & McGill)
	Jaccard   float64 // token-set Jaccard
	SoftTFIDF float64 // Bilenko et al. soft cosine, JaroWinkler >= 0.9
	Exact     float64 // 1 when a lemma normalizes identically to the text
}

// Candidate is one entity hypothesis for a cell.
type Candidate struct {
	Entity catalog.EntityID
	Sim    SimilarityProfile
	// Score is the retrieval score used for top-k pruning (max of Cosine
	// and SoftTFIDF so typo-only matches survive).
	Score float64
}

// Config tunes candidate generation.
type Config struct {
	// MaxCandidates caps |E_rc| per cell (paper: typically 7-8 candidates
	// per cell were in play).
	MaxCandidates int
	// MaxProbeTokens caps how many (highest-IDF) cell tokens probe the
	// index; guards against long cells fanning out.
	MaxProbeTokens int
	// MaxPostingLen skips tokens whose posting list is longer than this —
	// stop-word-like tokens ("the") match everything and add only noise.
	MaxPostingLen int
	// MinScore prunes candidates with retrieval score below this.
	MinScore float64
	// SoftThreshold is the JaroWinkler secondary threshold for SoftTFIDF.
	SoftThreshold float64
}

// DefaultConfig mirrors the paper's operating point.
func DefaultConfig() Config {
	return Config{
		MaxCandidates:  8,
		MaxProbeTokens: 6,
		MaxPostingLen:  2000,
		MinScore:       0.05,
		SoftThreshold:  0.90,
	}
}

// Index is the frozen lemma index over one catalog.
type Index struct {
	cat *catalog.Catalog
	cfg Config
	vs  *text.VectorSpace

	// The entity postings, one CSR run keyed by token ID in vs: token k's
	// entities, deduped and ascending, are postIDs[postOff[k]:postOff[k+1]].
	// ID 0, a token no lemma has, has none.
	postOff []uint32
	postIDs []catalog.EntityID
	// entityLemmas[i] holds entity i's lemmas, compiled.
	entityLemmas [][]text.Vector
	// typeLemmas[i] holds type i's lemmas, compiled.
	typeLemmas [][]text.Vector
}

// Build indexes every entity and type lemma of a frozen catalog.
func Build(cat *catalog.Catalog, cfg Config) *Index {
	ix := &Index{cat: cat, cfg: cfg, vs: text.NewVectorSpace()}
	// Pass 1: corpus statistics over all lemmas.
	for e := 0; e < cat.NumEntities(); e++ {
		for _, l := range cat.EntityLemmas(catalog.EntityID(e)) {
			ix.vs.Add(l)
		}
	}
	for t := 0; t < cat.NumTypes(); t++ {
		for _, l := range cat.TypeLemmas(catalog.TypeID(t)) {
			ix.vs.Add(l)
		}
	}
	// Pass 2: compile each lemma once; its tokens feed the postings as
	// token<<32 | entity pairs, sorted, deduped and counted into offsets.
	ix.entityLemmas = make([][]text.Vector, cat.NumEntities())
	var posts []uint64
	for e := range ix.entityLemmas {
		lemmas := cat.EntityLemmas(catalog.EntityID(e))
		ix.entityLemmas[e] = make([]text.Vector, len(lemmas))
		for i, l := range lemmas {
			v := ix.vs.Vectorize(l)
			ix.entityLemmas[e][i] = v
			for j := range v.Tokens {
				posts = append(posts, uint64(v.Tokens[j].ID())<<32|uint64(e))
			}
		}
	}
	slices.Sort(posts)
	posts = slices.Compact(posts)
	ix.postOff = make([]uint32, ix.vs.Terms()+2)
	ix.postIDs = make([]catalog.EntityID, len(posts))
	for i, p := range posts {
		ix.postIDs[i] = catalog.EntityID(uint32(p))
		ix.postOff[p>>32+1]++
	}
	for k := 1; k < len(ix.postOff); k++ {
		ix.postOff[k] += ix.postOff[k-1]
	}
	ix.typeLemmas = make([][]text.Vector, cat.NumTypes())
	for t := 0; t < cat.NumTypes(); t++ {
		lemmas := cat.TypeLemmas(catalog.TypeID(t))
		vecs := make([]text.Vector, len(lemmas))
		for i, l := range lemmas {
			vecs[i] = ix.vs.Vectorize(l)
		}
		ix.typeLemmas[t] = vecs
	}
	return ix
}

// VectorSpace exposes the lemma corpus statistics (shared with the search
// index so IDF values agree).
func (ix *Index) VectorSpace() *text.VectorSpace { return ix.vs }

// Catalog returns the indexed catalog.
func (ix *Index) Catalog() *catalog.Catalog { return ix.cat }

// CandidateEntities returns the top candidates for a cell text, scored by
// lemma similarity, descending. A cell without tokens (empty, or only
// punctuation) returns nil, as does one none of whose tokens is indexed;
// digits are tokens like any other, so "1987" probes the index.
func (ix *Index) CandidateEntities(cell string) []Candidate {
	return ix.AppendCandidates(nil, cell, &Probe{})
}

// Query is a string compiled under an index, with the text.Scorer that
// remembers its token pairs. Once grown, compiling (under any index) and
// scoring allocate nothing.
type Query struct {
	vec     text.Vector
	scratch text.Scratch
	scorer  text.Scorer
}

// Compile compiles s into q under the index's VectorSpace.
func (ix *Index) Compile(q *Query, s string) {
	q.vec = ix.vs.VectorizeInto(s, &q.scratch)
	q.scorer.Reset(q.vec, ix.cfg.SoftThreshold)
}

// Probe is the memory a probe works in, which one goroutine probing cell
// after cell reuses: once grown, a probe allocates nothing.
type Probe struct {
	cell  Query
	probe []text.Token
	union []catalog.EntityID
}

// AppendCandidates appends cell's CandidateEntities to dst, working in p.
// Walking the pool by ascending entity, it keeps the best MaxCandidates
// so far by (score desc, entity asc): a candidate enters behind every one
// scoring at least as much, and into a full list only by beating the last.
func (ix *Index) AppendCandidates(dst []Candidate, cell string, p *Probe) []Candidate {
	ix.Compile(&p.cell, cell)
	p.probe = ix.vs.TopTokens(p.probe[:0], p.cell.vec, ix.cfg.MaxProbeTokens)
	pool := ix.pool(p)
	k := ix.cfg.MaxCandidates
	if len(pool) == 0 || k <= 0 {
		return dst
	}
	base := len(dst)
	dst = slices.Grow(dst, min(k, len(pool)))
	for _, e := range pool {
		sim := p.cell.profile(ix.entityLemmas[e])
		score := max(sim.Cosine, sim.SoftTFIDF)
		if score < ix.cfg.MinScore {
			continue
		}
		if len(dst)-base == k {
			if score <= dst[len(dst)-1].Score {
				continue
			}
			dst = dst[:len(dst)-1]
		}
		i := len(dst)
		for i > base && dst[i-1].Score < score {
			i--
		}
		dst = slices.Insert(dst, i, Candidate{Entity: e, Sim: sim, Score: score})
	}
	return dst
}

// postings returns the posting list a probe token contributes: none when
// the token is unindexed or stop-word-like (longer than MaxPostingLen).
func (ix *Index) postings(tok *text.Token) []catalog.EntityID {
	id := tok.ID()
	post := ix.postIDs[ix.postOff[id]:ix.postOff[id+1]]
	if len(post) > ix.cfg.MaxPostingLen {
		return nil
	}
	return post
}

// pool returns the union of the probe tokens' posting lists, ascending,
// built in p. The result may alias the index's own storage and must not
// be written.
func (ix *Index) pool(p *Probe) []catalog.EntityID {
	var only []catalog.EntityID
	lists, total := 0, 0
	for i := range p.probe {
		if post := ix.postings(&p.probe[i]); len(post) > 0 {
			only, lists, total = post, lists+1, total+len(post)
		}
	}
	if lists <= 1 {
		return only
	}
	union := slices.Grow(p.union[:0], total)
	for i := range p.probe {
		union = append(union, ix.postings(&p.probe[i])...)
	}
	slices.Sort(union)
	p.union = slices.Compact(union)
	return p.union
}

// ProfileFor computes the similarity profile of an arbitrary entity
// against a cell text, bypassing retrieval. Used when scoring ground-truth
// labels during training even if retrieval missed them.
func (ix *Index) ProfileFor(e catalog.EntityID, cell string) SimilarityProfile {
	var q Query
	ix.Compile(&q, cell)
	return q.profile(ix.entityLemmas[e])
}

// TypeHeaderSim returns the max over L(T) of sim(header, lemma) as a
// profile (feature f2, §4.2.2). The header arrives compiled (Compile),
// once per column, and remembers its token pairs across the column's
// types. A header without tokens yields the zero profile.
func (ix *Index) TypeHeaderSim(t catalog.TypeID, header *Query) SimilarityProfile {
	return header.profile(ix.typeLemmas[t])
}

// profile takes, per measure, the maximum over an item's compiled lemmas
// of sim(q, lemma), one pass of q's scorer per lemma. SoftTFIDF is the
// typo-tolerant channel: where a lemma matches exactly or the cosine
// reaches 0.999 it reads the cosine instead.
func (q *Query) profile(lemmas []text.Vector) SimilarityProfile {
	var p SimilarityProfile
	for i := range lemmas {
		l := &lemmas[i]
		cos, j, s := q.scorer.Score(l)
		p.Cosine, p.Jaccard = max(p.Cosine, cos), max(p.Jaccard, j)
		if s > p.SoftTFIDF {
			p.SoftTFIDF = s
		}
		if l.Text == q.vec.Text && q.vec.Text != "" {
			p.Exact = 1
		}
	}
	if p.Exact != 0 || !(p.Cosine < 0.999) {
		p.SoftTFIDF = p.Cosine
	}
	return p
}
