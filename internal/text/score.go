package text

import "slices"

// Scorer compares one query with lemma after lemma, all compiled under
// one VectorSpace, scoring each distinct token pair once: a lemma token's
// first sighting records its JaroWinkler with every query token (1 for
// the identical one, 0 where jaroWinklerBound rules the threshold out),
// and a later one is a lookup by ID. Its memory grows with the distinct
// tokens met since Reset, which must come first. Scores equal pair-at-a-
// time scoring's bit for bit: a walk over the lemma's sorted tokens meets
// shared ones in merge-join order, and when no two distinct tokens reach
// a threshold of at most 1, soft-TFIDF folds the cosine's products.
type Scorer struct {
	q         Vector
	threshold float64
	slots     []int32   // open addressing by lemma-token ID: row+1, 0 when empty
	rows      []memoRow // one per distinct lemma token met since Reset
	sims      []float64 // sims[r*len(q.Tokens)+i]: query token i against row r's token
}

type memoRow struct {
	id   int32 // the lemma token's ID
	same int32 // the index of the identical query token, or -1
	soft bool  // some other query token reaches the threshold
}

// Reset makes s score q at threshold, forgetting every token it has met.
func (s *Scorer) Reset(q Vector, threshold float64) {
	s.q, s.threshold = q, threshold
	s.rows, s.sims = s.rows[:0], s.sims[:0]
	n := max(64, len(s.slots))
	s.slots = slices.Grow(s.slots[:0], n)[:n]
	clear(s.slots) // all empty
}

// Score returns the query's TF-IDF cosine, Jaccard and soft-TFIDF with l.
func (s *Scorer) Score(l *Vector) (cosine, jaccard, soft float64) {
	var dot float64
	shared, anySoft := 0, false
	for j := range l.Tokens {
		lt := &l.Tokens[j]
		row := &s.rows[s.row(lt)]
		if row.same >= 0 {
			dot += s.q.Tokens[row.same].Weight * lt.Weight
			shared++
		}
		anySoft = anySoft || row.soft
	}
	if union := len(s.q.Tokens) + len(l.Tokens) - shared; union != 0 {
		jaccard = float64(shared) / float64(union)
	}
	if s.q.Norm == 0 || l.Norm == 0 {
		return 0, jaccard, 0
	}
	cosine = dot / (s.q.Norm * l.Norm)
	if !anySoft && s.threshold <= 1 {
		return cosine, jaccard, cosine
	}
	// The outer order fixes the fold; the inner one, which token wins a tie.
	var sum float64
	for i := range s.q.Tokens {
		best, bestSim := 0.0, 0.0
		for j := range l.Tokens {
			r := int(s.row(&l.Tokens[j]))
			if sim := s.sims[r*len(s.q.Tokens)+i]; sim >= s.threshold && sim > bestSim {
				bestSim, best = sim, l.Tokens[j].Weight
			}
		}
		if bestSim > 0 {
			sum += s.q.Tokens[i].Weight * best * bestSim
		}
	}
	return cosine, jaccard, sum / (s.q.Norm * l.Norm)
}

// row returns the memo row of lemma token lt, filling it on first sight
// with the token's similarity to each query token, in query order. A
// token outside the vocabulary has no ID and is scored afresh each time.
func (s *Scorer) row(lt *Token) int32 {
	i := s.slot(lt.id)
	if s.slots[i] != 0 {
		return s.slots[i] - 1
	}
	row := memoRow{id: lt.id, same: -1}
	for k := range s.q.Tokens {
		qt := &s.q.Tokens[k]
		sim := 1.0 // the identical token: one ID, or no ID and one spelling
		if qt.id == lt.id && (lt.id != 0 || qt.Text == lt.Text) {
			row.same = int32(k)
		} else {
			sim = 0
			if jaroWinklerBound(qt, lt) >= s.threshold-jaroWinklerSlack {
				sim = jaroWinkler(qt.runes, lt.runes)
			}
			row.soft = row.soft || sim >= s.threshold
		}
		s.sims = append(s.sims, sim)
	}
	s.rows = append(s.rows, row)
	r := int32(len(s.rows) - 1)
	if lt.id != 0 {
		s.slots[i] = r + 1
		if 2*len(s.rows) > len(s.slots) { // grow, re-entering every row with an ID
			s.slots = make([]int32, 2*len(s.slots))
			for r, row := range s.rows {
				if row.id != 0 {
					s.slots[s.slot(row.id)] = int32(r) + 1
				}
			}
		}
	}
	return r
}

// slot returns the slot that holds id's row, or the empty one it goes in.
func (s *Scorer) slot(id int32) int {
	mask := len(s.slots) - 1
	i := int(id) & mask
	for s.slots[i] != 0 && s.rows[s.slots[i]-1].id != id {
		i = (i + 1) & mask
	}
	return i
}
