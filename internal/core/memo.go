package core

import (
	"sync"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/lemmaindex"
	"repro/internal/obs"
)

// Annotation counters on the process-global registry every /metrics
// merges in; an annotation adds its counts once per stage.
var (
	memoTotal = obs.Default().Counter("annotate_candidate_memo_total",
		"Cells whose candidates came from the candidate memo (hit) or from a lemma-index probe (miss).", "result")
	bpWalks = obs.Default().Counter("bp_factor_walks_total",
		"BP factor sweeps that walked the factor's table (walked) or skipped it, its incoming messages unchanged to the bit (skipped).", "result")
)

// candidateMemo remembers the candidates (§4.3) of each normalised cell
// text for as long as its annotator lives: a probe derives everything
// from the cell's text.Normalize form, and the same entities fill table
// after table. Safe for concurrent use.
//
// Two generations bound it. New entries go into the current one, an entry
// found in the old one is copied forward, and a current generation that
// would outgrow limit becomes the old one, the old one's memory starting
// the next. An entry costs its candidates, one for its map slot, and its
// key's bytes in candidates.
type candidateMemo struct {
	mu       sync.Mutex
	limit    int
	cur, old memoGen
}

type memoGen struct {
	at    map[string]memoSpan
	cands []lemmaindex.Candidate
	held  int
}

// memoSpan is an entry's run of cands.
type memoSpan struct{ off, n int32 }

const candidateBytes = int(unsafe.Sizeof(lemmaindex.Candidate{}))

// newCandidateMemo sizes a generation at 2 × MaxCandidates candidates per
// entity of the catalog.
func newCandidateMemo(cat *catalog.Catalog, cfg lemmaindex.Config) *candidateMemo {
	return &candidateMemo{limit: 2 * cat.NumEntities() * cfg.MaxCandidates}
}

// appendCandidates appends to dst the candidates memoised under key, a
// normalised cell text, and reports whether there were any. Nothing it
// returns points into the memo.
func (m *candidateMemo) appendCandidates(dst []lemmaindex.Candidate, key []byte) ([]lemmaindex.Candidate, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.cur.at[string(key)]; ok {
		return append(dst, m.cur.cands[s.off:s.off+s.n]...), true
	}
	s, ok := m.old.at[string(key)]
	if ok {
		base := len(dst)
		dst = append(dst, m.old.cands[s.off:s.off+s.n]...)
		m.insertLocked(string(key), dst[base:])
	}
	return dst, ok
}

// insert memoises a copy of cands under key.
func (m *candidateMemo) insert(key []byte, cands []lemmaindex.Candidate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.insertLocked(string(key), cands)
}

func (m *candidateMemo) insertLocked(key string, cands []lemmaindex.Candidate) {
	cost := len(cands) + 1 + len(key)/candidateBytes
	if cost > m.limit {
		return
	}
	if m.cur.held+cost > m.limit {
		m.cur, m.old = m.old, m.cur
		clear(m.cur.at)
		m.cur.cands, m.cur.held = m.cur.cands[:0], 0
	}
	if m.cur.at == nil {
		m.cur.at = map[string]memoSpan{}
	}
	m.cur.at[key] = memoSpan{off: int32(len(m.cur.cands)), n: int32(len(cands))}
	m.cur.cands = append(m.cur.cands, cands...)
	m.cur.held += cost
}
