package search

import "slices"

// pageEntry pairs an aggregated cluster with its rank key.
type pageEntry struct {
	c   *cluster
	key rankKey
}

// topK keeps the k best-ranked entries seen so far in a min-heap whose
// root is the worst retained entry, so selecting a page of k answers from
// n candidates costs O(n log k) instead of sorting all n.
type topK struct {
	k       int
	entries []pageEntry
}

func newTopK(k int) *topK { return &topK{k: k} }

// offer considers one candidate, keeping it only if it ranks among the
// best k seen.
func (h *topK) offer(e pageEntry) {
	if h.k <= 0 {
		return
	}
	if len(h.entries) < h.k {
		h.entries = append(h.entries, e)
		h.up(len(h.entries) - 1)
		return
	}
	// Root is the worst retained entry; replace it when e ranks before it.
	if e.key.before(h.entries[0].key) {
		h.entries[0] = e
		h.down(0)
	}
}

// worseThanRoot reports heap order: i ranks after j (the root holds the
// entry ranked last among those retained).
func (h *topK) worse(i, j int) bool { return h.entries[j].key.before(h.entries[i].key) }

func (h *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			break
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

func (h *topK) down(i int) {
	n := len(h.entries)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h.entries[i], h.entries[worst] = h.entries[worst], h.entries[i]
		i = worst
	}
}

// ranked drains the heap into rank order (best first). Costs O(k log k).
func (h *topK) ranked() []pageEntry {
	out := h.entries
	h.entries = nil
	sortRanked(out)
	return out
}

// sortRanked sorts entries into rank order. A rank is a total order, so
// an unstable sort has one outcome.
func sortRanked(entries []pageEntry) {
	slices.SortFunc(entries, func(a, b pageEntry) int {
		switch {
		case a.key.before(b.key):
			return -1
		case b.key.before(a.key):
			return 1
		}
		return 0
	})
}
