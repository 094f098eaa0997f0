package search

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Sentinel errors of the request surface; test with errors.Is.
var (
	// ErrInvalidCursor reports a pagination cursor that did not come
	// from a previous Result.NextCursor (or was corrupted in transit).
	ErrInvalidCursor = errors.New("search: invalid cursor")
	// ErrInvalidPageSize reports a negative Request.PageSize.
	ErrInvalidPageSize = errors.New("search: invalid page size")
	// ErrInvalidMode reports a Request.Mode outside the defined modes.
	ErrInvalidMode = errors.New("search: invalid mode")
)

// Request is one relational search call: the §5 query plus execution
// controls. The zero values of the control fields are the Figure-9
// experiment defaults: full ranking, first page, no explanations.
type Request struct {
	// Query is the §5 select-project query R(E1 ∈ T1, E2 ∈ T2).
	Query Query
	// Mode selects the query processor (Baseline / Type / TypeRel).
	Mode Mode
	// PageSize bounds the answers returned (top-k). 0 returns every
	// answer after Cursor in one page.
	PageSize int
	// Cursor resumes a paginated ranking: pass the previous Result's
	// NextCursor to fetch the next page. Empty starts from the top.
	Cursor string
	// Explain attaches per-answer provenance (contributing table cells
	// and their evidence scores) to each returned Answer.
	Explain bool
	// Debug asks the serving layer to include execution statistics in
	// the wire response. The engine collects Result.Stats
	// unconditionally (the counters are a handful of integer adds);
	// Debug only controls whether they are exposed on the wire, so it
	// can never change what the query computes.
	Debug bool
}

// Result is the response to one Request.
type Result struct {
	// Answers is this page of the ranking, best first.
	Answers []Answer
	// Total is the number of distinct answers the query has across all
	// pages (the full ranking's length, not this page's).
	Total int
	// NextCursor resumes the ranking after the last answer of this page;
	// empty when the ranking is exhausted.
	NextCursor string
	// Stats describes what this execution cost. Always populated by
	// Execute and MergePartials; never influences Answers, Total or
	// NextCursor. The counters are deterministic, the stage timings are
	// wall clock (see ExecStats).
	Stats *ExecStats
}

// Validate checks the execution controls of the request (page size and
// mode range; query-field requirements are the caller's concern). This
// is the single owner of those range checks — Engine.Execute calls it,
// and the service layer wraps its sentinels with field context.
func (req Request) Validate() error {
	if req.PageSize < 0 {
		return fmt.Errorf("%w: %d", ErrInvalidPageSize, req.PageSize)
	}
	if req.Mode > TypeRel {
		return fmt.Errorf("%w: mode %d", ErrInvalidMode, req.Mode)
	}
	return nil
}

// MaxExplainSources caps the provenance entries recorded per answer; the
// remainder is reported in Explanation.Truncated. Answer.Support always
// counts every contributing row.
const MaxExplainSources = 16

// Explanation is the provenance of one answer: which table cells
// contributed evidence, in corpus scan order.
type Explanation struct {
	// Sources lists contributing answer cells (at most
	// MaxExplainSources).
	Sources []SourceRef
	// Truncated counts contributing cells dropped beyond the cap.
	Truncated int
}

// SourceRef is one contributing answer cell.
type SourceRef struct {
	// Table indexes the corpus the engine's index was built over; Row
	// and Col address the answer cell within it.
	Table, Row, Col int
	// Score is the evidence that row contributed to the answer.
	Score float64
}

// rankKey is the total order of the ranking: score desc, support desc,
// text asc, then the unique cluster key so no two answers ever compare
// equal (which makes pagination cursors exact).
type rankKey struct {
	score   float64
	support int
	text    string
	key     string
}

// before reports whether a ranks strictly ahead of b.
func (a rankKey) before(b rankKey) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.support != b.support {
		return a.support > b.support
	}
	if a.text != b.text {
		return a.text < b.text
	}
	return a.key < b.key
}

// cursorPayload is the wire form of a rankKey. Score travels as its IEEE
// bits so the round trip is exact.
type cursorPayload struct {
	S uint64 `json:"s"`
	U int    `json:"u"`
	T string `json:"t"`
	K string `json:"k"`
}

func encodeCursor(k rankKey) string {
	raw, _ := json.Marshal(cursorPayload{
		S: math.Float64bits(k.score), U: k.support, T: k.text, K: k.key,
	})
	return base64.RawURLEncoding.EncodeToString(raw)
}

// decodeCursor decodes an optional cursor into the rank key to resume
// strictly after; nil for the empty cursor (start at the top). Beyond
// the encoding it rejects payloads no encodeCursor call can have
// produced — a NaN score (which compares false against every rank key
// both ways, so it would filter out the whole ranking), a negative
// support, a key that is not a cluster key — so a forged cursor is an
// error, never a silently empty page.
func decodeCursor(s string) (*rankKey, error) {
	if s == "" {
		return nil, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidCursor, err)
	}
	var p cursorPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidCursor, err)
	}
	k := rankKey{score: math.Float64frombits(p.S), support: p.U, text: p.T, key: p.K}
	switch {
	case math.IsNaN(k.score):
		return nil, fmt.Errorf("%w: score is not a number", ErrInvalidCursor)
	case k.support < 0:
		return nil, fmt.Errorf("%w: negative support %d", ErrInvalidCursor, k.support)
	case !strings.HasPrefix(k.key, "e:") && !strings.HasPrefix(k.key, "t:"):
		return nil, fmt.Errorf("%w: key %q is not a cluster key", ErrInvalidCursor, k.key)
	}
	return &k, nil
}
