package server

import (
	"strconv"
	"strings"

	webtable "repro"
)

// SearchRequest is the wire form of POST /v1/search: the §5 query in
// surface forms, resolved against the serving catalog, plus the
// execution controls of webtable.SearchRequest. It is also the shape
// `tabsearch -json` emits against, so CLI and HTTP results are diffable.
type SearchRequest struct {
	// Relation, T1, T2 name the catalog relation and the answer/probe
	// types. E2 is the probe entity's surface form (it may be outside
	// the catalog; matching then falls back to text, per §5).
	Relation string `json:"relation,omitempty"`
	T1       string `json:"t1,omitempty"`
	T2       string `json:"t2,omitempty"`
	E2       string `json:"e2,omitempty"`
	// Context overrides the baseline context keywords (default: the
	// relation name).
	Context string `json:"context,omitempty"`
	// Mode selects the query processor: "baseline", "type" or "typerel"
	// (the default).
	Mode string `json:"mode,omitempty"`
	// PageSize, Cursor and Explain mirror webtable.SearchRequest.
	PageSize int    `json:"page_size,omitempty"`
	Cursor   string `json:"cursor,omitempty"`
	Explain  bool   `json:"explain,omitempty"`
	// Debug attaches an execution-statistics "debug" block to the
	// response (EXPLAIN ANALYZE). Off by default; stats are collected
	// either way, so the flag never changes answers, totals or cursors —
	// only whether the block is serialized.
	Debug bool `json:"debug,omitempty"`
}

// ParseMode resolves a wire mode name. Empty selects TypeRel.
func ParseMode(s string) (webtable.SearchMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "typerel", "type+rel", "type_rel":
		return webtable.SearchTypeRel, nil
	case "type":
		return webtable.SearchType, nil
	case "baseline":
		return webtable.SearchBaseline, nil
	default:
		return 0, &webtable.QueryError{Field: "mode", Value: s, Err: webtable.ErrInvalidMode}
	}
}

// Resolve maps the wire request onto the Service's request form,
// resolving names with Service.ResolveQuery. Unknown relation or type
// names are *webtable.QueryError values wrapping ErrUnknownName (mapped
// to 400 by the handler); an unknown E2 falls back to text matching. The
// baseline mode needs no resolution and runs on the surface forms alone.
func (wr *SearchRequest) Resolve(svc *webtable.Service) (webtable.SearchRequest, error) {
	mode, err := ParseMode(wr.Mode)
	if err != nil {
		return webtable.SearchRequest{}, err
	}
	q := webtable.SearchQuery{
		Relation: webtable.None, T1: webtable.None, T2: webtable.None, E2: webtable.None,
		RelationText: wr.Relation, T1Text: wr.T1, T2Text: wr.T2, E2Text: wr.E2,
	}
	if mode != webtable.SearchBaseline {
		if q, err = svc.ResolveQuery(wr.Relation, wr.T1, wr.T2, wr.E2); err != nil {
			return webtable.SearchRequest{}, err
		}
	}
	if wr.Context != "" {
		q.RelationText = wr.Context
	}
	return webtable.SearchRequest{
		Query:    q,
		Mode:     mode,
		PageSize: wr.PageSize,
		Cursor:   wr.Cursor,
		Explain:  wr.Explain,
		Debug:    wr.Debug,
	}, nil
}

// SearchResponse is the wire form of a search result page. Debug is
// present only when the request asked for it; with it omitted the
// response bytes are identical to a debug-less build.
type SearchResponse struct {
	Answers    []Answer     `json:"answers"`
	Total      int          `json:"total"`
	NextCursor string       `json:"next_cursor,omitempty"`
	Debug      *SearchDebug `json:"debug,omitempty"`
}

// SearchDebug is the response's EXPLAIN ANALYZE block: the execution
// stats of this query, plus — on a routed query — each shard's own
// stats in shard order (the merged counters are exactly their sums).
type SearchDebug struct {
	Stats  ExecStatsWire   `json:"stats"`
	Shards []ExecStatsWire `json:"shards,omitempty"`
}

// ExecStatsWire is the wire form of webtable.SearchExecStats.
type ExecStatsWire struct {
	CandidatePairs    int64          `json:"candidate_pairs"`
	PairsMatched      int64          `json:"pairs_matched"`
	RowsScanned       int64          `json:"rows_scanned"`
	SegmentsVisited   int            `json:"segments_visited"`
	TombstonesSkipped int            `json:"tombstones_skipped"`
	AnswersBeforeTopK int            `json:"answers_before_topk"`
	Parallelism       int            `json:"parallelism"`
	StageNanos        StageNanosWire `json:"stage_nanos"`
}

// StageNanosWire is the per-stage wall-clock breakdown on the wire.
type StageNanosWire struct {
	Validate  int64 `json:"validate"`
	Plan      int64 `json:"plan"`
	Scan      int64 `json:"scan"`
	Aggregate int64 `json:"aggregate"`
	Select    int64 `json:"select"`
	Explain   int64 `json:"explain"`
}

// ToExecStatsWire converts engine execution stats to the wire shape.
func ToExecStatsWire(st *webtable.SearchExecStats) ExecStatsWire {
	if st == nil {
		return ExecStatsWire{}
	}
	return ExecStatsWire{
		CandidatePairs:    st.CandidatePairs,
		PairsMatched:      st.PairsMatched,
		RowsScanned:       st.RowsScanned,
		SegmentsVisited:   st.SegmentsVisited,
		TombstonesSkipped: st.TombstonesSkipped,
		AnswersBeforeTopK: st.AnswersBeforeTopK,
		Parallelism:       st.Parallelism,
		StageNanos: StageNanosWire{
			Validate:  st.Stage.Validate,
			Plan:      st.Stage.Plan,
			Scan:      st.Stage.Scan,
			Aggregate: st.Stage.Aggregate,
			Select:    st.Stage.Select,
			Explain:   st.Stage.Explain,
		},
	}
}

// Answer is one ranked answer on the wire. Entity carries the canonical
// catalog name when the answer aggregated annotated cells.
type Answer struct {
	Text        string       `json:"text"`
	Entity      string       `json:"entity,omitempty"`
	Score       float64      `json:"score"`
	Support     int          `json:"support"`
	Explanation *Explanation `json:"explanation,omitempty"`
}

// Explanation is an answer's provenance on the wire.
type Explanation struct {
	Sources   []Source `json:"sources"`
	Truncated int      `json:"truncated,omitempty"`
}

// Source is one contributing answer cell.
type Source struct {
	Table int     `json:"table"`
	Row   int     `json:"row"`
	Col   int     `json:"col"`
	Score float64 `json:"score"`
}

// ToSearchResponse converts an engine result to the wire shape. It
// needs no catalog (the parameter remains for its callers' sake, and may
// be nil): an entity-backed answer's Text is the catalog's canonical
// entity name by construction, so the wire Entity field is filled from
// the answer itself — which is what lets a router, holding no catalog,
// emit the same bytes as a single node.
func ToSearchResponse(_ *webtable.Catalog, res *webtable.SearchResult) SearchResponse {
	out := SearchResponse{
		Answers:    make([]Answer, len(res.Answers)),
		Total:      res.Total,
		NextCursor: res.NextCursor,
	}
	for i, a := range res.Answers {
		wa := Answer{Text: a.Text, Score: a.Score, Support: a.Support}
		if a.Entity != webtable.None {
			wa.Entity = a.Text
		}
		if a.Explanation != nil {
			ex := &Explanation{
				Sources:   make([]Source, len(a.Explanation.Sources)),
				Truncated: a.Explanation.Truncated,
			}
			for j, s := range a.Explanation.Sources {
				ex.Sources[j] = Source{Table: s.Table, Row: s.Row, Col: s.Col, Score: s.Score}
			}
			wa.Explanation = ex
		}
		out.Answers[i] = wa
	}
	return out
}

// BatchRequest is the wire form of POST /v1/search:batch.
type BatchRequest struct {
	Requests []SearchRequest `json:"requests"`
}

// BatchResponse carries one entry per batch request: Results is parallel
// to the request list with nil for failed entries, whose failures appear
// in Errors ordered by index. Partial failure is a 200 — the response
// body, not the status line, carries per-item outcomes.
type BatchResponse struct {
	Results []*SearchResponse `json:"results"`
	Errors  []BatchItemError  `json:"errors,omitempty"`
}

// BatchItemError locates one failed batch entry.
type BatchItemError struct {
	Index int       `json:"index"`
	Error ErrorBody `json:"error"`
}

// AnnotateRequest is the wire form of POST /v1/annotate.
type AnnotateRequest struct {
	// Table is the table to annotate, in the corpus JSON shape
	// ({id, context, headers, cells}).
	Table *webtable.Table `json:"table"`
	// Method selects inference: collective (default), simple, lca or
	// majority.
	Method string `json:"method,omitempty"`
}

// Annotation is the wire form of one table's annotation result, with
// catalog IDs resolved to names. It is shared with tabann's JSON output.
type Annotation struct {
	TableID string `json:"table_id"`
	// ColumnTypes maps column index (as a string key) to type name.
	ColumnTypes map[string]string `json:"column_types,omitempty"`
	Cells       []AnnotatedCell   `json:"cells,omitempty"`
	Relations   []AnnotatedRel    `json:"relations,omitempty"`
	Millis      float64           `json:"annotate_ms"`
}

// AnnotatedCell is one entity-labeled cell.
type AnnotatedCell struct {
	Row    int    `json:"row"`
	Col    int    `json:"col"`
	Entity string `json:"entity"`
}

// AnnotatedRel is one relation-labeled column pair.
type AnnotatedRel struct {
	Col1     int    `json:"col1"`
	Col2     int    `json:"col2"`
	Relation string `json:"relation"`
	Forward  bool   `json:"col1_is_subject"`
}

// ToAnnotation converts an annotation to the wire shape, resolving IDs
// to catalog names and dropping na labels.
func ToAnnotation(cat *webtable.Catalog, a *webtable.Annotation) Annotation {
	out := Annotation{
		TableID:     a.TableID,
		ColumnTypes: make(map[string]string),
		Millis:      float64(a.Diag.Total().Microseconds()) / 1000,
	}
	for c, T := range a.ColumnTypes {
		if T != webtable.None {
			out.ColumnTypes[strconv.Itoa(c)] = cat.TypeName(T)
		}
	}
	for r, row := range a.CellEntities {
		for c, e := range row {
			if e != webtable.None {
				out.Cells = append(out.Cells, AnnotatedCell{Row: r, Col: c, Entity: cat.EntityName(e)})
			}
		}
	}
	for _, ra := range a.Relations {
		out.Relations = append(out.Relations, AnnotatedRel{
			Col1: ra.Col1, Col2: ra.Col2,
			Relation: cat.RelationName(ra.Relation), Forward: ra.Forward,
		})
	}
	return out
}

// CorpusStats is the live corpus's wire counters: table and segment
// counts plus the index generation, which every mutation and compaction
// bumps (watch it to detect concurrent corpus changes between calls).
type CorpusStats struct {
	Tables          int    `json:"tables"`
	AnnotatedTables int    `json:"annotated_tables"`
	Segments        int    `json:"segments"`
	Tombstones      int    `json:"tombstones,omitempty"`
	IndexGeneration uint64 `json:"index_generation"`
}

// toCorpusStats converts service corpus counters to the wire shape.
func toCorpusStats(cs webtable.CorpusStats) CorpusStats {
	return CorpusStats{
		Tables:          cs.Tables,
		AnnotatedTables: cs.Annotated,
		Segments:        cs.Segments,
		Tombstones:      cs.Tombstones,
		IndexGeneration: cs.Generation,
	}
}

// AddTablesRequest is the wire form of POST /v1/tables.
type AddTablesRequest struct {
	// Tables are the tables to annotate and index, in the corpus JSON
	// shape ({id, context, headers, cells}). Every table needs a
	// corpus-unique non-empty id.
	Tables []*webtable.Table `json:"tables"`
	// Method selects annotation inference: collective (default), simple,
	// lca or majority.
	Method string `json:"method,omitempty"`
}

// MutateResponse answers a corpus mutation with the batch size and the
// post-mutation corpus counters.
type MutateResponse struct {
	Added   int `json:"added,omitempty"`
	Removed int `json:"removed,omitempty"`
	CorpusStats
}

// SnapshotResponse is the wire form of POST /v1/snapshot.
type SnapshotResponse struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
	CorpusStats
}

// StatsResponse is the wire form of GET /v1/stats.
type StatsResponse struct {
	CorpusStats
	IndexBuilt bool `json:"index_built"`
	Workers    int  `json:"workers"`
	// Parallelism is always 1 (a search scans on the goroutine that
	// runs it); the key predates that and clients may read it.
	Parallelism int          `json:"parallelism"`
	InFlight    int64        `json:"in_flight"`
	Catalog     CatalogStats `json:"catalog"`
}

// CatalogStats summarizes the serving catalog.
type CatalogStats struct {
	Types     int `json:"types"`
	Entities  int `json:"entities"`
	Relations int `json:"relations"`
	Tuples    int `json:"tuples"`
}

// ErrorResponse is the structured error body every non-2xx response
// carries.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody describes one failure.
type ErrorBody struct {
	// Code is a stable machine-readable slug ("invalid_cursor",
	// "no_index", ...).
	Code string `json:"code"`
	// Message is the underlying error text.
	Message string `json:"message"`
	// Field names the offending request field, when one is known.
	Field string `json:"field,omitempty"`
	// RequestID echoes the X-Request-ID of the failed request.
	RequestID string `json:"request_id,omitempty"`
}
