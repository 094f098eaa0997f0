package webtable

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/search"
	"repro/internal/segment"
	"repro/internal/snapshot"
)

// Sentinel errors of the Service API. Wrapped errors carry context; test
// with errors.Is.
var (
	// ErrNilCatalog reports a nil catalog passed to NewService.
	ErrNilCatalog = errors.New("webtable: nil catalog")
	// ErrNilTable reports a nil table passed to an annotation method.
	ErrNilTable = errors.New("webtable: nil table")
	// ErrNoIndex reports a Search call before any BuildIndex.
	ErrNoIndex = errors.New("webtable: no search index built")
	// ErrUnknownMethod reports an unrecognized annotation method.
	ErrUnknownMethod = errors.New("webtable: unknown annotation method")
	// ErrUnknownName reports a catalog name that failed to resolve.
	ErrUnknownName = errors.New("webtable: name not in catalog")
	// ErrInvalidOption reports an out-of-range functional option value.
	ErrInvalidOption = errors.New("webtable: invalid option")
	// ErrInvalidQuery reports a query missing the inputs its mode needs.
	ErrInvalidQuery = errors.New("webtable: invalid query")
	// ErrInvalidCursor reports a pagination cursor that did not come from
	// a previous SearchResult.NextCursor.
	ErrInvalidCursor = search.ErrInvalidCursor
	// ErrInvalidPageSize reports a negative SearchRequest.PageSize.
	ErrInvalidPageSize = search.ErrInvalidPageSize
	// ErrInvalidMode reports a SearchRequest.Mode outside the defined
	// search modes.
	ErrInvalidMode = search.ErrInvalidMode
	// ErrUnknownTable reports a RemoveTables ID that is not live in the
	// corpus (never added, or already removed). Carried inside a
	// *CorpusError naming the offending IDs.
	ErrUnknownTable = segment.ErrUnknownTable
	// ErrDuplicateTable reports an AddTables table whose ID is already
	// live in the corpus (or repeated within the batch).
	ErrDuplicateTable = segment.ErrDuplicateTable
	// ErrMissingTableID reports an AddTables table with no ID; live
	// corpus tables must be addressable for later removal.
	ErrMissingTableID = segment.ErrMissingTableID
	// ErrNotSnapshot reports a LoadService input that is not a snapshot
	// file at all (bad magic).
	ErrNotSnapshot = snapshot.ErrNotSnapshot
	// ErrSnapshotVersion reports a snapshot of a format version other
	// than the one this build reads.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotChecksum reports a snapshot whose payload failed its
	// checksum (truncated or corrupted in transit).
	ErrSnapshotChecksum = snapshot.ErrChecksum
)

// TableError locates an annotation failure within a corpus call.
type TableError struct {
	// Index is the table's position in the corpus slice.
	Index int
	// TableID is the table's own identifier (empty for nil tables).
	TableID string
	// Err is the underlying failure.
	Err error
}

func (e *TableError) Error() string {
	return fmt.Sprintf("table %d (%q): %v", e.Index, e.TableID, e.Err)
}

func (e *TableError) Unwrap() error { return e.Err }

// CorpusError aggregates the per-table failures of one AnnotateCorpus
// call. The successful tables' annotations are still returned alongside
// it; Failures is ordered by corpus index.
type CorpusError struct {
	Failures []*TableError
}

func (e *CorpusError) Error() string {
	if len(e.Failures) == 1 {
		return fmt.Sprintf("webtable: annotate corpus: %v", e.Failures[0])
	}
	parts := make([]string, 0, len(e.Failures))
	for _, f := range e.Failures {
		parts = append(parts, f.Error())
	}
	return fmt.Sprintf("webtable: annotate corpus: %d tables failed: %s",
		len(e.Failures), strings.Join(parts, "; "))
}

// Unwrap exposes the individual failures to errors.Is / errors.As.
func (e *CorpusError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f
	}
	return out
}

// RequestError locates a search failure within a SearchBatch call.
type RequestError struct {
	// Index is the request's position in the batch slice.
	Index int
	// Err is the underlying failure.
	Err error
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("request %d: %v", e.Index, e.Err)
}

func (e *RequestError) Unwrap() error { return e.Err }

// BatchError aggregates the per-request failures of one SearchBatch
// call. The successful requests' results are still returned alongside
// it; Failures is ordered by batch index.
type BatchError struct {
	Failures []*RequestError
}

func (e *BatchError) Error() string {
	if len(e.Failures) == 1 {
		return fmt.Sprintf("webtable: search batch: %v", e.Failures[0])
	}
	parts := make([]string, 0, len(e.Failures))
	for _, f := range e.Failures {
		parts = append(parts, f.Error())
	}
	return fmt.Sprintf("webtable: search batch: %d requests failed: %s",
		len(e.Failures), strings.Join(parts, "; "))
}

// Unwrap exposes the individual failures to errors.Is / errors.As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f
	}
	return out
}

// QueryError reports an invalid search-query input: an unresolvable name
// or a field a query mode requires but the query leaves unset. This is
// the structured replacement for the old silent catalog.None fallbacks.
type QueryError struct {
	// Field names the offending query input ("relation", "t1", ...).
	Field string
	// Value is the rejected surface form, when there was one.
	Value string
	// Err is the underlying reason (ErrUnknownName, ErrInvalidQuery, ...).
	Err error
}

func (e *QueryError) Error() string {
	if e.Value != "" {
		return fmt.Sprintf("query field %s=%q: %v", e.Field, e.Value, e.Err)
	}
	return fmt.Sprintf("query field %s: %v", e.Field, e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }
