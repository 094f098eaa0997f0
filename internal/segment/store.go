package segment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/searchidx"
	"repro/internal/table"
)

// Sentinel errors of the mutation API; test with errors.Is.
var (
	// ErrMissingTableID reports a table added without an ID; live-corpus
	// tables must be addressable for later removal.
	ErrMissingTableID = errors.New("segment: table has no id")
	// ErrDuplicateTable reports an added table whose ID is already live
	// in the corpus (or repeated within the batch).
	ErrDuplicateTable = errors.New("segment: table id already in corpus")
	// ErrUnknownTable reports a removal of a table ID that is not live.
	ErrUnknownTable = errors.New("segment: table id not in corpus")
)

// TableError locates one rejected table within an Add or Remove batch.
type TableError struct {
	// Index is the table's position in the call's input slice.
	Index int
	// ID is the offending table ID ("" for a missing one).
	ID string
	// Err is the underlying reason.
	Err error
}

func (e *TableError) Error() string {
	return fmt.Sprintf("table %d (%q): %v", e.Index, e.ID, e.Err)
}

func (e *TableError) Unwrap() error { return e.Err }

// BatchError aggregates every rejected table of one mutation. Mutations
// are all-or-nothing: when a BatchError is returned the corpus is
// unchanged.
type BatchError struct {
	Tables []*TableError
}

func (e *BatchError) Error() string {
	parts := make([]string, len(e.Tables))
	for i, te := range e.Tables {
		parts[i] = te.Error()
	}
	return fmt.Sprintf("segment: %d tables rejected: %s", len(e.Tables), strings.Join(parts, "; "))
}

// Unwrap exposes the individual rejections to errors.Is / errors.As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Tables))
	for i, te := range e.Tables {
		out[i] = te
	}
	return out
}

// Seed restores one persisted segment when constructing a store.
type Seed struct {
	// ID is the segment's persisted identity; 0 assigns a fresh one.
	ID uint64
	// Index is the segment compiled: decoded from its section, or built.
	Index *searchidx.Index
	// Dead lists the segment's tombstoned local table numbers.
	Dead []int
}

// Config assembles a store.
type Config struct {
	// Policy tunes compaction; zero fields take defaults.
	Policy CompactionPolicy
	// AutoCompact runs the background compactor after every mutation.
	// The compactor goroutine starts lazily on the first mutation and is
	// stopped by Close.
	AutoCompact bool
	// Generation restores a persisted corpus generation (fresh stores
	// start at 0; the first mutation makes it 1).
	Generation uint64
	// Seeds restores persisted segments, in corpus order.
	Seeds []Seed
}

// Store owns the live corpus: the current View plus the machinery that
// mutates it. Mutations (Add, Remove, Replace, Compact) are serialized
// by an internal lock and swap the view atomically; readers call View
// and never block.
type Store struct {
	cat    *catalog.Catalog
	policy CompactionPolicy
	auto   bool

	mu     sync.Mutex // serializes mutations and nextID
	nextID uint64
	view   atomic.Pointer[View]

	bgOnce    sync.Once
	closeOnce sync.Once
	kick      chan struct{}
	stop      chan struct{}
	// bgCtx is the background compactor's context; Close cancels it so
	// an in-flight merge aborts promptly instead of stalling shutdown.
	bgCtx    context.Context
	bgCancel context.CancelFunc
	wg       sync.WaitGroup
}

// New builds a store over a frozen catalog, optionally restoring
// persisted segments.
func New(cat *catalog.Catalog, cfg Config) (*Store, error) {
	s := &Store{
		cat:    cat,
		policy: cfg.Policy.withDefaults(),
		auto:   cfg.AutoCompact,
		nextID: 1,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	s.bgCtx, s.bgCancel = context.WithCancel(context.Background())
	v := &View{cat: cat, gen: cfg.Generation}
	var dead []Loc
	for i, seed := range cfg.Seeds {
		if seed.Index == nil {
			return nil, fmt.Errorf("segment: seed %d has no index", i)
		}
		id := seed.ID
		if id == 0 {
			id = s.nextID
		}
		if id >= s.nextID {
			s.nextID = id + 1
		}
		v.push(&Segment{id: id, ix: seed.Index})
		for _, local := range seed.Dead {
			if local < 0 || local >= seed.Index.Len() {
				return nil, fmt.Errorf("segment: seed %d tombstone %d out of range [0, %d)", i, local, seed.Index.Len())
			}
			dead = append(dead, Loc{Seg: i, Table: local})
		}
	}
	s.view.Store(v.bury(dead).settle())
	return s, nil
}

// View returns the current corpus view. The view is immutable: searches
// and snapshots taken from it stay consistent however the store mutates
// afterwards.
func (s *Store) View() *View { return s.view.Load() }

// ValidateBatch checks an Add batch against a view without mutating
// anything: every table needs a non-empty ID, unique within the batch
// and not already live in v, and must pass structural validation.
// Returns nil or a *BatchError listing every rejection.
// Callers that annotate before adding use it with the current view to
// fail fast before the expensive annotation pass; Store.Add revalidates
// authoritatively under its mutation lock.
func ValidateBatch(v *View, tables []*table.Table) error {
	var rejected []*TableError
	seen := make(map[string]struct{}, len(tables))
	for i, t := range tables {
		switch {
		case t == nil || t.ID == "":
			rejected = append(rejected, &TableError{Index: i, Err: ErrMissingTableID})
		case v.Has(t.ID):
			rejected = append(rejected, &TableError{Index: i, ID: t.ID, Err: ErrDuplicateTable})
		default:
			if _, dup := seen[t.ID]; dup {
				rejected = append(rejected, &TableError{Index: i, ID: t.ID, Err: ErrDuplicateTable})
				continue
			}
			seen[t.ID] = struct{}{}
			if err := t.Validate(); err != nil {
				rejected = append(rejected, &TableError{Index: i, ID: t.ID, Err: err})
			}
		}
	}
	if len(rejected) > 0 {
		return &BatchError{Tables: rejected}
	}
	return nil
}

// Add indexes a batch of tables as one fresh segment and appends it to
// the manifest. anns may be nil (unannotated batch) or parallel to
// tables. Every table needs a corpus-unique non-empty ID; rejected
// batches return a *BatchError and leave the corpus unchanged. An empty
// batch is a no-op. Returns the new view.
func (s *Store) Add(ctx context.Context, tables []*table.Table, anns []*core.Annotation) (*View, error) {
	if anns != nil && len(anns) != len(tables) {
		return nil, fmt.Errorf("segment: %d annotations for %d tables", len(anns), len(tables))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.view.Load()
	if len(tables) == 0 {
		return v, nil
	}
	if err := ValidateBatch(v, tables); err != nil {
		return nil, err
	}
	ix, err := searchidx.BuildContext(ctx, s.cat, tables, anns)
	if err != nil {
		return nil, err
	}
	seg := &Segment{id: s.nextID, ix: ix}
	s.nextID++
	nv := v.next().push(seg).settle()
	s.view.Store(nv)
	s.kickCompactorLocked()
	return nv, nil
}

// Remove tombstones the tables with the given IDs. All-or-nothing: if
// any ID is not live (unknown, already removed, or repeated within ids)
// a *BatchError wrapping ErrUnknownTable is returned and nothing is
// removed. The tables' storage is reclaimed later by compaction.
// Returns the new view.
func (s *Store) Remove(ids []string) (*View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.view.Load()
	if len(ids) == 0 {
		return v, nil
	}
	var rejected []*TableError
	locs := make([]Loc, 0, len(ids))
	seen := make(map[string]struct{}, len(ids))
	for i, id := range ids {
		_, dup := seen[id]
		if l, ok := v.find(id); ok && !dup {
			seen[id] = struct{}{}
			locs = append(locs, l)
			continue
		}
		rejected = append(rejected, &TableError{Index: i, ID: id, Err: ErrUnknownTable})
	}
	if len(rejected) > 0 {
		return nil, &BatchError{Tables: rejected}
	}
	nv := v.next().bury(locs).settle()
	s.view.Store(nv)
	s.kickCompactorLocked()
	return nv, nil
}

// Replace makes ix the whole corpus: every segment is dropped, and ix
// becomes segment 1, as it would in a fresh store, one generation on.
// Like every mutation it serializes with the others and with
// compaction, and searches keep the views they started with. Returns
// the new view.
func (s *Store) Replace(ix *searchidx.Index) *View {
	s.mu.Lock()
	defer s.mu.Unlock()
	nv := (&View{cat: s.cat, gen: s.view.Load().gen + 1}).push(&Segment{id: 1, ix: ix}).settle()
	s.nextID = 2
	s.view.Store(nv)
	return nv
}

// Close stops the background compactor (if it ever started): its
// context is canceled so an in-flight merge aborts at the next table
// boundary instead of stalling shutdown, and Close waits for the
// goroutine to exit. Idempotent; the store remains usable afterwards,
// minus auto-compaction.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.bgCancel()
	})
	s.wg.Wait()
}
