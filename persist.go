package webtable

import (
	"context"
	"fmt"
	"io"

	"repro/internal/catalog"
	"repro/internal/segment"
	"repro/internal/snapshot"
)

// SaveSnapshot writes the service's live corpus — catalog, segment
// manifest, each segment in its compiled form (from which its tables and
// annotations can be materialised losslessly), tombstones and the corpus
// generation — as one versioned snapshot file (a checksummed manifest,
// then one compressed, checksummed section per segment; see
// internal/snapshot). Every segment is dumped as it stands in memory: no
// table is rebuilt or re-interned to be saved, and what was handed to
// BuildIndex or AddTables is not consulted — the corpus saves its own
// copy. A service loaded back from the snapshot answers searches
// identically to this one, without re-running annotation or rebuilding
// the index from its source, and resumes mutating exactly where this one
// stopped: annotate once, serve and grow forever.
//
// The snapshot captures an atomic view of the corpus: a concurrent
// AddTables/RemoveTables/compaction either precedes the whole snapshot
// or misses it entirely. SaveSnapshot before any BuildIndex or AddTables
// returns ErrNoIndex.
func (s *Service) SaveSnapshot(ctx context.Context, w io.Writer) error {
	_, err := s.WriteSnapshot(ctx, w)
	return err
}

// WriteSnapshot is SaveSnapshot returning the counters of the corpus
// view it actually persisted — pinned before encoding, so the reported
// generation and table counts always describe the bytes written even if
// mutations land concurrently.
func (s *Service) WriteSnapshot(ctx context.Context, w io.Writer) (CorpusStats, error) {
	st := s.store.Load()
	if st == nil {
		return CorpusStats{}, ErrNoIndex
	}
	if err := ctx.Err(); err != nil {
		return CorpusStats{}, err
	}
	v := st.View()
	if err := snapshot.SaveView(ctx, w, v); err != nil {
		return CorpusStats{}, err
	}
	return v.Stats(), nil
}

// LoadService reconstructs a ready-to-search Service from a snapshot
// written by SaveSnapshot (or cmd tools' -save flags): the catalog is
// rebuilt and frozen, and each index segment is decoded straight from
// its section of the file into the compiled index — no annotation runs,
// no cell is parsed, normalized or interned again, and no table or
// annotation object is built: the compiled segments are all the loaded
// corpus holds (one copy of every string, three integers per cell; see
// Service.ResidentBytes). The live-corpus
// manifest — segment identities, tombstones and generation — is restored,
// so AddTables / RemoveTables resume where the saved service stopped; a
// flat snapshot loads as a single segment. Service options (worker
// count, compaction knobs, ...) apply as in NewService.
//
// Format failures are structured: errors.Is recognizes ErrNotSnapshot
// (foreign file), ErrSnapshotVersion (a format version other than 3; the
// message says how to convert an older file) and ErrSnapshotChecksum
// (truncation or corruption).
func LoadService(ctx context.Context, r io.Reader, opts ...ServiceOption) (*Service, error) {
	rd, err := snapshot.NewReader(ctx, r)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	return loadSegments(rd, 0, len(rd.Manifest), false, opts)
}

// LoadServiceShard reconstructs the shard-th of count shard services
// from one snapshot: the manifest's segments are partitioned into
// contiguous, live-table-balanced ranges (the same deterministic
// placement in every process — see snapshot.AssignShards), and only the
// owned range is read: the sections before it are skipped, the ones
// after it never reached, so an N-shard cluster pays roughly 1/N of a
// full load's time and index memory per process, and damage to another
// shard's sections does not stop this one. The returned assignment
// carries the shard's global table offset, which SearchPartial needs to
// number hits corpus-globally.
//
// A shard service is a read replica of its slice: auto-compaction is
// disabled regardless of options (compaction would bump the generation
// and desynchronize the cluster's consistency check), and callers must
// not mutate the corpus (AddTables / RemoveTables would change the
// global numbering every other shard derives from the shared snapshot).
func LoadServiceShard(ctx context.Context, r io.Reader, shard, count int, opts ...ServiceOption) (*Service, ShardAssignment, error) {
	rd, err := snapshot.NewReader(ctx, r)
	if err != nil {
		return nil, ShardAssignment{}, err
	}
	defer rd.Close()
	asn, err := rd.AssignShards(count)
	if err != nil {
		return nil, ShardAssignment{}, err
	}
	if shard < 0 || shard >= count {
		return nil, ShardAssignment{}, fmt.Errorf("webtable: shard %d out of range [0, %d)", shard, count)
	}
	a := asn[shard]
	svc, err := loadSegments(rd, a.Lo, a.Hi, true, opts)
	if err != nil {
		return nil, ShardAssignment{}, err
	}
	return svc, a, nil
}

// loadSegments builds a service over segments [lo, hi) of a snapshot's
// manifest. An empty run still yields a searchable service with an
// empty corpus — a shard owning no segments answers partial queries
// with no evidence rather than erroring.
func loadSegments(rd *snapshot.Reader, lo, hi int, readOnly bool, opts []ServiceOption) (*Service, error) {
	cat, err := catalog.FromSnapshot(rd.Catalog)
	if err != nil {
		return nil, fmt.Errorf("webtable: snapshot catalog: %w", err)
	}
	svc, err := NewService(cat, opts...)
	if err != nil {
		return nil, err
	}
	cfg := segment.Config{
		Policy:      svc.compaction,
		AutoCompact: svc.autoCompact && !readOnly,
		Generation:  rd.Generation,
		Seeds:       make([]segment.Seed, 0, hi-lo),
	}
	if rd.Flat && cfg.Generation == 0 {
		cfg.Generation = 1 // a flat corpus was never mutated
	}
	for i := 0; i < lo; i++ {
		if err := rd.Skip(); err != nil {
			return nil, err
		}
	}
	for _, m := range rd.Manifest[lo:hi] {
		ix, err := rd.Next(cat)
		if err != nil {
			return nil, err
		}
		cfg.Seeds = append(cfg.Seeds, segment.Seed{ID: m.ID, Index: ix, Dead: m.Dead})
	}
	st, err := segment.New(cat, cfg)
	if err != nil {
		return nil, err
	}
	svc.store.Store(st)
	return svc, nil
}
