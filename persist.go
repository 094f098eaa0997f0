package webtable

import (
	"context"
	"fmt"
	"io"

	"repro/internal/catalog"
	"repro/internal/searchidx"
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
	v, err := s.corpus()
	if err != nil {
		return CorpusStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return CorpusStats{}, err
	}
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
// flat snapshot loads as a single segment, and a corpus saved at
// generation 0 loads at generation 1. Service options (worker count,
// auto-compaction) apply as in NewService.
//
// Segments decode on every processor (GOMAXPROCS), not on the worker
// pool, while the lemma index builds beside them; the load returns with
// nothing left running, on failure too.
//
// Format failures are structured: errors.Is recognizes ErrNotSnapshot
// (foreign file), ErrSnapshotVersion (a format version other than the
// one this build writes; the message names the last commit that reads an
// older file, where snapshot.Load converts it for this build's
// snapshot.Save) and ErrSnapshotChecksum (truncation or corruption).
func LoadService(ctx context.Context, r io.Reader, opts ...ServiceOption) (*Service, error) {
	svc, _, err := LoadServiceShard(ctx, r, 0, 1, opts...)
	return svc, err
}

// LoadServiceShard reconstructs the shard-th of count shard services
// from one snapshot: the manifest's segments are partitioned into
// contiguous, live-table-balanced ranges (the same deterministic
// placement in every process — see snapshot.Reader.AssignShards), and only the
// owned range is read: the sections before it are skipped, the ones
// after it never reached, so an N-shard cluster pays roughly 1/N of a
// full load's time and index memory per process, and damage to another
// shard's sections does not stop this one. The returned assignment
// carries the shard's global table offset, which SearchPartial needs to
// number hits corpus-globally. Its segments decode as LoadService's do.
//
// A shard service of count > 1 is a read replica of its slice: callers
// must not mutate the corpus (AddTables / RemoveTables would change the
// global numbering every other shard derives from the shared snapshot).
// Nothing compacts it either: the background compactor starts only on a
// mutation, so an unmutated shard keeps its generation and the cluster's
// consistency check holds. LoadService is shard 0 of 1, the whole corpus.
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
	svc, err := loadSegments(rd, a.Lo, a.Hi, opts)
	if err != nil {
		return nil, ShardAssignment{}, err
	}
	return svc, a, nil
}

// loadSegments builds a service over segments [lo, hi) of a snapshot's
// manifest. An empty run still yields a searchable service with an
// empty corpus — a shard owning no segments answers partial queries
// with no evidence rather than erroring.
func loadSegments(rd *snapshot.Reader, lo, hi int, opts []ServiceOption) (*Service, error) {
	cat, err := catalog.FromSnapshot(rd.Catalog)
	if err != nil {
		return nil, fmt.Errorf("webtable: snapshot catalog: %w", err)
	}
	// The segments decode while newService freezes the catalog: a
	// segment needs no catalog.
	var ixs []*searchidx.Index
	var derr error
	decoded := make(chan struct{})
	go func() {
		defer close(decoded)
		for i := 0; i < lo && derr == nil; i++ {
			derr = rd.Skip()
		}
		if derr == nil {
			ixs, derr = rd.Segments(hi - lo)
		}
	}()
	svc, cfg, err := newService(cat, opts)
	<-decoded
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	// A loaded corpus exists, even one a flat file never mutated.
	cfg.Generation = max(rd.Generation, 1)
	cfg.Seeds = make([]segment.Seed, len(ixs))
	for k, m := range rd.Manifest[lo:hi] {
		cfg.Seeds[k] = segment.Seed{ID: m.ID, Index: ixs[k], Dead: m.Dead}
	}
	if svc.store, err = segment.New(cat, cfg); err != nil {
		return nil, err
	}
	return svc, nil
}
