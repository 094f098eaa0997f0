// Package cmdio holds the catalog/corpus file loaders shared by the
// command-line tools, so the binaries cannot drift apart in how they
// open and decode their inputs, and AtomicWriteFile, the one durable
// writer: the tools' outputs and the server's POST /v1/snapshot publish
// through it.
package cmdio

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	webtable "repro"
)

// LoadCatalog opens and decodes a catalog JSON file.
func LoadCatalog(path string) (*webtable.Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cat, err := webtable.ReadCatalogJSON(f)
	if err != nil {
		return nil, fmt.Errorf("read catalog: %w", err)
	}
	return cat, nil
}

// serviceOptions maps the shared -workers flag convention onto service
// options: negative is an error, zero means the library default
// (GOMAXPROCS), positive sets the pool size.
func serviceOptions(workers int) ([]webtable.ServiceOption, error) {
	if workers < 0 {
		return nil, fmt.Errorf("-workers must be >= 0, got %d", workers)
	}
	var opts []webtable.ServiceOption
	if workers > 0 {
		opts = append(opts, webtable.WithWorkers(workers))
	}
	return opts, nil
}

// NewService builds a Service over cat honoring the shared -workers
// flag convention.
func NewService(cat *webtable.Catalog, workers int) (*webtable.Service, error) {
	opts, err := serviceOptions(workers)
	if err != nil {
		return nil, err
	}
	return webtable.NewService(cat, opts...)
}

// LoadSnapshotService reconstructs a search-ready Service from a
// snapshot file written by a -save flag (or Service.SaveSnapshot),
// honoring the shared -workers flag convention.
func LoadSnapshotService(ctx context.Context, path string, workers int) (*webtable.Service, error) {
	opts, err := serviceOptions(workers)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	svc, err := webtable.LoadService(ctx, f, opts...)
	if err != nil {
		return nil, fmt.Errorf("load snapshot %s: %w", path, err)
	}
	return svc, nil
}

// LoadSnapshotShardService reconstructs the shard-th of shards read
// replicas from a snapshot file (see webtable.LoadServiceShard),
// honoring the shared -workers flag convention.
func LoadSnapshotShardService(ctx context.Context, path string, shard, shards, workers int) (*webtable.Service, webtable.ShardAssignment, error) {
	opts, err := serviceOptions(workers)
	if err != nil {
		return nil, webtable.ShardAssignment{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, webtable.ShardAssignment{}, err
	}
	defer f.Close()
	svc, asn, err := webtable.LoadServiceShard(ctx, f, shard, shards, opts...)
	if err != nil {
		return nil, webtable.ShardAssignment{}, fmt.Errorf("load snapshot %s: %w", path, err)
	}
	return svc, asn, nil
}

// AtomicWriteFile writes a file durably: write is handed a temp file
// in path's directory, which is then Synced, renamed over path, and
// the directory itself is Synced so the rename survives a crash. On
// any failure the temp file is removed and path is untouched — the
// previous copy is never exposed to a torn write. This is the only
// sanctioned way to produce files a later run loads — the CLI tools'
// outputs and internal/server's snapshots (the atomicwrite analyzer
// enforces it).
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	// CreateTemp opens 0600; published files keep the conventional 0644.
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SaveSnapshot writes the service's current corpus snapshot to path
// atomically: a crash mid-write leaves any previous snapshot intact.
func SaveSnapshot(ctx context.Context, svc *webtable.Service, path string) error {
	err := AtomicWriteFile(path, func(w io.Writer) error {
		return svc.SaveSnapshot(ctx, w)
	})
	if err != nil {
		return fmt.Errorf("save snapshot %s: %w", path, err)
	}
	return nil
}

// LoadCorpus opens and decodes a table-corpus JSON file.
func LoadCorpus(path string) ([]*webtable.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tables, err := webtable.ReadCorpus(f)
	if err != nil {
		return nil, fmt.Errorf("read corpus: %w", err)
	}
	return tables, nil
}
