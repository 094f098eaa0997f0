package webtable

import (
	"fmt"
	"strings"

	"repro/internal/segment"
)

// Method selects the inference algorithm an annotation call runs (§4).
type Method uint8

// Annotation methods.
const (
	// MethodCollective is full joint inference (Eq. 1, Figure 10).
	MethodCollective Method = iota
	// MethodSimple is the polynomial special case (§4.4.1, Figure 2).
	MethodSimple
	// MethodLCA is the least-common-ancestor baseline (§4.5).
	MethodLCA
	// MethodMajority is the majority-vote baseline (§4.5).
	MethodMajority
)

func (m Method) String() string {
	switch m {
	case MethodCollective:
		return "collective"
	case MethodSimple:
		return "simple"
	case MethodLCA:
		return "lca"
	case MethodMajority:
		return "majority"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// ParseMethod resolves a method by its command-line name.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "collective":
		return MethodCollective, nil
	case "simple":
		return MethodSimple, nil
	case "lca":
		return MethodLCA, nil
	case "majority":
		return MethodMajority, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownMethod, s)
	}
}

// ServiceOption configures a Service at construction time.
type ServiceOption func(*serviceOptions)

type serviceOptions struct {
	workers     int
	compaction  segment.CompactionPolicy
	autoCompact bool
}

// WithWorkers sets the size of the service's worker pool: the maximum
// number of tables annotated concurrently across all in-flight calls.
// The default is runtime.GOMAXPROCS(0).
func WithWorkers(n int) ServiceOption {
	return func(o *serviceOptions) { o.workers = n }
}

// WithSearchParallelism is accepted and ignored: a query is scanned on
// the goroutine that executes it, and shards are the unit of parallelism.
// It remains only because benchmark/ compiles against it.
func WithSearchParallelism(int) ServiceOption {
	return func(*serviceOptions) {}
}

// WithCompactionPolicy tunes how the live corpus merges its index
// segments: how many adjacent similar-sized segments trigger a merge,
// the size ratio between tiers, and the tombstone fraction that forces a
// segment rewrite. Zero fields keep their defaults
// (DefaultCompactionPolicy).
func WithCompactionPolicy(p CompactionPolicy) ServiceOption {
	return func(o *serviceOptions) { o.compaction = p }
}

// WithoutAutoCompaction disables the background compactor: segments then
// only merge on explicit Service.Compact calls. Searches stay correct
// either way; an uncompacted corpus just fans out over more segments.
func WithoutAutoCompaction() ServiceOption {
	return func(o *serviceOptions) { o.autoCompact = false }
}

// AnnotateOption shapes one annotation call (AnnotateTable,
// AnnotateCorpus, BuildIndex or AddTables): which method runs, or whether
// annotation runs at all. It never changes the service or its model.
type AnnotateOption func(*annotateOptions)

type annotateOptions struct {
	method Method // zero value: MethodCollective
	noAnns bool
}

// WithMethod selects the inference method for this call. The default is
// MethodCollective.
func WithMethod(m Method) AnnotateOption {
	return func(o *annotateOptions) { o.method = m }
}

// WithoutAnnotations makes BuildIndex skip annotation entirely and build
// a text-only index (the Figure-3 baseline corpus). Annotation calls
// ignore this option.
func WithoutAnnotations() AnnotateOption {
	return func(o *annotateOptions) { o.noAnns = true }
}
