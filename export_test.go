package webtable

import "repro/internal/segment"

type CompactionPolicy = segment.CompactionPolicy

// WithCompactionPolicy gives a test service a compaction policy other
// than segment.DefaultCompactionPolicy, to reach a corpus layout in few
// mutations. Zero fields keep their defaults.
func WithCompactionPolicy(p CompactionPolicy) ServiceOption {
	return func(o *serviceOptions) { o.policy = p }
}
