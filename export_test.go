package webtable

import "repro/internal/segment"

type CompactionPolicy = segment.CompactionPolicy

// WithCompactionPolicy gives a test service a compaction policy other
// than segment.DefaultCompactionPolicy, to reach a corpus layout in few
// mutations. Zero fields keep their defaults.
func WithCompactionPolicy(p CompactionPolicy) ServiceOption {
	return func(o *serviceOptions) { o.policy = p }
}

// AnnotatorBuilt reports whether svc has built its annotator yet. Call
// it only while no annotating call is in flight.
func AnnotatorBuilt(svc *Service) bool { return svc.ann != nil }
