// Package obs is the unified observability layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms, all with
// label support) exposed in Prometheus text exposition format, a
// lightweight span API for per-stage query tracing, runtime gauges, and
// pprof wiring. It is stdlib-only and imports nothing else from this
// module, so every layer — search engine, segment store, HTTP servers,
// shard router — can instrument itself without import cycles.
//
// Each serving surface (Server, ShardServer, Router) owns its own
// Registry so tests and multi-server processes never share counters;
// process-wide concerns (runtime stats, segment compaction) register on
// the shared Default registry, and the /metrics handler merges both.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets is the standard latency histogram layout, in seconds:
// 100µs to 10s, roughly logarithmic. The first bucket's implicit lower
// bound is 0, so quantile estimates stay positive for sub-bucket
// observations (loopback round trips land entirely in bucket 0).
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// kind discriminates a family's metric type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name: its metadata plus the labeled cells.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64      // histogram upper bounds (finite, ascending)
	fn      func() float64 // kindGaugeFunc and kindCounterFunc only

	mu    sync.Mutex
	cells map[string]any // label-value key -> *Counter / *Gauge / *Histogram
	keys  []string       // insertion order; emission sorts a copy
}

// Registry holds metric families. The zero value is not usable; use
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the shared process-wide registry. Runtime gauges
// (goroutines, heap, GC) are registered on first use; subsystems with
// no natural owner (segment compaction) also register here. Serving
// surfaces keep their own registries and merge this one into their
// /metrics output via Handler.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		registerRuntimeMetrics(defaultReg)
	})
	return defaultReg
}

// getOrCreate returns the family for name, creating it on first use.
// Re-registering with a different type or label set is a programming
// error and panics — two call sites disagreeing about a metric's shape
// cannot both be right.
func (r *Registry) getOrCreate(name, help string, k kind, labels []string, buckets []float64, fn func() float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, k, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k,
		labels: append([]string(nil), labels...),
		fn:     fn,
		cells:  make(map[string]any),
	}
	if k == kindHistogram {
		f.buckets = append([]float64(nil), buckets...)
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns) a counter family with the given label
// names. Use With to resolve a labeled cell; a label-less counter is
// vec.With().
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.getOrCreate(name, help, kindCounter, labels, nil, nil)}
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.getOrCreate(name, help, kindGauge, labels, nil, nil)}
}

// GaugeFunc registers a label-less gauge whose value is computed at
// scrape time. Re-registering the same name keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.getOrCreate(name, help, kindGaugeFunc, nil, nil, fn)
}

// CounterFunc registers a label-less counter whose value is read at
// scrape time from a count kept elsewhere; fn must never decrease.
// Re-registering the same name keeps the first function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.getOrCreate(name, help, kindCounterFunc, nil, nil, fn)
}

// Histogram registers (or returns) a histogram family with the given
// finite bucket upper bounds (ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must ascend")
		}
	}
	return &HistogramVec{f: r.getOrCreate(name, help, kindHistogram, labels, buckets, nil)}
}

// labelKey joins label values into the cell map key. \xff cannot appear
// in valid UTF-8 label values, so the join is unambiguous.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// cell resolves (or creates) the family's cell for the given label
// values.
func (f *family) cell(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.cells[key]
	if !ok {
		c = mk()
		f.cells[key] = c
		f.keys = append(f.keys, key)
	}
	return c
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With resolves the cell for the given label values (in the order the
// label names were registered).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.cell(values, func() any { return &Counter{} }).(*Counter)
}

// Counter is a monotonically increasing uint64.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With resolves the cell for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.cell(values, func() any { return &Gauge{} }).(*Gauge)
}

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (atomic via CAS).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With resolves the cell for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.cell(values, func() any {
		return newHistogram(v.f.buckets)
	}).(*Histogram)
}

// Histogram counts observations in fixed buckets. Observe is lock-free;
// readers (scrapes, quantile estimates) see a near-consistent snapshot,
// which is all a monitoring surface needs.
type Histogram struct {
	uppers  []float64       // finite upper bounds, ascending
	counts  []atomic.Uint64 // len(uppers)+1; the last is the +Inf bucket
	total   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(uppers []float64) *Histogram {
	return &Histogram{uppers: uppers, counts: make([]atomic.Uint64, len(uppers)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; beyond the last finite
	// bound the observation lands in +Inf.
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation within the bucket the rank falls into; the first
// bucket's lower bound is 0, so any non-empty histogram yields a
// positive estimate. Values in the +Inf bucket clamp to the largest
// finite bound. Returns 0 when the histogram is empty. The estimate is
// monotonic in q.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	lo := 0.0
	for i, ub := range h.uppers {
		c := h.counts[i].Load()
		if c > 0 && float64(cum+c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (ub-lo)*frac
		}
		cum += c
		lo = ub
	}
	return h.uppers[len(h.uppers)-1]
}
