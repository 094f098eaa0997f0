package main

import (
	"slices"
	"sort"
	"time"
)

// The traced run records spans from this package only, around calls
// into each layer's exported functions; nothing inside the program is
// instrumented. A layer's exported function cannot be timed while it
// runs inside an opaque outer call, so an operation is traced by running
// it again at each layer, from the outside in: the whole request over
// loopback, then the handler on a recorder, then the calls the handler
// makes. The outermost span has its real start and end; each inner span
// has its measured duration and is laid on its parent's timeline where
// the parent runs it — one after another, or side by side where the
// program runs them on parallel workers. Self time is then, as usual, a
// span's duration minus the part of it its children cover.

// probeSpan is the parent of a span kept out of the tree: a second way
// of doing the same work (annotating without message passing, searching
// at another parallelism) whose time explains nothing of the operation.
const probeSpan = -1

type span struct {
	Op     int    `json:"op"`     // spans of one operation share it; 0 is set-up
	ID     int    `json:"span"`   // 1-based
	Parent int    `json:"parent"` // 0 for an operation's outermost span, -1 for a probe
	Layer  string `json:"layer"`  // package under internal/, or bench
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the start of the traced run
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0           time.Time
	spans        []span
	counts       map[string]float64 // counts taken at the same boundaries
	compactions0 float64            // compaction steps this process had run before the trace
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}, compactions0: compactionSteps()}
}

func (t *tracer) add(op, parent int, layer, name string, start, dur int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: start + max(dur, 0)})
	return id
}

// timed runs f as an outermost (or probe) span with its real clock times.
func (t *tracer) timed(op, parent int, layer, name string, f func()) int {
	start := time.Since(t.t0)
	f()
	return t.add(op, parent, layer, name, int64(start), int64(time.Since(t.t0)-start))
}

func clock(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// layout lays measured child spans on a parent's timeline, on as many
// lanes as the program runs them on in parallel.
type layout struct {
	t      *tracer
	parent int
	lanes  []int64 // where each lane is free again
}

func (t *tracer) under(parent, lanes int) *layout {
	l := &layout{t: t, parent: parent, lanes: make([]int64, lanes)}
	for i := range l.lanes {
		l.lanes[i] = t.spans[parent-1].Start
	}
	return l
}

// put places a span of duration d on the lane that is free first, as a
// worker pool would.
func (l *layout) put(layer, name string, d time.Duration) int {
	first := 0
	for i, free := range l.lanes {
		if free < l.lanes[first] {
			first = i
		}
	}
	return l.putIn(first, layer, name, d)
}

// putIn places a span of duration d on a given lane.
func (l *layout) putIn(lane int, layer, name string, d time.Duration) int {
	id := l.t.add(l.t.spans[l.parent-1].Op, l.parent, layer, name, l.lanes[lane], int64(d))
	l.lanes[lane] += int64(d)
	return id
}

// fan splits a joined layout into n lanes that start where it stands;
// join brings them back together.
func (l *layout) fan(n int) {
	l.join()
	at := l.lanes[0]
	l.lanes = make([]int64, n)
	for i := range l.lanes {
		l.lanes[i] = at
	}
}

// run measures f and puts it.
func (l *layout) run(layer, name string, f func()) int { return l.put(layer, name, clock(f)) }

// join makes the layout one lane again, free when the slowest lane is,
// as a gather is.
func (l *layout) join() {
	l.lanes = []int64{slices.Max(l.lanes)}
}

// selfTimes returns each span's duration minus the part of it its
// children cover, indexed like t.spans.
func (t *tracer) selfTimes() []int64 {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// stat sums the spans called layer.name.
type stat struct {
	n           int
	total, self int64 // ns
}

func (s stat) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e3
}

func (s stat) meanSelfUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.self) / float64(s.n) / 1e3
}

func (t *tracer) stats() map[string]stat {
	self := t.selfTimes()
	out := map[string]stat{}
	for i, s := range t.spans {
		st := out[s.Layer+"."+s.Name]
		st.n++
		st.total += s.dur()
		st.self += self[i]
		out[s.Layer+"."+s.Name] = st
	}
	return out
}

// modelledUS is how long the trace says an operation takes, as a mean
// over the operations whose outermost span is called root: from the
// start of that span to the end of the last span laid out under it. It
// is the outermost span's own duration unless the inner layers, run
// again one by one, took longer than the whole operation did.
func (t *tracer) modelledUS(root string) float64 {
	start := map[int]int64{} // op -> start of its outermost span
	end := map[int]int64{}
	inTree := make([]bool, len(t.spans)+1)
	for _, s := range t.spans { // parents precede children
		switch {
		case s.Parent == 0 && s.Layer+"."+s.Name == root:
			start[s.Op] = s.Start
			inTree[s.ID] = true
		case s.Parent > 0:
			inTree[s.ID] = inTree[s.Parent]
		}
		if inTree[s.ID] {
			end[s.Op] = max(end[s.Op], s.End)
		}
	}
	if len(start) == 0 {
		return 0
	}
	total := int64(0)
	for op, s := range start {
		total += end[op] - s
	}
	return float64(total) / float64(len(start)) / 1e3
}

// traceFile is results/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Note     string             `json:"note"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path string, r *result) error {
	return writeJSON(path, traceFile{
		Workload: r.Workload, Seed: r.Seed,
		Note: "spans with parent 0 carry real clock times; inner spans are the same operation run again at that layer, " +
			"laid on the parent's timeline with their measured duration; parent -1 marks a probe outside the tree",
		Counts: t.counts, Spans: t.spans,
	})
}
