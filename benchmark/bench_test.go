package main

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

// shortRun runs one workload at toy sizes, as -short does.
func shortRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	h := newHarness(context.Background(), workload, 1, time.Second, shortSizes(), t.TempDir())
	if trace {
		h.res.Trace = true
		h.tr = newTracer()
	}
	if err := h.run(); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	// Includes the harness's own assertions: no merge pending at load,
	// every shard owns at least 45 % of the tables.
	if h.res.Failed > 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, h.res.Failed, h.res.Attempted, h.res.Errors)
	}
	return h.res
}

// Every workload emits exactly the metrics BENCHMARK.json names, untraced
// and traced, and a result file compared with itself is all ok.
func TestWorkloadsEmitTheSpecMetrics(t *testing.T) {
	s, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json names every workload but the last, serve-mixed,
	// which is too unsteady to gate a change on (README.md, Steadiness).
	if len(s.Workloads) != len(workloadNames)-1 {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d and one ungated", len(s.Workloads), len(workloadNames)-1)
	}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	file := resultFile{Provenance: readProvenance(1, true)}
	for i, name := range workloadNames {
		if i < len(s.Workloads) && s.Workloads[i].Name != name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, s.Workloads[i].Name, name)
		}
		for _, trace := range []bool{false, true} {
			r := shortRun(t, name, trace)
			if err := checkMetrics(r, s); err != nil {
				t.Errorf("trace=%v: %v", trace, err)
			}
			if !strings.Contains(contractLine(r, s), `"correct":true`) {
				t.Errorf("%s: %s", name, contractLine(r, s))
			}
			file.Runs = append(file.Runs, r)
		}
	}
	if file.Provenance.GoVersion == "" || file.Provenance.Clients < 1 {
		t.Errorf("provenance: %+v", file.Provenance)
	}
	path := filepath.Join(t.TempDir(), "self.json")
	if err := writeJSON(path, file); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, s, path, path); err != nil {
		t.Errorf("a file compared with itself: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), "  ok\n"); n != len(s.Workloads)*len(s.EndToEnd) {
		t.Errorf("%d ok rows, want %d:\n%s", n, len(s.Workloads)*len(s.EndToEnd), out.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	s := &spec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "lat", Better: "lower", Bound: 0.1},
			{Name: "qps", Better: "higher", Bound: 0.1},
		},
	}
	file := func(lat, qps []float64) string {
		f := resultFile{}
		for i := range lat {
			f.Runs = append(f.Runs, &result{Workload: "w", Attempted: 1, Metrics: map[string]float64{"lat": lat[i], "qps": qps[i]}})
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{100, 140, 70, 120, 90}
	for _, c := range []struct {
		name     string
		latA     []float64
		latB     []float64
		want     string
		wantFail bool
	}{
		{"same", steady, steady, "ok", false},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, "regressed", true},
		{"noise", noisy, []float64{110, 150, 80, 130, 95}, "unresolved", false},
		{"noise but all faster", noisy, []float64{50, 60, 40, 55, 45}, "ok", false},
		{"noise but all slower", noisy, []float64{150, 260, 141, 220, 190}, "regressed", true},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, s, file(c.latA, steady), file(c.latB, steady))
		row := strings.Split(out.String(), "\n")[1]
		if !strings.HasSuffix(row, c.want) || (err != nil) != c.wantFail {
			t.Errorf("%s: err %v, row %q, want %s", c.name, err, row, c.want)
		}
	}
	// A higher-is-better metric regresses downwards.
	var out bytes.Buffer
	if err := compareFiles(&out, s, file(steady, steady), file(steady, []float64{80, 81, 79, 80, 80})); err == nil {
		t.Errorf("qps fell 20 %% and passed:\n%s", out.String())
	}
}

// The quartiles are Python's statistics.quantiles(values, n=4).
func TestQuartileSpread(t *testing.T) {
	// quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	got := quartileSpread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}

// Self time is a span minus what its children cover: children one after
// another add up, children side by side count once.
func TestSelfTimeOnLanes(t *testing.T) {
	tr := newTracer()
	root := tr.add(1, 0, "bench", "op", 0, 100)
	l := tr.under(root, 1)
	l.put("a", "first", 10)
	l.fan(2)
	l.put("b", "left", 30)
	l.put("b", "right", 50)
	l.put("b", "left-again", 10) // the lane free first: left's
	l.join()
	last := l.put("c", "last", 20)
	self := tr.selfTimes()
	if self[root-1] != 100-10-50-20 {
		t.Errorf("root self %d, want 20", self[root-1])
	}
	if s := tr.spans[last-1]; s.Start != 60 || s.End != 80 {
		t.Errorf("last at [%d, %d), want [60, 80)", s.Start, s.End)
	}
	if got := tr.modelledUS("bench.op"); got != 0.1 {
		t.Errorf("modelled %v us, want 0.1", got)
	}
}
