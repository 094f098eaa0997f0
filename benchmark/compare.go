package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// compareFiles holds result file b (the change) against a (the parent):
// one row per workload and end-to-end metric, judged by the direction
// and bound BENCHMARK.json gives the metric.
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound (or b has failed operations)
//	unresolved  the runs of a file spread wider than the bound, so the
//	            medians cannot tell — unless every run of one file beats
//	            every run of the other, which settles it either way
//
// It returns an error, so that the command exits non-zero, when a row
// regressed.
func compareFiles(w io.Writer, s *spec, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Fprintf(w, "%-14s %-26s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, wl := range s.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range rb {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%-14s seed %d: %d of %d operations failed  regressed\n", wl.Name, r.Seed, r.Failed, r.Attempted)
				regressed++
			}
		}
		for _, m := range s.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sign := 1.0 // lower is better: worse is b above a
			if m.Better == "higher" {
				sign = -1
			}
			worse := 0.0
			if ma != 0 {
				worse = sign * (mb - ma) / ma
			}
			spread := max(quartileSpread(va), quartileSpread(vb))
			// Every run of one file on one side of every run of the other?
			bAllLower := slices.Max(vb) < slices.Min(va)
			bAllHigher := slices.Min(vb) > slices.Max(va)
			allBetter, allWorse := bAllLower, bAllHigher
			if m.Better == "higher" {
				allBetter, allWorse = bAllHigher, bAllLower
			}
			verdict := "ok"
			switch {
			case spread > m.Bound && allBetter:
			case spread > m.Bound && !(allWorse && worse > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			if verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-26s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}

// readRuns returns a result file's untraced runs by workload.
func readRuns(path string) (map[string][]*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string][]*result{}
	for _, r := range f.Runs {
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no untraced runs")
	}
	return out, nil
}

func values(runs []*result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}
