package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted (nearest rank below).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(float64(len(sorted)-1)*q)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (exclusive method). Fewer
// than two values have no spread.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	at := func(k int) float64 { // k-th of the 3 cut points
		pos := float64(k*(len(s)+1)) / 4
		i := int(pos)
		i = max(1, min(i, len(s)-1))
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	med := at(2)
	if med == 0 {
		return 0
	}
	spread := (at(3) - at(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

// sample is one timed request: when it ended, relative to the start of
// the measured phase, and how long it took.
type sample struct {
	end time.Duration
	lat time.Duration
}

// quiet is how far from the disturbed end of a run's slices the timing
// estimators below read. The sandbox's two processors are shared: for
// seconds at a stretch a neighbour slows everything by a fifth or more,
// and it only ever takes time away. With a neighbour busy a third of the
// time, ten runs of one commit spread (first to third quartile over the
// median) by 16-30 % on whole-run medians and by 3-6 % on the slices at
// this quantile. A change to the program moves every slice, so reading
// the quiet ones hides none.
const quiet = 0.2

// quietLow and quietHigh read a set of per-slice values at the quiet end:
// low for latencies, high for rates.
func quietLow(v []float64) float64  { return quantile(sortedCopy(v), quiet) }
func quietHigh(v []float64) float64 { return quantile(sortedCopy(v), 1-quiet) }

// sliced cuts the run into consecutive slices of equal length and reports
// what the system does in the quiet ones: completions per second, the
// slices' median latency and the slices' p99 latency, each read at the
// quiet quantile of its own ordering. A stall the program causes itself
// shows in every slice that holds one; serve-mixed's slices are a whole
// number of mutation ticks long, so each holds the same share of writes. Requests
// that end after the run belong to no slice. All latencies in ms.
func sliced(samples []sample, run, slice time.Duration) (perSec, p50, p99 float64) {
	n := int(run / slice)
	per := make([][]float64, n)
	for _, s := range samples {
		if i := int(s.end / slice); i < n {
			per[i] = append(per[i], ms(s.lat))
		}
	}
	var rates, p50s, p99s []float64
	for _, lat := range per {
		sort.Float64s(lat)
		rates = append(rates, float64(len(lat))/slice.Seconds())
		if len(lat) > 0 {
			p50s = append(p50s, quantile(lat, 0.5))
			p99s = append(p99s, quantile(lat, 0.99))
		}
	}
	return quietHigh(rates), quietLow(p50s), quietLow(p99s)
}

// grouped is sliced for a single caller posting equal batches back to
// back: the run is cut into groups of consecutive batches and reports the
// groups' tables per second, median batch latency and slowest batch, each
// at the quiet quantile. lat is each batch's latency in ms.
func grouped(lat []float64, group, batch int) (perSec, p50, slowest float64) {
	var rates, p50s, maxs []float64
	for lo := 0; lo+group <= len(lat); lo += group {
		g := sortedCopy(lat[lo : lo+group])
		sum := 0.0
		for _, l := range g {
			sum += l
		}
		rates = append(rates, float64(group*batch)*1000/sum)
		p50s = append(p50s, median(g))
		maxs = append(maxs, g[group-1])
	}
	return quietHigh(rates), quietLow(p50s), quietLow(maxs)
}
