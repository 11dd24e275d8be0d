package main

import (
	"sort"
	"time"

	"hdcirc/internal/stats"
)

// quantile is stats.Quantile, linear interpolation between the sorted
// samples, except that no samples give 0: a layer a workload does not
// exercise reports 0 instead of failing the run. The text report prints
// len(xs) beside each percentile as its sample count.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// meanMS is the mean of durations in milliseconds, zero without samples.
func meanMS(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return usOf(sum, int64(len(ds))) / 1e3
}

// interval is a half-open [start, end) span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it that the children
// cover. Children may overlap each other and may stick out of the parent;
// only their union clipped to the parent counts.
func selfTime(parent interval, children []interval) int64 {
	total := parent.end - parent.start
	if total <= 0 {
		return 0
	}
	var clipped []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, c := range clipped {
		if !open || c.start > curE {
			if open {
				covered += curE - curS
			}
			curS, curE, open = c.start, c.end, true
			continue
		}
		curE = max(curE, c.end)
	}
	if open {
		covered += curE - curS
	}
	return total - covered
}

// perOp divides a byte (or call) total by the operations that caused it;
// zero operations give zero rather than a division by zero.
func perOp(total int64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(total) / float64(ops)
}

// usOf is the mean time per call in microseconds, zero without calls.
func usOf(total time.Duration, calls int64) float64 {
	if calls <= 0 {
		return 0
	}
	return float64(total) / float64(calls) / 1e3
}
