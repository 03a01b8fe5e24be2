package main

import (
	"math"
	"runtime/metrics"
)

// runtimeDelta is the Go runtime's own accounting over the timed phase.
type runtimeDelta struct {
	gcCPUS     float64
	gcCycles   uint64
	sched      *metrics.Float64Histogram
	schedP50Us float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/latencies:seconds"},
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeDelta{
		gcCPUS:   s[0].Value.Float64(),
		gcCycles: s[1].Value.Uint64(),
		sched:    s[2].Value.Float64Histogram(),
	}
}

// sub returns r minus an earlier reading, with the median scheduling
// latency of the goroutines that became runnable in between.
func (r runtimeDelta) sub(old runtimeDelta) runtimeDelta {
	d := runtimeDelta{gcCPUS: r.gcCPUS - old.gcCPUS, gcCycles: r.gcCycles - old.gcCycles}
	counts := make([]uint64, len(r.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = r.sched.Counts[i] - old.sched.Counts[i]
		total += counts[i]
	}
	d.schedP50Us = histQuantile(r.sched.Buckets, counts, total, 0.5) * 1e6
	return d
}

// histQuantile returns the midpoint of the bucket holding quantile q;
// buckets[i], buckets[i+1] bound counts[i], and infinite edges fall
// back to the finite one.
func histQuantile(buckets []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum < target {
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		}
		return (lo + hi) / 2
	}
	return 0
}
