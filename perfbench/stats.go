package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantiles holds exact order statistics of one sample set. Every sample
// is kept (in a buffer preallocated by the caller) and sorted once, so a
// reported quantile is always one of the observed values.
type quantiles struct {
	n      int
	sorted []int64
}

// newQuantiles sorts samples in place and returns their order statistics.
func newQuantiles(samples []int64) quantiles {
	slices.Sort(samples)
	return quantiles{n: len(samples), sorted: samples}
}

// at returns the nearest-rank q-quantile (0 < q <= 1); 0 for no samples.
func (s quantiles) at(q float64) int64 {
	if s.n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(s.n))) - 1
	return s.sorted[min(max(i, 0), s.n-1)]
}

func (s quantiles) max() int64 {
	if s.n == 0 {
		return 0
	}
	return s.sorted[s.n-1]
}

func (s quantiles) mean() float64 {
	if s.n == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.sorted {
		sum += float64(v)
	}
	return sum / float64(s.n)
}

// tail returns the highest of p99, p99.9, p99.99 that still has at least
// ten samples beyond it, and its name.
func (s quantiles) tail() (int64, string) {
	best, name := s.at(0.99), "p99"
	for _, c := range []struct {
		q    float64
		name string
	}{{0.999, "p99.9"}, {0.9999, "p99.99"}} {
		if float64(s.n)*(1-c.q) >= 10 {
			best, name = s.at(c.q), c.name
		}
	}
	return best, name
}

// checkOrder fails unless p50 <= p99 <= max.
func checkOrder(what string, p50, p99, maxv float64) error {
	if p50 <= p99 && p99 <= maxv {
		return nil
	}
	return fmt.Errorf("%s quantiles out of order: p50 %v, p99 %v, max %v", what, p50, p99, maxv)
}

// tally counts the outcome of every attempted service request.
type tally struct {
	sent, ok, empty, overloaded, errors, mismatched int64
	emptyLive                                       int64 // empty answers from a tenant holding elements
}

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.empty += o.empty
	t.overloaded += o.overloaded
	t.errors += o.errors
	t.mismatched += o.mismatched
	t.emptyLive += o.emptyLive
}

// failed is every request that did not do what it was asked: transport or
// protocol errors, overload refusals, payload mismatches and empty
// answers from a queue known to hold elements.
func (t tally) failed() int64 { return t.errors + t.overloaded + t.mismatched + t.emptyLive }

// checkTally fails unless every sent request has exactly one outcome.
func checkTally(t tally) error {
	if t.ok+t.empty+t.overloaded+t.errors == t.sent {
		return nil
	}
	return fmt.Errorf("status tally does not sum: ok %d + empty %d + overloaded %d + errors %d != sent %d",
		t.ok, t.empty, t.overloaded, t.errors, t.sent)
}

// usage is a whole-process resource reading: CPU time from getrusage and
// allocation and GC counters from runtime/metrics.
type usage struct {
	cpu                     time.Duration
	allocs, allocBytes, gcs uint64
	gcCPU, totalCPU         float64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readUsage reads the process's usage now. The kernel charges a task
// only for time it ran, so CPU time a hypervisor stole from the vCPU is
// not in usage.cpu.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := slices.Clone(usageSamples)
	metrics.Read(s)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcs:        s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// reportUsage records the runtime layer for the window between a and b,
// over ops operations. The traced run reports it as metrics; every run
// prints it.
func reportUsage(r *report, a, b usage, ops int64) {
	per := func(v float64) float64 { return v / float64(max(ops, 1)) }
	gcPct := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gcPct = 100 * (b.gcCPU - a.gcCPU) / d
	}
	vals := []struct {
		name string
		v    float64
		unit string
	}{
		{"runtime.cpu_us_per_op", per(float64((b.cpu - a.cpu).Microseconds())), "us/op"},
		{"runtime.allocs_per_op", per(float64(b.allocs - a.allocs)), "1/op"},
		{"runtime.alloc_bytes_per_op", per(float64(b.allocBytes - a.allocBytes)), "B/op"},
		{"runtime.gc_cycles", float64(b.gcs - a.gcs), "count"},
		{"runtime.gc_cpu_pct", gcPct, "%"},
	}
	for _, v := range vals {
		if r.trace {
			r.layerMetric(v.name, v.v, v.unit)
		} else {
			r.note("%s = %.6g %s", v.name, v.v, v.unit)
		}
	}
}

// windowRates splits [start, end) into whole windows of length win and
// returns the events per second of each, where marks[i] holds the times at
// which source i completed another `every` events.
func windowRates(marks [][]int64, every int, start, end, win int64) quantiles {
	counts := make([]int64, (end-start)/win)
	for _, ms := range marks {
		for _, t := range ms {
			if k := int((t - start) / win); t >= start && k < len(counts) {
				counts[k] += int64(every) * 1e9 / win
			}
		}
	}
	return newQuantiles(counts)
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
