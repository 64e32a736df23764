// Command perfbench is the repository benchmark: it runs one named
// workload against the real stack in-process — zmsqd's server over
// loopback TCP, or the sharded queue directly — measures it for a fixed
// time, checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json's
// end_to_end list); with -trace 1 the run additionally times every layer
// from outside and reports the per-layer list. README.md describes the
// workloads, why each was chosen, and how each metric is measured.
//
//	go run . -workload svc-volatile -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner. Every runner builds its
// own state from the seed, measures, and fills the report.
var workloads = map[string]func(p params, r *report) error{
	"svc-volatile":   func(p params, r *report) error { return runService(p, false, r) },
	"svc-durable":    func(p params, r *report) error { return runService(p, true, r) },
	"embedded-mixed": runEmbedded,
}

// params is everything a workload run depends on. defaultParams gives the
// benchmark's sizes; the self-tests shrink them.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string // scratch space for WAL directories

	prefill    int     // backlog keys per tenant (svc-*); the embedded queue holds twice that
	rateQPS    float64 // phase A offered load across both connections
	setupReps  int     // set-ups per run; setup_s is their median
	qualityOps int     // operations of embedded-mixed's quality run
}

// Fixed shape of the service workloads.
const (
	depth      = 64  // phase B requests in flight per connection
	phaseA     = 0.1 // share of a svc-* run spent in phase A
	phaseLone  = 0.1 // share spent in the lone phase, one request in flight
	valueBytes = 64  // payload size on durable tenants, the CI smoke size
)

func defaultParams() params {
	return params{
		prefill:    50_000,
		rateQPS:    10_000,
		setupReps:  7,
		qualityOps: 1_000_000,
	}
}

func main() {
	p := defaultParams()
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "measured time of one run")
		trace    = flag.Int("trace", 0, "1 = time every layer and report the per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build", "scratch directory for WAL state")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	p.seed, p.seconds, p.trace = *seed, *seconds, *trace == 1
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	p.workdir = dir
	r := newReport(p.trace)
	err = run(p, r)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !r.print(os.Stdout) {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, notes and failed checks.
type report struct {
	trace     bool
	e2e       map[string]metric
	layer     map[string]metric
	order     []string // print order: insertion order of both maps
	notes     []string
	errs      []string
	attempted int64
	failed    int64
}

func newReport(trace bool) *report {
	return &report{trace: trace, e2e: map[string]metric{}, layer: map[string]metric{}}
}

// e2eMetric records an end-to-end metric.
func (r *report) e2eMetric(name string, v float64, unit string) {
	r.e2e[name] = metric{v, unit}
	r.order = append(r.order, name)
}

// layerMetric records a per-layer metric.
func (r *report) layerMetric(name string, v float64, unit string) {
	r.layer[name] = metric{v, unit}
	r.order = append(r.order, name)
}

// note adds a human-readable line to the report.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// ops adds attempted and failed operations to the run's tally.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable report and the JSON result line, and
// reports whether every output check held.
func (r *report) print(w io.Writer) bool {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, name := range r.order {
		m, kind := r.e2e[name], "e2e"
		if _, ok := r.layer[name]; ok {
			m, kind = r.layer[name], "layer"
		}
		fmt.Fprintf(w, "%-5s %-28s %14.6g %s\n", kind, name, m.Value, m.Unit)
	}
	r.check(r.attempted > 0, "no operations attempted")
	r.checkListed()
	res := result{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if r.trace {
		res.Metrics = r.layer
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.errs = append(r.errs, fmt.Sprintf("metric %s is %v", name, m.Value))
			res.Correct = false
		}
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Fprintln(w, string(b))
	return res.Correct
}

// clock gives every timestamp of a run on one monotonic time base, in
// nanoseconds since the run began.
type clock struct{ base time.Time }

func newClock() clock                 { return clock{time.Now()} }
func (c clock) now() int64            { return int64(time.Since(c.base)) }
func (c clock) at(ns int64) time.Time { return c.base.Add(time.Duration(ns)) }
