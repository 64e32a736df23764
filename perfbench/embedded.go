package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sharded"
)

// embeddedWorkers is the closed loop's goroutine count: one per core of
// the machine the benchmark was sized on.
const embeddedWorkers = 2

// sampleEvery is the stride of timed operations in the closed loop.
const sampleEvery = 8

// drawOp draws the next operation of a generated stream: a 50/50 insert
// or extract, the insert carrying a 48-bit key.
func drawOp(rng interface{ Uint64() uint64 }) (insert bool, key uint64) {
	if rng.Uint64()&1 == 0 {
		return true, rng.Uint64() >> 16
	}
	return false, 0
}

// worker is one closed-loop goroutine's tallies and samples.
type worker struct {
	ins, ext, miss, missNonEmpty int64
	insNs, extNs                 []int64 // every sampleEvery-th op's time
	marks                        []int64 // run-clock time of every progressEvery-th op
}

// runEmbedded runs embedded-mixed: a prefilled sharded.Queue[[]byte] with
// the tenant config, driven directly by two goroutines in a closed loop.
func runEmbedded(p params, r *report) error {
	keys := prefillKeys(p.seed, 0, 2*p.prefill)
	build := func() *sharded.Queue[[]byte] {
		cfg := queueConfig()
		if p.trace {
			cfg.Queue.Metrics = core.NewMetrics() // one Metrics per queue
		}
		q := sharded.New[[]byte](cfg)
		q.InsertBatch(keys, nil)
		return q
	}
	var q *sharded.Queue[[]byte]
	setups := make([]time.Duration, 0, p.setupReps)
	for rep := 0; rep < p.setupReps; rep++ {
		if q != nil {
			q.Close()
		}
		t0 := time.Now()
		q = build()
		setups = append(setups, time.Since(t0))
	}
	defer q.Close()

	ws := make([]worker, embeddedWorkers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	u0 := readUsage()
	clk := newClock()
	for g := range ws {
		w := &ws[g]
		w.insNs = make([]int64, 0, int(p.seconds*40_000)) // ~2x the expected sample count
		w.extNs = make([]int64, 0, int(p.seconds*40_000))
		w.marks = make([]int64, 0, int(p.seconds*1e6/progressEvery))
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stream(p.seed, saltEmbedded, g)
			for n := 0; n%64 != 0 || !stop.Load(); n++ {
				insert, key := drawOp(rng)
				timed := n%sampleEvery == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				if insert {
					q.Insert(key, nil)
					w.ins++
				} else if _, _, ok := q.TryExtractMax(); ok {
					w.ext++
				} else {
					w.miss++
					if q.Len() > 0 {
						w.missNonEmpty++
					}
				}
				if (n+1)%progressEvery == 0 {
					w.marks = append(w.marks, clk.now())
				}
				if timed {
					d := time.Since(t0).Nanoseconds()
					if insert {
						w.insNs = append(w.insNs, d)
					} else {
						w.extNs = append(w.extNs, d)
					}
				}
			}
		}()
	}
	time.Sleep(time.Duration(p.seconds * float64(time.Second)))
	stop.Store(true)
	wg.Wait()
	end := clk.now()
	u1 := readUsage()

	var ins, ext, miss, missNonEmpty int64
	var insNs, extNs, all []int64
	var marks [][]int64
	for g := range ws {
		w := &ws[g]
		ins, ext, miss, missNonEmpty = ins+w.ins, ext+w.ext, miss+w.miss, missNonEmpty+w.missNonEmpty
		insNs, extNs = append(insNs, w.insNs...), append(extNs, w.extNs...)
		marks = append(marks, w.marks)
	}
	all = append(append(all, insNs...), extNs...)
	attempted := ins + ext + miss
	r.ops(attempted, missNonEmpty)
	r.check(int64(len(keys))+ins-ext == int64(q.Len()),
		"inserted %d - extracted %d != Len() %d", int64(len(keys))+ins, ext, q.Len())
	lat := newQuantiles(all)
	if err := checkOrder("op latency", float64(lat.at(0.5)), float64(lat.at(0.99)), float64(lat.max())); err != nil {
		r.check(false, "%v", err)
	}

	ranks := qualityRanks(queueConfig(), p.seed, keys, p.qualityOps, embeddedWorkers)
	r.check(len(ranks) > 0, "quality run extracted nothing")
	r.e2eMetric("setup_s", medianDuration(setups).Seconds(), "s")
	r.e2eMetric("cpu_us_per_op", float64((u1.cpu-u0.cpu).Nanoseconds())/1e3/float64(max(attempted, 1)), "us/op")
	r.e2eMetric("ok_pct", 100*float64(attempted-missNonEmpty)/float64(max(attempted, 1)), "%")
	r.e2eMetric("exact_max_pct", exactMaxPct(ranks), "%")
	r.note("closed loop: %d goroutines, %d ops in %.2f s (%d inserts, %d extracts, %d misses), %.1f kops/s over the run",
		len(ws), attempted, float64(end)/1e9, ins, ext, miss, float64(attempted)/float64(end)*1e6)
	rates := windowRates(marks, progressEvery, 0, end, int64(time.Second))
	r.note("throughput over %d whole 1 s windows: min %.1f, median %.1f, max %.1f kops/s",
		rates.n, float64(rates.at(0))/1000, float64(rates.at(0.5))/1000, float64(rates.max())/1000)
	r.note("op latency of %d sampled calls (1 in %d): p50 %.6f ms, p99 %.6f ms, max %.6f ms",
		lat.n, sampleEvery, ms(lat.at(0.5)), ms(lat.at(0.99)), ms(lat.max()))
	r.note("failed_pct = %.6g %% (%d misses on a non-empty queue of %d attempted)",
		100*float64(missNonEmpty)/float64(max(attempted, 1)), missNonEmpty, attempted)
	r.note("quality run: %d extractions in %d ops from %d goroutines", len(ranks), p.qualityOps, embeddedWorkers)

	if !p.trace {
		reportUsage(r, u0, u1, attempted)
		return nil
	}
	lm := func(name string, v float64) { r.layerMetric(name, v, unit(name)) }
	lm("closed.kops", float64(rates.at(0.5))/1000)
	r.unavailable("embedded-mixed has no network, generator or server", "lone.", "open.", "gen.", "wire.", "tcp.", "server.", "rt.", "trace.")
	iq, eq := newQuantiles(insNs), newQuantiles(extNs)
	lm("sharded.insert_p50_ns", float64(iq.at(0.5)))
	lm("sharded.insert_p99_ns", float64(iq.at(0.99)))
	lm("sharded.extract_p50_ns", float64(eq.at(0.5)))
	lm("sharded.extract_p99_ns", float64(eq.at(0.99)))
	snap := q.Snapshot()
	perKop := func(n uint64) float64 { return 1000 * float64(n) / float64(max(attempted, 1)) }
	lm("sharded.full_sweeps_per_kop", perKop(snap.FullSweeps))
	lm("sharded.steals_per_kop", perKop(snap.Steals))
	lm("sharded.imbalance", snap.Imbalance)
	lm("sharded.share_of_server_pct", 0)
	reportCore(r, snap.Merged, perKop, ranks)
	r.unavailable("embedded-mixed queues are volatile", "wal.")
	reportUsage(r, u0, u1, attempted)
	return nil
}

// qualityRanks runs n operations through a fresh queue built with cfg and
// prefilled with backlog, from workers goroutines at once, and returns the
// rank quality.Tracker gives every extraction (0 = the true maximum).
// Worker g draws from the closed loop's stream g. This is the closed
// loop's shape: each worker's operations take their context from their own
// P, so inserts stream into as many home shards as the closed loop's do,
// and extraction has to choose among them. One mutex makes each operation
// and its Tracker update one step, so every rank is exact.
func qualityRanks(cfg sharded.Config, seed uint64, backlog []uint64, n, workers int) []int64 {
	if runtime.GOMAXPROCS(0) < workers {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	}
	// Start from a collected heap, so how often the run's collections
	// reset the pooled contexts does not depend on what ran before it.
	runtime.GC()
	q := sharded.New[[]byte](cfg)
	defer q.Close()
	q.InsertBatch(backlog, nil)
	tr := newTracker(seed, 0)
	for _, k := range backlog {
		tr.Insert(k)
	}
	var (
		mu    sync.Mutex
		done  int
		ranks []int64
		wg    sync.WaitGroup
	)
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stream(seed, saltEmbedded, g)
			for {
				mu.Lock()
				if done == n {
					mu.Unlock()
					return
				}
				done++
				if insert, key := drawOp(rng); insert {
					q.Insert(key, nil)
					tr.Insert(key)
				} else if k, _, ok := q.TryExtractMax(); ok {
					ranks = append(ranks, int64(tr.ObserveExtract(k)))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ranks
}
