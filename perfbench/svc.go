package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/quality"
	"repro/internal/server"
	"repro/internal/sharded"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// tenants are the service workloads' two tenants; connection c carries
// every request of tenants[c], so each tenant's requests execute in the
// order they were sent.
var tenants = []string{"t0", "t1"}

// Stream salts: every random stream of a run is derived from the workload
// seed and one of these, so no two streams — in particular the key
// streams and quality.Tracker's treap priorities — share a sequence.
const (
	saltPrefill uint64 = 0x7072656669_6c6c00 + iota
	saltPhaseA
	saltPhaseB
	saltTracker
	saltEmbedded
	saltLone
)

// stream returns the random stream for (seed, salt, index).
func stream(seed, salt uint64, i int) *xrand.Rand {
	return xrand.New(xrand.Mix64(seed^salt) + uint64(i+1)*0x9e3779b97f4a7c15)
}

// queueConfig is the tenant queue configuration zmsqd builds from its
// default flags: 4 shards, policy v1, batch 48, queue seed 1.
func queueConfig() sharded.Config {
	qcfg := core.DefaultConfig()
	qcfg.Batch = core.DefaultBatch
	qcfg.Seed = 1
	pol, err := sharded.ParsePolicy("v1")
	if err != nil {
		panic(err) // "v1" is a built-in preset
	}
	return sharded.Config{Shards: 4, Queue: qcfg, Policy: pol}
}

// serverConfig is zmsqd's default configuration for the two tenants;
// walDir != "" makes them durable with the default 8 MiB snapshot size.
func serverConfig(walDir string) server.Config {
	return server.Config{
		Tenants:          tenants,
		Queue:            queueConfig(),
		WALDir:           walDir,
		WALSnapshotBytes: 8 << 20,
		MaxInflight:      server.DefaultMaxInflight,
		MaxCoalesce:      server.DefaultMaxCoalesce,
		RetryAfter:       server.DefaultRetryAfter,
	}
}

// prefillKeys is tenant c's backlog, drawn from the workload seed.
func prefillKeys(seed uint64, c, n int) []uint64 {
	rng := stream(seed, saltPrefill, c)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() >> 16
	}
	return keys
}

// payload is the value a request for key carries: none on volatile
// tenants, loadgen.ValueFor bytes on durable ones.
func payload(key uint64, valueBytes int) []byte {
	if valueBytes == 0 {
		return nil
	}
	return loadgen.ValueFor(key, valueBytes)
}

// op is one generated request of a connection's stream.
type op struct {
	sched  int64 // phase A: scheduled send time on the run clock
	key    uint64
	insert bool
	group  int32 // index of the client flush that carried it

	// Filled in by the run.
	sendStart, started, flushed, done int64
	status                            byte // wire status; 0 = transport error
	got                               uint64
}

// phaseAStream draws connection c's open-loop schedule: Poisson arrivals
// at qps over [0, dur), each a 50/50 insert or extract.
func phaseAStream(seed uint64, c int, qps float64, start, dur int64) []op {
	rng := stream(seed, saltPhaseA, c)
	ops := make([]op, 0, int(qps*float64(dur)/1e9*1.2)+16)
	t := float64(start)
	for {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		t += -math.Log(u) / qps * 1e9
		if int64(t) >= start+dur {
			return ops
		}
		o := op{sched: int64(t), insert: rng.Uint64()&1 == 0}
		if o.insert {
			o.key = rng.Uint64() >> 16
		}
		ops = append(ops, o)
	}
}

// conn is the client side of one connection.
type conn struct {
	tenant string
	cl     *wire.Client
	local  string // client address, matches the server side's RemoteAddr
	starts int    // requests started so far; the next request's id is starts+1
	live   int64  // elements the tenant holds, by the client's own count
}

func (c *conn) start(req wire.Request) (*wire.Pending, error) {
	req.Tenant = c.tenant
	p, err := c.cl.Start(req)
	if err == nil {
		c.starts++
	}
	return p, err
}

// service is one running server with its two client connections.
type service struct {
	srv      *server.Server
	serveErr chan error
	conns    []*conn
	walDir   string
	setup    time.Duration
}

// startService builds the server, listens, dials both connections and,
// on volatile tenants, prefills the backlog over the wire. Durable
// tenants recover the backlog from the WAL directory instead. The
// returned set-up time covers exactly that.
func startService(walDir string, backlog [][]uint64, tr *tracer) (*service, error) {
	t0 := time.Now()
	srv, recovered, err := server.New(serverConfig(walDir))
	if err != nil {
		return nil, err
	}
	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown()
		return nil, err
	}
	if tr != nil {
		ln = &tracedListener{Listener: ln, tr: tr}
	}
	s := &service{srv: srv, serveErr: make(chan error, 1), walDir: walDir}
	go func() { s.serveErr <- srv.Serve(ln) }()
	for c, t := range tenants {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.conns = append(s.conns, &conn{tenant: t, cl: wire.NewClient(nc), local: nc.LocalAddr().String(),
			live: int64(len(backlog[c]))})
	}
	if walDir != "" {
		live := map[string]int{}
		for _, rt := range recovered {
			live[rt.Tenant] = rt.Live
		}
		for c, t := range tenants {
			if live[t] != len(backlog[c]) {
				s.stop()
				return nil, fmt.Errorf("tenant %s recovered %d keys, seeded %d", t, live[t], len(backlog[c]))
			}
		}
	} else if err := s.prefill(backlog); err != nil {
		s.stop()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

// prefill inserts each tenant's backlog in InsertBatch frames.
func (s *service) prefill(backlog [][]uint64) error {
	const batch = 1000
	var pend []*wire.Pending
	for c, cn := range s.conns {
		keys := backlog[c]
		for i := 0; i < len(keys); i += batch {
			p, err := cn.start(wire.Request{Op: wire.OpInsertBatch, Keys: keys[i:min(i+batch, len(keys))]})
			if err != nil {
				return err
			}
			pend = append(pend, p)
		}
		if err := cn.cl.Flush(); err != nil {
			return err
		}
	}
	for _, p := range pend {
		resp, err := p.Wait()
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("prefill batch answered with status %d", resp.Status)
		}
	}
	return nil
}

// stop closes the clients and drains the server.
func (s *service) stop() error {
	for _, c := range s.conns {
		_ = c.cl.Close()
	}
	err := s.srv.Shutdown()
	if serr := <-s.serveErr; serr != nil && err == nil {
		err = serr
	}
	return err
}

// phaseA runs the open-loop phase: each connection's generator sends its
// pre-drawn requests at their scheduled times and a receiver records each
// response. Latency is timed from the scheduled send time.
func (s *service) phaseA(clk clock, streams [][]op, valueBytes int) []tally {
	tallies := make([]tally, len(s.conns))
	var wg sync.WaitGroup
	for c, cn := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[c] = cn.runOpenLoop(clk, streams[c], valueBytes)
		}()
	}
	wg.Wait()
	return tallies
}

type inflight struct {
	p      *wire.Pending
	i      int   // index into the phase A stream
	start  int64 // closed loops: run-clock time of Start
	insert bool
	key    uint64 // closed loops: the inserted key
	group  int32  // closed loops: index of the flush that carried it
}

func (cn *conn) runOpenLoop(clk clock, ops []op, valueBytes int) tally {
	pend := make(chan inflight, len(ops)) // sized to the number of sends
	recvDone := make(chan tally, 1)
	go func() { recvDone <- cn.receive(clk, pend, ops, valueBytes) }()

	group, unflushed := int32(0), 0
	var t tally
	pc, err := newPacer()
	if err != nil {
		t.sent, t.errors = int64(len(ops)), int64(len(ops))
		close(pend)
		<-recvDone
		return t
	}
	defer pc.close()
	for i := range ops {
		o := &ops[i]
		if pc.waitUntil(clk.at(o.sched)) != nil {
			t.sent += int64(len(ops) - i)
			t.errors += int64(len(ops) - i)
			break
		}
		o.sendStart = clk.now()
		req := wire.Request{Op: wire.OpExtractMax}
		if o.insert {
			req = wire.Request{Op: wire.OpInsert, Key: o.key, Payload: payload(o.key, valueBytes)}
		}
		p, err := cn.start(req)
		o.started = clk.now()
		t.sent++
		if err != nil {
			t.errors++
		} else {
			pend <- inflight{p: p, i: i, insert: o.insert}
		}
		// Flush when the next request is not yet due: requests that fell
		// behind schedule reach the server back to back, as pipelined
		// requests from a real client would.
		if i+1 == len(ops) || ops[i+1].sched > o.started {
			err := cn.cl.Flush()
			now := clk.now()
			for j := unflushed; j <= i; j++ {
				ops[j].flushed, ops[j].group = now, group
			}
			group++
			unflushed = i + 1
			if err != nil {
				break
			}
		}
	}
	close(pend)
	t.add(<-recvDone)
	return t
}

// receive awaits responses in send order and checks each one.
func (cn *conn) receive(clk clock, pend <-chan inflight, ops []op, valueBytes int) tally {
	var t tally
	for f := range pend {
		resp, err := f.p.Wait()
		o := &ops[f.i]
		o.done = clk.now()
		if err != nil {
			t.errors++
			continue
		}
		o.status, o.got = resp.Status, resp.Value
		t.count(resp, f.insert, valueBytes, cn)
	}
	return t
}

// count classifies one response and verifies an extraction's payload.
func (t *tally) count(resp wire.Response, insert bool, valueBytes int, cn *conn) {
	want := wire.OpExtractMax
	if insert {
		want = wire.OpInsert
	}
	switch {
	case resp.Op != want:
		t.errors++
	case resp.Status == wire.StatusOK:
		t.ok++
		if insert {
			cn.live++
			return
		}
		cn.live--
		if !bytes.Equal(resp.Payload, payload(resp.Value, valueBytes)) {
			t.mismatched++
		}
	case resp.Status == wire.StatusEmpty:
		// The tenant's only client knows whether it holds elements.
		t.empty++
		if cn.live > 0 {
			t.emptyLive++
		}
	case resp.Status == wire.StatusOverloaded:
		t.overloaded++
	default:
		t.errors++
	}
}

// recorded is a closed-loop request kept for the quality ranking and the
// WAL replay, with the answer it got.
type recorded struct {
	key    uint64
	insert bool
	group  int32
	status byte   // wire status; 0 = transport error
	got    uint64 // the extracted key
}

// Closed-loop sampling: the receiver times every latencyEvery-th request
// from its Start to its response, and marks the time of every
// progressEvery-th OK response so throughput can be taken per window.
const (
	latencyEvery  = 4
	progressEvery = 256
)

// closedLoop is what one connection's closed loop measured.
type closedLoop struct {
	tally   tally
	flushes int
	recs    []recorded // the answered requests in send order, when recording
	lat     []int64    // sampled request latencies, ns
	marks   []int64    // run-clock times of progress marks
}

// closedLoops runs a closed loop on every connection: each keeps depth
// requests in flight until the deadline, drawing them from the salt's
// streams. With record set it keeps each connection's answered requests.
func (s *service) closedLoops(clk clock, seed, salt uint64, depth int, until time.Time, valueBytes int, record bool) []closedLoop {
	out := make([]closedLoop, len(s.conns))
	var wg sync.WaitGroup
	for c, cn := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[c] = cn.runClosedLoop(clk, stream(seed, salt, c), depth, until, valueBytes, record)
		}()
	}
	wg.Wait()
	return out
}

func (cn *conn) runClosedLoop(clk clock, rng *xrand.Rand, depth int, until time.Time, valueBytes int, record bool) closedLoop {
	slots := make(chan struct{}, depth) // one slot per request in flight
	pend := make(chan inflight, depth)
	secs := time.Until(until).Seconds()
	recvDone := make(chan closedLoop, 1)
	go func() {
		r := closedLoop{
			lat:   make([]int64, 0, int(secs*200_000/latencyEvery)+16),
			marks: make([]int64, 0, int(secs*200_000/progressEvery)+16),
		}
		var n int
		for f := range pend {
			resp, err := f.p.Wait()
			done := clk.now()
			<-slots
			if n++; n%latencyEvery == 0 {
				r.lat = append(r.lat, done-f.start)
			}
			if record {
				r.recs = append(r.recs, recorded{f.key, f.insert, f.group, resp.Status, resp.Value})
			}
			if err != nil {
				r.tally.errors++
				continue
			}
			ok := r.tally.ok
			r.tally.count(resp, f.insert, valueBytes, cn)
			if r.tally.ok != ok && r.tally.ok%progressEvery == 0 {
				r.marks = append(r.marks, done)
			}
		}
		recvDone <- r
	}()

	var (
		t       tally
		flushes int
		group   int32
	)
	// send starts one request in the slot the caller acquired, releasing
	// it again when the request cannot be started.
	send := func() bool {
		insert, key := drawOp(rng)
		req := wire.Request{Op: wire.OpExtractMax}
		if insert {
			req = wire.Request{Op: wire.OpInsert, Key: key, Payload: payload(key, valueBytes)}
		}
		start := clk.now()
		p, err := cn.start(req)
		t.sent++
		if err != nil {
			t.errors++
			<-slots
			return false
		}
		pend <- inflight{p: p, insert: insert, start: start, key: key, group: group}
		return true
	}
	tryAcquire := func() bool {
		select {
		case slots <- struct{}{}:
			return true
		default:
			return false
		}
	}
	for ok := true; ok && time.Now().Before(until); {
		slots <- struct{}{} // block until a response frees a slot
		ok = send()
		for ok && tryAcquire() {
			ok = send()
		}
		flushes++
		group++
		if cn.cl.Flush() != nil {
			break // the waiting receiver counts the failed requests
		}
	}
	close(pend)
	recv := <-recvDone
	recv.tally.sent, recv.tally.errors = t.sent, recv.tally.errors+t.errors
	recv.flushes = flushes
	return recv
}

// passResult is what one service pass measured.
type passResult struct {
	setup      []time.Duration
	lat        quantiles // phase A, ns from scheduled send to response
	lag        quantiles // phase A, ns from scheduled to actual send
	latL       quantiles // lone phase, sampled ns from Start to response
	latB       quantiles // phase B, sampled ns from Start to response
	kops       float64   // phase B: median over 1 s windows of OK ops/s, / 1000
	kopsMean   float64   // phase B: OK ops over the whole phase, / 1000
	ratesB     quantiles // phase B: OK ops/s of each whole 1 s window
	cpuB       float64   // phase B: process CPU µs per OK request
	tallyA     tally
	tallyL     tally
	tallyB     tally
	ranks      []int64 // rank of each server extraction in phase A and the lone phase (0 = true maximum)
	flushesA   int
	flushesL   int
	flushesB   int
	idBase     []int    // requests each connection started before phase A
	clientAddr []string // each connection's client address
	streams    [][]op
	lone       [][]recorded // each connection's lone-phase requests
	phaseB     [][]recorded // traced durable passes only
	backlog    [][]uint64
	stats      server.Stats
	u0, u1     usage // process usage before phase A and after phase B
	seedDir    string
	walBytes   int64    // WAL directory size after the run
	lenErrs    []string // tenants whose length differs from their client's count
}

// ops is every request attempted in the measured phases.
func (r *passResult) ops() int64 { return r.tallyA.sent + r.tallyL.sent + r.tallyB.sent }

// servicePass sets the service up p.setupReps times (keeping the last),
// then runs phase A, the lone phase and phase B for p.seconds in total. A
// non-nil tracer wraps the server's listener and connections.
func servicePass(p params, durable bool, tr *tracer, tag string) (*passResult, error) {
	res := &passResult{}
	for c := range tenants {
		res.backlog = append(res.backlog, prefillKeys(p.seed, c, p.prefill))
	}
	clk := newClock()
	// The schedule starts after set-up, which the durable workload
	// measures in seconds; it is drawn now so the tracer can size its
	// tables before any connection exists.
	durA := int64(p.seconds * phaseA * 1e9)
	maxID := p.prefill/1000 + 2
	for c := range tenants {
		res.streams = append(res.streams, phaseAStream(p.seed, c, p.rateQPS/float64(len(tenants)), 0, durA))
		maxID += len(res.streams[c])
	}
	if tr != nil {
		tr.init(clk, maxID)
	}
	vb := 0
	if durable {
		vb = valueBytes
		res.seedDir = filepath.Join(p.workdir, tag+"-seed")
		if err := seedWAL(res.seedDir, res.backlog, vb); err != nil {
			return nil, fmt.Errorf("seed WAL: %w", err)
		}
	}
	var s *service
	for rep := 0; rep < p.setupReps; rep++ {
		walDir := ""
		if durable {
			walDir = filepath.Join(p.workdir, fmt.Sprintf("%s-wal%d", tag, rep))
			if err := copyDir(res.seedDir, walDir); err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = startService(walDir, res.backlog, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, s.setup)
		if rep+1 < p.setupReps {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}

	startA := clk.now() + int64(20*time.Millisecond) // both generators reach their first arrival
	for c, cn := range s.conns {
		for i := range res.streams[c] {
			res.streams[c][i].sched += startA
		}
		res.idBase = append(res.idBase, cn.starts)
		res.clientAddr = append(res.clientAddr, cn.local)
	}
	if tr != nil {
		tr.mark()
	}
	res.u0 = readUsage()
	for _, t := range s.phaseA(clk, res.streams, vb) {
		res.tallyA.add(t)
	}

	var latL []int64
	untilL := time.Now().Add(time.Duration(p.seconds * phaseLone * float64(time.Second)))
	for _, l := range s.closedLoops(clk, p.seed, saltLone, 1, untilL, vb, true) {
		res.tallyL.add(l.tally)
		res.flushesL += l.flushes
		res.lone = append(res.lone, l.recs)
		latL = append(latL, l.lat...)
	}
	res.latL = newQuantiles(latL)

	startB := time.Now()
	startBClk := clk.now()
	uB := readUsage()
	untilB := startB.Add(time.Duration(p.seconds * (1 - phaseA - phaseLone) * float64(time.Second)))
	// Phase B runs on every CPU, as zmsqd does. Its figure is CPU time,
	// which waiting for a vCPU to wake does not add to, and spreading the
	// work over every vCPU averages out a host neighbour slowing one.
	oneP := runtime.GOMAXPROCS(runtime.NumCPU())
	loops := s.closedLoops(clk, p.seed, saltPhaseB, depth, untilB, vb, durable && tr != nil)
	runtime.GOMAXPROCS(oneP)
	endBClk := clk.now()
	res.u1 = readUsage()
	var latB []int64
	var marks [][]int64
	for _, l := range loops {
		res.tallyB.add(l.tally)
		res.flushesB += l.flushes
		res.phaseB = append(res.phaseB, l.recs)
		latB = append(latB, l.lat...)
		marks = append(marks, l.marks)
	}
	res.latB = newQuantiles(latB)
	res.ratesB = windowRates(marks, progressEvery, startBClk, endBClk, int64(time.Second))
	res.kops = float64(res.ratesB.at(0.5)) / 1000
	res.kopsMean = float64(res.tallyB.ok) / (float64(endBClk-startBClk) / 1e9) / 1000
	res.cpuB = float64((res.u1.cpu - uB.cpu).Nanoseconds()) / 1e3 / float64(max(res.tallyB.ok, 1))
	res.stats = s.srv.StatsSnapshot()
	for _, cn := range s.conns {
		if n := res.stats.Tenants[cn.tenant]; int64(n) != cn.live {
			res.lenErrs = append(res.lenErrs, fmt.Sprintf("tenant %s holds %d elements, its client counted %d", cn.tenant, n, cn.live))
		}
	}
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if durable {
		var err error
		if res.walBytes, err = dirSize(s.walDir); err != nil {
			return nil, fmt.Errorf("WAL directory size: %w", err)
		}
	}

	var lat, lag []int64
	for _, ops := range res.streams {
		for i := range ops {
			o := &ops[i]
			if o.done != 0 {
				lat = append(lat, o.done-o.sched)
			}
			if o.started != 0 {
				lag = append(lag, o.sendStart-o.sched)
			}
			if i == 0 || o.group != ops[i-1].group {
				res.flushesA++
			}
		}
	}
	res.lat, res.lag = newQuantiles(lat), newQuantiles(lag)
	res.ranks = svcRanks(p.seed, res.backlog, res.streams, res.lone)
	return res, nil
}

// svcRanks replays each tenant's phase A stream and then its lone-phase
// requests, in the order its only connection sent them, through
// quality.Tracker and returns the rank of every OK extraction.
func svcRanks(seed uint64, backlog [][]uint64, streams [][]op, lone [][]recorded) []int64 {
	var ranks []int64
	for c, ops := range streams {
		tr := newTracker(seed, c)
		for _, k := range backlog[c] {
			tr.Insert(k)
		}
		observe := func(status byte, insert bool, key, got uint64) {
			switch {
			case status != wire.StatusOK:
			case insert:
				tr.Insert(key)
			default:
				ranks = append(ranks, int64(tr.ObserveExtract(got)))
			}
		}
		for i := range ops {
			observe(ops[i].status, ops[i].insert, ops[i].key, ops[i].got)
		}
		for _, rc := range lone[c] {
			observe(rc.status, rc.insert, rc.key, rc.got)
		}
	}
	return ranks
}

// newTracker returns a quality.Tracker whose treap priorities come from
// their own stream. Seeding it with the key stream's seed would make the
// priorities follow the key sequence and degrade the treap to a list.
func newTracker(seed uint64, i int) *quality.Tracker {
	return quality.NewTracker(stream(seed, saltTracker, i).Uint64())
}

// runService runs svc-volatile or svc-durable. The untraced run reports
// the end-to-end metrics. The traced run makes an untraced and a traced
// pass of half the length each, reports the per-layer metrics from the
// traced one and the difference between the two as tracing overhead.
func runService(p params, durable bool, r *report) error {
	// Set-up, phase A and the lone phase run server and clients on one P,
	// so no hand-off between them waits for another vCPU to wake; see
	// README.md.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if !p.trace {
		res, err := servicePass(p, durable, nil, "e2e")
		if err != nil {
			return err
		}
		reportService(r, res, durable)
		return nil
	}
	half := p
	half.seconds, half.setupReps = p.seconds/2, 1
	base, err := servicePass(half, durable, nil, "base")
	if err != nil {
		return err
	}
	tr := &tracer{}
	res, err := servicePass(half, durable, tr, "traced")
	if err != nil {
		return err
	}
	checkService(r, base, durable)
	reportService(r, res, durable)
	r.layerMetric("trace.overhead_p50_ms", ms(res.latL.at(0.5)-base.latL.at(0.5)), "ms")
	r.layerMetric("trace.overhead_kops", res.kops-base.kops, "kops/s")
	return reportServiceLayers(r, p, res, tr, durable)
}

// checkService applies the output checks to one pass and adds its
// operations to the run's tally.
func checkService(r *report, res *passResult, durable bool) {
	var t tally
	t.add(res.tallyA)
	t.add(res.tallyL)
	t.add(res.tallyB)
	r.ops(t.sent, t.failed())
	if err := checkTally(t); err != nil {
		r.check(false, "%v", err)
	}
	for _, q := range []struct {
		what string
		q    quantiles
	}{{"phase A latency", res.lat}, {"lone-phase latency", res.latL}, {"phase B latency", res.latB}} {
		if err := checkOrder(q.what, float64(q.q.at(0.5)), float64(q.q.at(0.99)), float64(q.q.max())); err != nil {
			r.check(false, "%v", err)
		}
	}
	r.check(res.tallyA.errors > 0 || int64(res.lat.n) == res.tallyA.sent,
		"phase A has %d latency samples for %d requests", res.lat.n, res.tallyA.sent)
	for _, e := range res.lenErrs {
		r.check(false, "%s", e)
	}
	r.check(!durable || t.mismatched == 0, "%d extracted payloads differ from loadgen.ValueFor", t.mismatched)
	r.check(len(res.ranks) > 0, "phase A and the lone phase extracted nothing")
	for _, rk := range res.ranks {
		if rk < 0 {
			r.check(false, "the server extracted a key that was never inserted")
			break
		}
	}
}

// reportService checks a pass and records its end-to-end metrics.
func reportService(r *report, res *passResult, durable bool) {
	checkService(r, res, durable)
	t := res.tallyA
	t.add(res.tallyL)
	t.add(res.tallyB)
	r.e2eMetric("setup_s", medianDuration(res.setup).Seconds(), "s")
	r.e2eMetric("cpu_us_per_op", res.cpuB, "us/op")
	r.e2eMetric("ok_pct", 100*float64(t.sent-t.failed())/float64(max(t.sent, 1)), "%")
	r.e2eMetric("exact_max_pct", exactMaxPct(res.ranks), "%")
	r.note("quality: the server's extractions in phase A and the lone phase returned the true maximum %.4g%% of the time (%d extractions)",
		exactMaxPct(res.ranks), len(res.ranks))
	r.note("lone phase, one request in flight per connection: %d requests, %d latency samples; p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, max %.4f ms",
		res.tallyL.sent, res.latL.n, ms(res.latL.at(0.5)), ms(res.latL.at(0.9)), ms(res.latL.at(0.99)), ms(res.latL.max()))
	tail, tailName := res.lat.tail()
	r.note("phase A, open loop: %d latency samples; p50 %.4f ms, p99 %.4f ms, %s %.4f ms, max %.4f ms",
		res.lat.n, ms(res.lat.at(0.5)), ms(res.lat.at(0.99)), tailName, ms(tail), ms(res.lat.max()))
	r.note("gen.lag_p50_ms = %.6g ms, gen.lag_p99_ms = %.6g ms, gen.lag_max_ms = %.6g ms",
		ms(res.lag.at(0.5)), ms(res.lag.at(0.99)), ms(res.lag.max()))
	r.note("phase B throughput over %d whole 1 s windows: min %.1f, median %.1f, max %.1f kops/s",
		res.ratesB.n, float64(res.ratesB.at(0))/1000, res.kops, float64(res.ratesB.max())/1000)
	r.note("phase B, closed loop: %d requests, %.2f per flush; %.1f kops/s over the phase; latency of %d sampled requests p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, max %.4f ms",
		res.tallyB.sent, float64(res.tallyB.sent)/float64(max(res.flushesB, 1)), res.kopsMean,
		res.latB.n, ms(res.latB.at(0.5)), ms(res.latB.at(0.9)), ms(res.latB.at(0.99)), ms(res.latB.max()))
	r.note("failed_pct = %.6g %% (%d errors, %d overloaded, %d empty from a non-empty tenant, %d payload mismatches of %d attempted; %d empty in all)",
		100*float64(t.failed())/float64(max(t.sent, 1)), t.errors, t.overloaded, t.emptyLive, t.mismatched, t.sent, t.empty)
	if !r.trace {
		reportUsage(r, res.u0, res.u1, res.ops())
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// exactMaxPct is the share of extractions that returned the true maximum.
func exactMaxPct(ranks []int64) float64 {
	hits := 0
	for _, rk := range ranks {
		if rk == 0 {
			hits++
		}
	}
	return 100 * float64(hits) / float64(max(len(ranks), 1))
}
