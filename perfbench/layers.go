package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/core"
)

// e2eMetrics and layerMetrics are the metric names and units the two
// kinds of run print; they match BENCHMARK.json's end_to_end and
// per_layer lists, in order.
var e2eMetrics = [][2]string{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us/op"},
	{"ok_pct", "%"},
	{"exact_max_pct", "%"},
}

var layerMetrics = [][2]string{
	{"closed.kops", "kops/s"},
	{"lone.p50_ms", "ms"},
	{"open.p50_ms", "ms"},
	{"open.p99_ms", "ms"},
	{"gen.lag_p50_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.samples", "count"},
	{"gen.p999_ms", "ms"},
	{"wire.req_bytes", "B"},
	{"wire.resp_bytes", "B"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.flushes_per_op", "1/op"},
	{"tcp.in_p50_us", "us"},
	{"tcp.out_p50_us", "us"},
	{"server.self_p50_us", "us"},
	{"server.self_p99_us", "us"},
	{"server.reads_per_op", "1/op"},
	{"server.writes_per_op", "1/op"},
	{"server.batch_mean", "count"},
	{"server.overload_pct", "%"},
	{"server.unattributed_us", "us"},
	{"sharded.insert_p50_ns", "ns"},
	{"sharded.insert_p99_ns", "ns"},
	{"sharded.extract_p50_ns", "ns"},
	{"sharded.extract_p99_ns", "ns"},
	{"sharded.full_sweeps_per_kop", "1/kop"},
	{"sharded.steals_per_kop", "1/kop"},
	{"sharded.imbalance", "ratio"},
	{"sharded.share_of_server_pct", "%"},
	{"core.trylock_fail_per_kop", "1/kop"},
	{"core.pool_refills_per_kop", "1/kop"},
	{"core.swapdown_per_kop", "1/kop"},
	{"core.node_cache_hit_pct", "%"},
	{"core.rank_err_mean", "rank"},
	{"core.rank_err_p99", "rank"},
	{"wal.bytes_per_op", "B/op"},
	{"wal.ops_per_sync", "1/sync"},
	{"wal.snapshots", "count"},
	{"wal.snapshot_bytes", "B"},
	{"wal.sync_p99_ms", "ms"},
	{"wal.dir_bytes", "B"},
	{"runtime.cpu_us_per_op", "us/op"},
	{"runtime.allocs_per_op", "1/op"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_pct", "%"},
	{"rt.gen_us", "us"},
	{"rt.wire_us", "us"},
	{"rt.flush_us", "us"},
	{"rt.tcp_in_us", "us"},
	{"rt.server_us", "us"},
	{"rt.tcp_out_us", "us"},
	{"rt.total_us", "us"},
	{"rt.unattributed_us", "us"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_kops", "kops/s"},
}

// unit returns the unit of a listed metric.
func unit(name string) string {
	for _, l := range [][][2]string{e2eMetrics, layerMetrics} {
		for _, m := range l {
			if m[0] == name {
				return m[1]
			}
		}
	}
	panic("perfbench: unlisted metric " + name)
}

// unavailable reports every per-layer metric whose name starts with one
// of prefixes as 0 and says why the workload cannot measure it.
func (r *report) unavailable(why string, prefixes ...string) {
	for _, m := range layerMetrics {
		for _, p := range prefixes {
			if strings.HasPrefix(m[0], p) {
				r.layerMetric(m[0], 0, m[1])
			}
		}
	}
	r.note("%s: %s; reported as 0", strings.Join(prefixes, " "), why)
}

// checkListed fails the run unless it reports exactly the listed metrics
// of its kind.
func (r *report) checkListed() {
	want, got := e2eMetrics, r.e2e
	if r.trace {
		want, got = layerMetrics, r.layer
	}
	for _, m := range want {
		g, ok := got[m[0]]
		r.check(ok, "metric %s not reported", m[0])
		r.check(!ok || g.Unit == m[1], "metric %s has unit %q, want %q", m[0], g.Unit, m[1])
	}
	r.check(len(got) == len(want), "%d metrics reported, %d listed", len(got), len(want))
}

func us(ns float64) float64 { return ns / 1e3 }

// reportServiceLayers records the per-layer metrics of a traced service
// pass.
func reportServiceLayers(r *report, p params, res *passResult, tr *tracer, durable bool) error {
	lm := func(name string, v float64) { r.layerMetric(name, v, unit(name)) }
	ops := float64(res.ops())

	lm("closed.kops", res.kops)
	lm("lone.p50_ms", ms(res.latL.at(0.5)))
	lm("open.p50_ms", ms(res.lat.at(0.5)))
	lm("open.p99_ms", ms(res.lat.at(0.99)))
	lm("gen.lag_p50_ms", ms(res.lag.at(0.5)))
	lm("gen.lag_p99_ms", ms(res.lag.at(0.99)))
	lm("gen.samples", float64(res.lat.n))
	tail, tailName := res.lat.tail()
	lm("gen.p999_ms", ms(tail))
	r.note("gen.p999_ms is the %s latency: the highest percentile with at least 10 of %d samples beyond it", tailName, res.lat.n)

	vb := 0
	if durable {
		vb = valueBytes
	}
	wc, err := wireReplay(res, vb)
	if err != nil {
		return err
	}
	lm("wire.req_bytes", wc.reqBytes)
	lm("wire.resp_bytes", wc.respBytes)
	lm("wire.encode_ns", wc.encReq+wc.encResp)
	lm("wire.decode_ns", wc.decReq+wc.decResp)
	lm("wire.flushes_per_op", float64(res.flushesA+res.flushesL+res.flushesB)/ops)

	conns := make([]*tracedConn, len(tenants))
	var reads, writes int64
	for c := range tenants {
		conns[c] = tr.conn(res.clientAddr[c])
		if conns[c] == nil {
			return fmt.Errorf("trace: no server connection for client %s", res.clientAddr[c])
		}
		reads += conns[c].reads.Load() - conns[c].reads0
		writes += conns[c].writes.Load() - conns[c].writes0
	}
	sp := spansOf(res, conns)
	r.check(len(sp.server) > 0, "trace matched no request")
	tcpIn, tcpOut, self := newQuantiles(sp.tcpIn), newQuantiles(sp.tcpOut), newQuantiles(sp.server)
	lm("tcp.in_p50_us", us(float64(tcpIn.at(0.5))))
	lm("tcp.out_p50_us", us(float64(tcpOut.at(0.5))))
	lm("server.self_p50_us", us(float64(self.at(0.5))))
	lm("server.self_p99_us", us(float64(self.at(0.99))))
	lm("server.reads_per_op", float64(reads)/ops)
	lm("server.writes_per_op", float64(writes)/ops)
	lm("server.batch_mean", res.stats.BatchMean)
	lm("server.overload_pct", 100*float64(res.stats.Overloads)/float64(max(res.stats.Ops+res.stats.Overloads, 1)))

	qr := shardedReplay(res)
	queueNs := float64(qr.totalNs) / float64(max(qr.requests, 1))
	// Server self time the replays cannot place: what remains after
	// decoding the request, the queue operation and encoding the response.
	lm("server.unattributed_us", us(self.mean()-wc.decReq-queueNs-wc.encResp))
	ins, ext := newQuantiles(qr.insNs), newQuantiles(qr.extNs)
	lm("sharded.insert_p50_ns", float64(ins.at(0.5)))
	lm("sharded.insert_p99_ns", float64(ins.at(0.99)))
	lm("sharded.extract_p50_ns", float64(ext.at(0.5)))
	lm("sharded.extract_p99_ns", float64(ext.at(0.99)))
	perKop := func(n uint64) float64 { return 1000 * float64(n) / float64(max(qr.requests, 1)) }
	lm("sharded.full_sweeps_per_kop", perKop(qr.snap.FullSweeps))
	lm("sharded.steals_per_kop", perKop(qr.snap.Steals))
	lm("sharded.imbalance", qr.imbalance)
	lm("sharded.share_of_server_pct", 100*queueNs/self.mean())
	reportCore(r, qr.snap.Merged, perKop, res.ranks)

	if durable {
		st, syncs, err := walReplay(filepath.Join(p.workdir, "wal-replay"), res, vb)
		if err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		sq := newQuantiles(syncs)
		lm("wal.bytes_per_op", float64(st.AppendedBytes)/float64(max(st.Ops, 1)))
		lm("wal.ops_per_sync", float64(st.Ops)/float64(max(st.Syncs, 1)))
		lm("wal.snapshots", float64(st.Snapshots))
		lm("wal.snapshot_bytes", float64(st.SnapshotBytesWritten))
		lm("wal.sync_p99_ms", ms(sq.at(0.99)))
		lm("wal.dir_bytes", float64(res.walBytes))
		r.note("wal replay: %d ops, %d timed SyncWAL calls (p50 %.3f ms)", st.Ops, sq.n, ms(sq.at(0.5)))
	} else {
		r.unavailable("volatile tenants have no WAL", "wal.")
	}

	reportUsage(r, res.u0, res.u1, res.ops())

	n := float64(len(sp.server))
	mean := func(v []int64) float64 {
		var s float64
		for _, x := range v {
			s += float64(x)
		}
		return us(s / n)
	}
	lm("rt.gen_us", mean(sp.gen))
	lm("rt.wire_us", mean(sp.wire))
	lm("rt.flush_us", mean(sp.flush))
	lm("rt.tcp_in_us", mean(sp.tcpIn))
	lm("rt.server_us", mean(sp.server))
	lm("rt.tcp_out_us", mean(sp.tcpOut))
	total := us(float64(sp.totalNs) / float64(max(sp.requests, 1)))
	lm("rt.total_us", total)
	lm("rt.unattributed_us", us(float64(sp.totalNs-sp.attributedNs)/float64(max(sp.requests, 1))))
	r.note("round trip partition over %d of %d answered phase A requests (means, us): gen %.2f + wire %.2f + flush %.2f + tcp.in %.2f + server %.2f + tcp.out %.2f, unattributed %.2f, total %.2f",
		len(sp.server), sp.requests, mean(sp.gen), mean(sp.wire), mean(sp.flush), mean(sp.tcpIn),
		mean(sp.server), mean(sp.tcpOut), r.layer["rt.unattributed_us"].Value, total)
	return nil
}

// reportCore records the core layer: counters from the merged shard
// snapshot (perKop scales a count per thousand operations) and the rank
// error of the extractions ranks holds, as quality.Tracker measured them.
func reportCore(r *report, m core.MetricsSnapshot, perKop func(uint64) float64, ranks []int64) {
	lm := func(name string, v float64) { r.layerMetric(name, v, unit(name)) }
	r.check(m.Enabled, "core metrics were not enabled")
	lm("core.trylock_fail_per_kop", perKop(m.TryLockFail))
	lm("core.pool_refills_per_kop", perKop(m.PoolRefills))
	lm("core.swapdown_per_kop", perKop(m.SwapDownMoves))
	lm("core.node_cache_hit_pct", 100*float64(m.NodeCacheHit)/float64(max(m.NodeCacheHit+m.NodeCacheMiss, 1)))
	rq := newQuantiles(ranks)
	lm("core.rank_err_mean", rq.mean())
	lm("core.rank_err_p99", float64(rq.at(0.99)))
}
