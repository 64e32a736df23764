package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The replays below time one layer's public functions on the exact
// requests a service pass sent, outside the server: the wire codec on the
// recorded frames, a standalone sharded queue on the recorded queue
// operations, and a durable sharded queue for the WAL.

// durableConfig is the tenant queue config with a WAL in dir, as
// server.New builds it for a durable tenant.
func durableConfig(dir string) sharded.Config {
	cfg := queueConfig()
	cfg.Queue.Durability = &core.DurabilityConfig{
		WAL: true, Dir: dir, GroupCommit: wal.DefaultGroupCommit, SnapshotBytes: 8 << 20,
	}
	return cfg
}

// seedWAL writes each tenant's backlog, with its ValueFor payloads, into
// a durable queue under dir/<tenant> and closes it cleanly, so a server
// started on a copy of dir recovers exactly the backlog.
func seedWAL(dir string, backlog [][]uint64, valueBytes int) error {
	for c, t := range tenants {
		q, err := sharded.NewDurableCodec[[]byte](durableConfig(filepath.Join(dir, t)), wal.BytesCodec{})
		if err != nil {
			return err
		}
		keys := backlog[c]
		for i := 0; i < len(keys); i += 1000 {
			chunk := keys[i:min(i+1000, len(keys))]
			vals := make([][]byte, len(chunk))
			for j, k := range chunk {
				vals[j] = payload(k, valueBytes)
			}
			q.InsertBatch(chunk, vals)
		}
		if err := q.SyncWAL(); err != nil {
			return err
		}
		if err := q.CloseWAL(); err != nil {
			return err
		}
		q.Close()
	}
	return nil
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// wireCost is the codec's cost over one pass's phase A frames.
type wireCost struct {
	reqBytes, respBytes              float64 // mean frame sizes
	encReq, encResp, decReq, decResp float64 // mean ns per frame
}

// wireReplay encodes and decodes every answered phase A request and its
// OK response with the wire package's public functions, repeating the
// whole set until each step has run for at least minTime.
func wireReplay(res *passResult, valueBytes int) (wireCost, error) {
	var reqs []wire.Request
	var resps []wire.Response
	for c, ops := range res.streams {
		for i := range ops {
			o := &ops[i]
			if o.status != wire.StatusOK {
				continue
			}
			id := uint32(res.idBase[c] + i + 1)
			rq := wire.Request{Op: wire.OpExtractMax, ID: id, Tenant: tenants[c]}
			rs := wire.Response{Status: wire.StatusOK, ID: id, Op: wire.OpExtractMax, Value: o.got, Payload: payload(o.got, valueBytes)}
			if o.insert {
				rq = wire.Request{Op: wire.OpInsert, ID: id, Tenant: tenants[c], Key: o.key, Payload: payload(o.key, valueBytes)}
				rs = wire.Response{Status: wire.StatusOK, ID: id, Op: wire.OpInsert}
			}
			reqs, resps = append(reqs, rq), append(resps, rs)
		}
	}
	n := float64(len(reqs))
	if n == 0 {
		return wireCost{}, fmt.Errorf("wire replay: no answered requests")
	}
	var reqBuf, respBuf []byte
	var err error
	encReq := repeatTimed(func() {
		reqBuf = reqBuf[:0]
		for _, rq := range reqs {
			if reqBuf, err = wire.AppendRequest(reqBuf, rq); err != nil {
				return
			}
		}
	})
	if err != nil {
		return wireCost{}, fmt.Errorf("wire replay: %w", err)
	}
	encResp := repeatTimed(func() {
		respBuf = respBuf[:0]
		for _, rs := range resps {
			respBuf = wire.AppendResponse(respBuf, rs)
		}
	})
	var sink uint32
	decode := func(buf []byte, parse func([]byte) (uint32, error)) func() {
		return func() {
			rd := bytes.NewReader(buf)
			var scratch []byte
			for {
				var payload []byte
				payload, scratch, err = wire.ReadFrame(rd, scratch)
				if err == io.EOF {
					err = nil
					return
				}
				if err != nil {
					return
				}
				var id uint32
				if id, err = parse(payload); err != nil {
					return
				}
				sink += id
			}
		}
	}
	var keys []uint64
	decReq := repeatTimed(decode(reqBuf, func(b []byte) (uint32, error) {
		rq, err := wire.ParseRequest(b, keys[:0])
		return rq.ID, err
	}))
	if err != nil {
		return wireCost{}, fmt.Errorf("wire replay: %w", err)
	}
	decResp := repeatTimed(decode(respBuf, func(b []byte) (uint32, error) {
		rs, err := wire.ParseResponse(b, keys[:0])
		return rs.ID, err
	}))
	if err != nil {
		return wireCost{}, fmt.Errorf("wire replay: %w", err)
	}
	if sink == 0 {
		return wireCost{}, fmt.Errorf("wire replay decoded no ids")
	}
	return wireCost{
		reqBytes: float64(len(reqBuf)) / n, respBytes: float64(len(respBuf)) / n,
		encReq: encReq / n, encResp: encResp / n, decReq: decReq / n, decResp: decResp / n,
	}, nil
}

// repeatTimed runs f until at least 200 ms have passed and returns the
// mean ns of one call.
func repeatTimed(f func()) float64 {
	const minTime = 200 * time.Millisecond
	start := time.Now()
	calls := 0
	for time.Since(start) < minTime {
		f()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// queueOp is one operation a tenant queue executed, with the inserts of
// one client flush folded into a batch the way the server's coalescer
// folds pipelined inserts that arrive together.
type queueOp []uint64 // inserted keys; nil for an extraction

// queueOps turns a tenant's OK phase A requests, then its OK requests of
// each later closed loop given, into queue operations.
func queueOps(ops []op, later ...[]recorded) []queueOp {
	var out []queueOp
	var group int32 = -1
	add := func(insert bool, key uint64, g int32) {
		if !insert {
			out, group = append(out, nil), -1
			return
		}
		if group == g && len(out) > 0 && out[len(out)-1] != nil {
			out[len(out)-1] = append(out[len(out)-1], key)
			return
		}
		out, group = append(out, queueOp{key}), g
	}
	for i := range ops {
		if ops[i].status == wire.StatusOK {
			add(ops[i].insert, ops[i].key, ops[i].group)
		}
	}
	for _, recs := range later {
		group = -1 // a batch never extends one of an earlier phase
		for _, r := range recs {
			if r.status == wire.StatusOK {
				add(r.insert, r.key, r.group)
			}
		}
	}
	return out
}

// queueReplay is what replaying the svc op streams through standalone
// queues measured.
type queueReplay struct {
	insNs, extNs []int64 // per call; a batch call's time is split per key
	totalNs      int64
	requests     int64
	snap         sharded.Snapshot // summed over the tenant queues (metrics run)
	imbalance    float64
}

// shardedReplay replays each tenant's phase A queue operations through a
// standalone volatile queue with the tenant config and the same backlog:
// once timed, once with core metrics on for the counters.
func shardedReplay(res *passResult) queueReplay {
	var qr queueReplay
	for withMetrics := range 2 {
		for c := range tenants {
			cfg := queueConfig()
			if withMetrics == 1 {
				cfg.Queue.Metrics = core.NewMetrics()
			}
			q := sharded.New[[]byte](cfg)
			q.InsertBatch(res.backlog[c], nil)
			for _, qo := range queueOps(res.streams[c]) {
				t0 := time.Now()
				if qo != nil {
					q.InsertBatch(qo, nil)
				} else {
					q.TryExtractMax()
				}
				d := time.Since(t0).Nanoseconds()
				if withMetrics == 1 {
					continue
				}
				qr.totalNs += d
				if qo != nil {
					qr.insNs = append(qr.insNs, d/int64(len(qo)))
					qr.requests += int64(len(qo))
				} else {
					qr.extNs = append(qr.extNs, d)
					qr.requests++
				}
			}
			if withMetrics == 1 {
				s := q.Snapshot()
				qr.snap.Merged = qr.snap.Merged.Merge(s.Merged)
				qr.snap.FullSweeps += s.FullSweeps
				qr.snap.Steals += s.Steals
				qr.imbalance += s.Imbalance / float64(len(tenants))
			}
			q.Close()
		}
	}
	return qr
}

// walReplay replays each tenant's queue operations of all three phases,
// with their payloads, through a durable queue recovered from a copy of
// the seeded WAL directory, timing a SyncWAL every syncEvery operations.
func walReplay(dir string, res *passResult, valueBytes int) (wal.Stats, []int64, error) {
	const syncEvery = 512
	var total wal.Stats
	var syncs []int64
	for c, t := range tenants {
		tdir := filepath.Join(dir, t)
		if err := copyDir(filepath.Join(res.seedDir, t), tdir); err != nil {
			return total, nil, err
		}
		q, _, err := sharded.RecoverCodec[[]byte](durableConfig(tdir), wal.BytesCodec{})
		if err != nil {
			return total, nil, err
		}
		var phaseB []recorded
		if res.phaseB != nil {
			phaseB = res.phaseB[c]
		}
		n := 0
		for _, qo := range queueOps(res.streams[c], res.lone[c], phaseB) {
			if qo == nil {
				q.TryExtractMax()
				n++
			} else {
				vals := make([][]byte, len(qo))
				for i, k := range qo {
					vals[i] = payload(k, valueBytes)
				}
				q.InsertBatch(qo, vals)
				n += len(qo)
			}
			if n >= syncEvery {
				n = 0
				t0 := time.Now()
				if err := q.SyncWAL(); err != nil {
					return total, nil, err
				}
				syncs = append(syncs, time.Since(t0).Nanoseconds())
			}
		}
		st, _ := q.WALStats()
		if err := q.CloseWAL(); err != nil {
			return total, nil, err
		}
		q.Close()
		total.Ops += st.Ops
		total.Syncs += st.Syncs
		total.Snapshots += st.Snapshots
		total.AppendedBytes += st.AppendedBytes
		total.SnapshotBytesWritten += st.SnapshotBytesWritten
	}
	return total, syncs, nil
}
