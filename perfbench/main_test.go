package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/wire"
)

// smokeParams shrinks every workload to a second or two.
func smokeParams(t *testing.T, trace bool) params {
	p := defaultParams()
	p.seed, p.seconds, p.trace = 7, 1, trace
	p.workdir = t.TempDir()
	p.prefill, p.rateQPS, p.setupReps, p.qualityOps = 2000, 4000, 2, 5000
	return p
}

// TestWorkloadsSmoke runs every workload end to end, untraced and traced,
// and checks that the result line parses with every listed metric.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/e2e", true: "/traced"}[trace], func(t *testing.T) {
				r := newReport(trace)
				if err := workloads[name](smokeParams(t, trace), r); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				ok := r.print(&out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if !ok {
					t.Fatalf("run failed its checks:\n%s", out.String())
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				want := e2eMetrics
				if trace {
					want = layerMetrics
				}
				if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
					t.Fatalf("result %+v", res)
				}
				for _, m := range want {
					if got, ok := res.Metrics[m[0]]; !ok || got.Unit != m[1] {
						t.Errorf("metric %s: got %+v, want unit %s", m[0], got, m[1])
					}
				}
			})
		}
	}
}

// TestChecksFire injects each kind of bad output and expects its check
// to fail the run.
func TestChecksFire(t *testing.T) {
	t.Run("corrupted payload", func(t *testing.T) {
		cn := &conn{live: 1}
		var tl tally
		bad := payload(42, 64)
		bad[3] ^= 1
		tl.count(wire.Response{Status: wire.StatusOK, Op: wire.OpExtractMax, Value: 42, Payload: bad}, false, 64, cn)
		tl.count(wire.Response{Status: wire.StatusOK, Op: wire.OpExtractMax, Value: 43, Payload: loadgen.ValueFor(43, 64)}, false, 64, cn)
		if tl.mismatched != 1 || tl.ok != 2 {
			t.Fatalf("tally %+v, want 1 mismatch of 2", tl)
		}
		tl.sent = 2
		r := newReport(false)
		checkService(r, &passResult{tallyA: tl, lat: newQuantiles([]int64{1, 2}), ranks: []int64{0}}, true)
		if len(r.errs) != 1 || !strings.Contains(r.errs[0], "payload") {
			t.Fatalf("errs %q, want one payload mismatch", r.errs)
		}
	})
	t.Run("p99 above max", func(t *testing.T) {
		if checkOrder("latency", 1, 16.38, 15.97) == nil {
			t.Fatal("p99 > max passed")
		}
		if err := checkOrder("latency", 1, 2, 2); err != nil {
			t.Fatal(err)
		}
		q := newQuantiles([]int64{5, 1, 4, 2, 3})
		if err := checkOrder("samples", float64(q.at(0.5)), float64(q.at(0.99)), float64(q.max())); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tally does not sum", func(t *testing.T) {
		bad := tally{sent: 10, ok: 7, empty: 1, overloaded: 1}
		if checkTally(bad) == nil {
			t.Fatal("tally 7+1+1+0 != 10 passed")
		}
		r := newReport(false)
		checkService(r, &passResult{tallyA: bad, lat: newQuantiles(make([]int64, 10)), ranks: []int64{0}}, false)
		if len(r.errs) == 0 || !strings.Contains(r.errs[0], "tally") {
			t.Fatalf("errs %q, want a tally error", r.errs)
		}
	})
}

// TestQualitySeesShardedRelaxation checks that embedded-mixed's
// exact_max_pct moves with the sharded layer's relaxation: with the same
// streams, one shard finds the true maximum more often than the tenant
// config's four, and sixteen shards less often.
func TestQualitySeesShardedRelaxation(t *testing.T) {
	keys := prefillKeys(7, 0, 20_000)
	rate := func(shards int) float64 {
		cfg := queueConfig()
		cfg.Shards = shards
		return exactMaxPct(qualityRanks(cfg, 7, keys, 100_000, embeddedWorkers))
	}
	one, tenant, sixteen := rate(1), rate(queueConfig().Shards), rate(16)
	t.Logf("exact_max_pct: 1 shard %.2f%%, %d shards %.2f%%, 16 shards %.2f%%", one, queueConfig().Shards, tenant, sixteen)
	if one < 1.2*tenant || sixteen > 0.8*tenant {
		t.Fatalf("exact_max_pct does not follow the shard count: 1 shard %.2f%%, %d shards %.2f%%, 16 shards %.2f%%",
			one, queueConfig().Shards, tenant, sixteen)
	}
}

// TestFrameScanner splits a stream of frames at every byte boundary and
// checks each frame is stamped, once complete, under its correlation id.
func TestFrameScanner(t *testing.T) {
	var stream []byte
	for id := uint32(1); id <= 3; id++ {
		var err error
		stream, err = wire.AppendRequest(stream, wire.Request{Op: wire.OpInsert, ID: id, Tenant: "t0", Key: uint64(id), Payload: make([]byte, int(id)*5)})
		if err != nil {
			t.Fatal(err)
		}
	}
	for cut := 1; cut < len(stream); cut++ {
		var s frameScanner
		at := make([]int64, 4)
		s.scan(stream[:cut], 1, at)
		s.scan(stream[cut:], 2, at)
		for id := 1; id <= 3; id++ {
			end := frameEnd(t, stream, id)
			want := int64(2)
			if end <= cut {
				want = 1
			}
			if at[id] != want {
				t.Fatalf("cut %d: frame %d stamped %d, want %d", cut, id, at[id], want)
			}
		}
	}
}

// frameEnd returns the offset just past the id-th frame of stream.
func frameEnd(t *testing.T, stream []byte, id int) int {
	off := 0
	for i := 0; i < id; i++ {
		off += wire.HeaderSize + int(binary.LittleEndian.Uint32(stream[off:]))
	}
	if off > len(stream) {
		t.Fatal("frame past end of stream")
	}
	return off
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// runs print in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		listed []named
		want   [][2]string
	}{{spec.EndToEnd, e2eMetrics}, {spec.PerLayer, layerMetrics}} {
		if len(c.listed) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, benchmark prints %d", len(c.listed), len(c.want))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.want[i][0] || m.Unit != c.want[i][1] {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, benchmark %s/%s", i, m.Name, m.Unit, c.want[i][0], c.want[i][1])
			}
		}
	}
}
