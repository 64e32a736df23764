package server

import (
	"testing"

	"repro/internal/wire"
)

// BenchmarkServerPipelined measures one request through an in-process
// zmsqd on loopback TCP with 64 in flight: each window pipelines 32
// inserts, which the coalescer may fold, then 32 extracts, over a tenant
// prefilled with 10K keys. It reports the allocations of client and
// server together, per request.
func BenchmarkServerPipelined(b *testing.B) {
	const depth, prefill = 64, 10_000
	_, addr := startServer(b, baseConfig("alpha"))
	c, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	keys := make([]uint64, prefill)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15 >> 16
	}
	if r, err := c.Do(wire.Request{Op: wire.OpInsertBatch, Tenant: "alpha", Keys: keys}); err != nil || r.Status != wire.StatusOK {
		b.Fatalf("prefill: %+v %v", r, err)
	}
	ps := make([]*wire.Pending, 0, depth)
	key := uint64(prefill)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		ps = ps[:0]
		for j := 0; j < depth; j++ {
			req := wire.Request{Op: wire.OpExtractMax, Tenant: "alpha"}
			if j < depth/2 {
				key++
				req = wire.Request{Op: wire.OpInsert, Tenant: "alpha", Key: key * 0x9e3779b97f4a7c15 >> 16}
			}
			p, err := c.Start(req)
			if err != nil {
				b.Fatal(err)
			}
			ps = append(ps, p)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		for _, p := range ps {
			r, err := p.Wait()
			if err != nil {
				b.Fatal(err)
			}
			if r.Status != wire.StatusOK && r.Status != wire.StatusEmpty {
				b.Fatalf("status %d for op %d", r.Status, r.Op)
			}
		}
	}
}
