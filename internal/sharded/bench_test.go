package sharded

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// BenchmarkInsertExtract measures the sharded front-end under each policy
// preset: parallel goroutines alternate Insert and TryExtractMax on a
// queue prefilled with 100K keys, in the zmsqd tenant shape (4 shards,
// the paper's default batch and TargetLen). One op is one Insert or one
// TryExtractMax.
func BenchmarkInsertExtract(b *testing.B) {
	for _, name := range PolicyNames() {
		if name == "v2" {
			continue // alias of elastic
		}
		pol, err := ParsePolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			q := New[int](Config{Shards: 4, Queue: core.DefaultConfig(), Policy: pol})
			defer q.Close()
			fill := xrand.New(1)
			for i := 0; i < 100_000; i++ {
				q.Insert(fill.Uint64()>>12, i)
			}
			var seeds atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := xrand.New(seeds.Add(1))
				for i := 0; pb.Next(); i++ {
					if i&1 == 0 {
						q.Insert(rng.Uint64()>>12, i)
					} else {
						q.TryExtractMax()
					}
				}
			})
		})
	}
}
