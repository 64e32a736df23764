package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/hazard"
	"repro/internal/locks"
	"repro/internal/xrand"
)

// tnode is one node of the ZMSQ tree (§3.1). The set may only be mutated
// while lock is held; max, min and count are cached copies of the set's
// extremes and size, updated only while holding lock but readable at any
// time. Optimistic readers must re-validate after locking.
//
// max and min are only meaningful when count > 0; an empty node compares as
// -infinity everywhere.
type tnode[V any] struct {
	lock  locks.TryMutex
	set   nodeSet[V]
	max   atomic.Uint64
	min   atomic.Uint64
	count atomic.Int64
	// Pad so adjacent tnodes in a level's backing array do not share cache
	// lines between their hot atomic fields.
	_ [24]byte
}

// emptyOrAtMost reports, from the cached fields, whether the node is empty
// or its max does not exceed key. This is the optimistic test used by
// position selection; it is re-validated under the node lock.
func (n *tnode[V]) emptyOrAtMost(key uint64) bool {
	return n.count.Load() == 0 || n.max.Load() <= key
}

// refresh recomputes a locked node's cached metadata from its set. The
// extremes are stored before count, so an optimistic reader that sees the
// new count also sees them.
func (n *tnode[V]) refresh() {
	c := n.set.length()
	if c > 0 {
		n.max.Store(n.set.maxKey())
		n.min.Store(n.set.minKey())
	}
	n.count.Store(int64(c))
}

// swapContents exchanges the sets and cached metadata of two locked nodes.
// Callers must hold both locks.
func swapContents[V any](a, b *tnode[V]) {
	a.set, b.set = b.set, a.set
	am, bm := a.max.Load(), b.max.Load()
	a.max.Store(bm)
	b.max.Store(am)
	am, bm = a.min.Load(), b.min.Load()
	a.min.Store(bm)
	b.min.Store(am)
	ac, bc := a.count.Load(), b.count.Load()
	a.count.Store(bc)
	b.count.Store(ac)
}

// alloc is the per-operation view of an AllocDomain: the set-node allocator
// threaded through set operations — the single seam both recycling
// strategies sit behind. In memory-safe mode (h != nil) it pops recycled
// lnodes from the domain's freelist and retires freed ones through the
// hazard-pointer domain, so reuse never depends on the garbage collector.
// In leaky mode (the paper's "ZMSQ (leak)" configuration) it recycles
// through the domain's sharded node cache instead: every lnode is only ever
// read or written under its owning TNode's lock (the optimistic paths read
// TNode atomics, never list nodes), so immediate reuse is safe, and any
// stale pointer held by a quiescent-only diagnostic keeps its object alive
// through the GC as before. Because it addresses the domain (not the
// queue), queues sharing an AllocDomain recycle from a common pool.
type alloc[V any] struct {
	ad    *AllocDomain[V]
	h     *hazard.Handle // nil in leaky/array mode
	met   *Metrics       // nil unless Config.Metrics was set
	shard uint32         // node-cache shard hash for this context
}

func (a *alloc[V]) get() *lnode[V] {
	if a.h != nil {
		if n := a.ad.free.pop(); n != nil {
			if a.met != nil {
				a.met.NodeCacheHit.Inc(a.shard)
			}
			return n
		}
		if a.met != nil {
			a.met.NodeCacheMiss.Inc(a.shard)
		}
		return new(lnode[V])
	}
	if a.ad != nil && a.ad.cache != nil {
		n, hit := a.ad.cache.get(a.shard)
		if a.met != nil {
			if hit {
				a.met.NodeCacheHit.Inc(a.shard)
			} else {
				a.met.NodeCacheMiss.Inc(a.shard)
			}
		}
		return n
	}
	if a.met != nil {
		a.met.NodeCacheMiss.Inc(a.shard)
	}
	return new(lnode[V])
}

func (a *alloc[V]) put(n *lnode[V]) {
	n.e = element[V]{}
	n.next, n.prev = nil, nil
	if a.h != nil {
		a.h.Retire(n, a.ad.reclaim)
		return
	}
	if a.ad != nil && a.ad.cache != nil {
		a.ad.cache.put(a.shard, n)
	}
}

// nodeCacheShards spreads leaky-mode recycling over several stacks so
// concurrent operations on different contexts rarely contend; each opCtx
// hashes to one shard for its lifetime, so a single goroutine's get/put
// traffic stays on one uncontended, cache-hot stack.
const (
	nodeCacheShards   = 8
	nodeCacheShardCap = 128
)

// nodeCache is the leaky-mode lnode recycler: fixed-capacity per-shard
// stacks (cache-line padded) with a sync.Pool behind them, so shard
// imbalance overflows into the runtime's per-P caches instead of the heap.
// Steady-state insert/extract pairs on one context recycle through their
// shard without allocating.
type nodeCache[V any] struct {
	shards   [nodeCacheShards]nodeCacheShard[V]
	overflow sync.Pool
}

type nodeCacheShard[V any] struct {
	mu    sync.Mutex
	nodes []*lnode[V]
	_     [40]byte
}

func newNodeCache[V any]() *nodeCache[V] {
	c := &nodeCache[V]{}
	for i := range c.shards {
		c.shards[i].nodes = make([]*lnode[V], 0, nodeCacheShardCap)
	}
	return c
}

// get pops a recycled lnode, reporting hit=false only when it had to
// allocate fresh (the sync.Pool overflow still counts as recycling).
func (c *nodeCache[V]) get(shard uint32) (*lnode[V], bool) {
	s := &c.shards[shard%nodeCacheShards]
	s.mu.Lock()
	if k := len(s.nodes); k > 0 {
		n := s.nodes[k-1]
		s.nodes[k-1] = nil
		s.nodes = s.nodes[:k-1]
		s.mu.Unlock()
		return n, true
	}
	s.mu.Unlock()
	if v := c.overflow.Get(); v != nil {
		return v.(*lnode[V]), true
	}
	return new(lnode[V]), false
}

func (c *nodeCache[V]) put(shard uint32, n *lnode[V]) {
	s := &c.shards[shard%nodeCacheShards]
	s.mu.Lock()
	if len(s.nodes) < cap(s.nodes) {
		s.nodes = append(s.nodes, n)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	c.overflow.Put(n)
}

// freelistShards spreads freelist traffic over several locks; a single
// mutex here would serialize every memory-safe insert and extract.
const freelistShards = 8

// freelist is a sharded pool of reusable lnodes. Nodes enter via the hazard
// domain's reclamation callback (only after no hazard pointer refers to
// them) and leave via alloc.get.
type freelist[V any] struct {
	shards [freelistShards]freeShard[V]
	rr     atomic.Uint32
}

type freeShard[V any] struct {
	mu    sync.Mutex
	nodes []*lnode[V]
	_     [40]byte
}

func (f *freelist[V]) push(n *lnode[V]) {
	s := &f.shards[f.rr.Add(1)%freelistShards]
	s.mu.Lock()
	s.nodes = append(s.nodes, n)
	s.mu.Unlock()
}

func (f *freelist[V]) pop() *lnode[V] {
	start := f.rr.Add(1)
	for i := uint32(0); i < freelistShards; i++ {
		s := &f.shards[(start+i)%freelistShards]
		s.mu.Lock()
		if k := len(s.nodes); k > 0 {
			n := s.nodes[k-1]
			s.nodes[k-1] = nil
			s.nodes = s.nodes[:k-1]
			s.mu.Unlock()
			return n
		}
		s.mu.Unlock()
	}
	return nil
}

// opCtx carries per-operation state: a private RNG, the participant's
// hazard-pointer handle, the set-node allocator, and reusable scratch
// buffers — scratch for pool refills and batch root grabs. Contexts are
// pooled; one is held for the duration of a single operation (or a whole
// batch call), so the scratch slices reach a steady-state capacity and the
// hot paths stop allocating.
type opCtx[V any] struct {
	rng     xrand.Rand
	h       *hazard.Handle
	al      alloc[V]
	scratch []element[V]
	// wkeys is ExtractBatch's key scratch for batch WAL records;
	// allocated only when the queue has a durability policy.
	wkeys []uint64
	// Valued-insert encoding scratch, allocated only when a payload
	// codec is attached: venc is the arena the codec appends encoded
	// payloads into, voffs the end offset of each member in it, vptrs
	// the per-member views handed to AppendInsertBatchValues. The WAL
	// copies the bytes before returning, so the arena is reused freely.
	venc  []byte
	voffs []int
	vptrs [][]byte
	// sctr drives the metrics rank-error sampler: one in rankSampleEvery
	// extractions on this context records a sample (see Metrics.RankError).
	sctr uint32
}

// parkHazards empties the traversal hazard slots at the end of an
// operation and parks the hazard record. sync.Pool may drop a resting
// context (at every GC, and at random under the race detector); a parked
// record is then adopted by the next new context, so its retired lnodes
// still reach the freelist.
func (c *opCtx[V]) parkHazards() {
	if c.h != nil {
		c.h.Clear(0)
		c.h.Clear(1)
		c.h.Park()
	}
}
