package core

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// newAlloc returns a leaky allocator for direct set testing.
func newAlloc() *alloc[int] { return &alloc[int]{} }

func mkSet(array bool) nodeSet[int] {
	if array {
		return newArraySet[int](64)
	}
	return &listSet[int]{}
}

func setVariants(t *testing.T, f func(t *testing.T, mk func() nodeSet[int])) {
	t.Run("list", func(t *testing.T) { f(t, func() nodeSet[int] { return mkSet(false) }) })
	t.Run("array", func(t *testing.T) { f(t, func() nodeSet[int] { return mkSet(true) }) })
}

func fillSet(s nodeSet[int], a *alloc[int], keys []uint64) {
	for _, k := range keys {
		if s.length() == 0 || k >= s.maxKey() {
			s.insertMax(a, element[int]{key: k})
		} else {
			s.insertNonMax(a, element[int]{key: k})
		}
	}
}

func TestSetInsertAndExtremes(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		a := newAlloc()
		s := mk()
		keys := []uint64{5, 9, 2, 9, 7, 1, 8}
		fillSet(s, a, keys)
		if s.length() != len(keys) {
			t.Fatalf("length = %d, want %d", s.length(), len(keys))
		}
		if s.maxKey() != 9 {
			t.Fatalf("maxKey = %d, want 9", s.maxKey())
		}
		if s.minKey() != 1 {
			t.Fatalf("minKey = %d, want 1", s.minKey())
		}
	})
}

func TestSetRemoveMaxSortedDrain(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		a := newAlloc()
		s := mk()
		keys := []uint64{5, 9, 2, 9, 7, 1, 8, 3, 3}
		fillSet(s, a, keys)
		sorted := append([]uint64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		for i, w := range sorted {
			got := s.removeMax(a)
			if got.key != w {
				t.Fatalf("removeMax %d = %d, want %d", i, got.key, w)
			}
		}
		if s.length() != 0 {
			t.Fatalf("length %d after drain", s.length())
		}
	})
}

func TestSetTakeTopAscending(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		a := newAlloc()
		s := mk()
		fillSet(s, a, []uint64{10, 30, 20, 50, 40})
		out := s.takeTop(a, 3, nil)
		want := []uint64{30, 40, 50}
		if len(out) != 3 {
			t.Fatalf("takeTop returned %d elements", len(out))
		}
		for i, w := range want {
			if out[i].key != w {
				t.Fatalf("takeTop[%d] = %d, want %d", i, out[i].key, w)
			}
		}
		if s.length() != 2 || s.maxKey() != 20 || s.minKey() != 10 {
			t.Fatalf("remaining set wrong: len=%d max=%d min=%d", s.length(), s.maxKey(), s.minKey())
		}
	})
}

func TestSetTakeTopAll(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		a := newAlloc()
		s := mk()
		fillSet(s, a, []uint64{3, 1, 2})
		out := s.takeTop(a, 3, nil)
		if len(out) != 3 || s.length() != 0 {
			t.Fatalf("takeTop all: out=%d remaining=%d", len(out), s.length())
		}
	})
}

func TestSetSplitLower(t *testing.T) {
	// splitInto moves the lower half into the children, balancing them.
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		a := newAlloc()
		s, l, r := mk(), mk(), mk()
		fillSet(s, a, []uint64{10, 30, 20, 50, 40, 60, 70})
		s.splitInto(l, r)
		if l.length() != 2 || r.length() != 1 {
			t.Fatalf("children hold %d and %d, want 2 and 1", l.length(), r.length())
		}
		for _, c := range []nodeSet[int]{l, r} {
			for _, e := range c.ascending(nil) {
				if e.key > 30 {
					t.Fatalf("splitInto moved high key %d", e.key)
				}
			}
		}
		if s.length() != 4 || s.minKey() != 40 || s.maxKey() != 70 {
			t.Fatalf("kept half wrong: len=%d min=%d max=%d", s.length(), s.minKey(), s.maxKey())
		}
	})
}

func TestSetSplitLowerSmall(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		a := newAlloc()
		s, l, r := mk(), mk(), mk()
		s.insertMax(a, element[int]{key: 1})
		s.splitInto(l, r)
		if s.length() != 1 || l.length() != 0 || r.length() != 0 {
			t.Fatalf("split of singleton moved elements: kept %d, children %d+%d", s.length(), l.length(), r.length())
		}
	})
}

// TestSplitIntoMatchesOldRule checks the §3.4 split against the rule it
// replaced: the lower half was removed into a buffer (list sets in
// descending key order, array sets ascending) and each buffered element
// was added to r when r held fewer elements than l, and to l otherwise.
// The split must place the same key multisets, leave every set sorted and
// well linked, carry exact cached count/max/min, and lose no payload.
func TestSplitIntoMatchesOldRule(t *testing.T) {
	for _, mode := range []SetMode{SetModeList, SetModeArray} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := xrand.New(12)
			for trial := 0; trial < 300; trial++ {
				tl := 4 << rng.Intn(3)
				q := New[int](Config{Batch: 0, TargetLen: tl, SetMode: mode})
				ctx := q.getCtx()
				q.expandTree(0)
				root, l, r := q.root(), q.node(1, 0), q.node(1, 1)
				// Parent keys in [50,80) overflow 2×TargetLen; child keys
				// in [0,50] keep the mound invariant and share key 50 with
				// the parent. Children start at most TargetLen full, so
				// neither overflows and no recursive split runs.
				want := map[int]uint64{}
				fill := func(n *tnode[int], cnt int, lo, span uint64) []uint64 {
					keys := make([]uint64, cnt)
					n.lock.Lock()
					for i := range keys {
						keys[i] = lo + rng.Uint64n(span)
						id := len(want)
						want[id] = keys[i]
						q.addLocked(ctx, n, element[int]{key: keys[i], val: id})
					}
					n.lock.Unlock()
					return keys
				}
				pk := fill(root, 2*tl+1+rng.Intn(tl), 50, 30)
				wantL := fill(l, rng.Intn(tl+1), 0, 51)
				wantR := fill(r, rng.Intn(tl+1), 0, 51)

				sorted := slices.Sorted(slices.Values(pk))
				take := len(pk) / 2
				lower := append([]uint64(nil), sorted[:take]...)
				if mode == SetModeList {
					for i, j := 0, len(lower)-1; i < j; i, j = i+1, j-1 {
						lower[i], lower[j] = lower[j], lower[i]
					}
				}
				for _, k := range lower {
					if len(wantR) < len(wantL) {
						wantR = append(wantR, k)
					} else {
						wantL = append(wantL, k)
					}
				}

				root.lock.Lock()
				q.maybeSplit(ctx, 0, 0, root) // unlocks root
				q.putCtx(ctx)
				if err := q.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				got := map[int]uint64{}
				for _, c := range []struct {
					n    *tnode[int]
					want []uint64
				}{{root, sorted[take:]}, {l, wantL}, {r, wantR}} {
					elems := c.n.set.ascending(nil)
					if got, want := elemKeys(elems), slices.Sorted(slices.Values(c.want)); !slices.Equal(got, want) {
						t.Fatalf("trial %d: node holds %v, old rule gives %v", trial, got, want)
					}
					for _, e := range elems {
						got[e.val] = e.key
					}
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d: %d payloads after split, want %d", trial, len(got), len(want))
				}
				for id, k := range want {
					if got[id] != k {
						t.Fatalf("trial %d: payload %d has key %d, want %d", trial, id, got[id], k)
					}
				}
			}
		})
	}
}

func elemKeys(elems []element[int]) []uint64 {
	out := make([]uint64, len(elems))
	for i, e := range elems {
		out[i] = e.key
	}
	return out
}

// TestSplitAllocatesOnlyTheInsertedNode pins the split's node traffic in
// memory-safe list mode: an insert that overflows the root draws exactly
// one list node, its own, because the displaced half moves to the
// children node by node instead of being freed and reallocated.
func TestSplitAllocatesOnlyTheInsertedNode(t *testing.T) {
	const tl = 8
	q := New[int](Config{Batch: 0, TargetLen: tl, SetMode: SetModeList, Metrics: NewMetrics()})
	defer q.Close()
	for k := uint64(1); k <= 2*tl; k++ {
		q.Insert(k, 0) // each key is a new maximum, so it lands at the root
	}
	if st := q.Stats(); st.LeafLevel != 0 || st.Elements != 2*tl {
		t.Fatalf("setup: leaf level %d with %d elements, want a full root alone", st.LeafLevel, st.Elements)
	}
	before := q.Snapshot()
	q.Insert(2*tl+1, 0)
	after := q.Snapshot()
	if q.Stats().LeafLevel != 1 {
		t.Fatal("the overflowing insert did not split the root")
	}
	gets := (after.NodeCacheHit + after.NodeCacheMiss) - (before.NodeCacheHit + before.NodeCacheMiss)
	if gets != 1 {
		t.Fatalf("splitting insert drew %d list nodes, want 1", gets)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSplit times one §3.4 split through maybeSplit: a root one
// element over 2×TargetLen moves its lower half into two children that
// each hold TargetLen smaller keys, the steady-state shape. Fresh queues
// and their operation contexts are built in chunks outside the timer.
func BenchmarkSplit(b *testing.B) {
	for _, mode := range []SetMode{SetModeList, SetModeArray} {
		b.Run(mode.String(), func(b *testing.B) {
			const tl, chunk = DefaultTargetLen, 64
			rng := xrand.New(1)
			qs := make([]*Queue[int], chunk)
			ctxs := make([]*opCtx[int], chunk)
			build := func(q *Queue[int], ctx *opCtx[int]) {
				q.expandTree(0)
				for i, n := range []*tnode[int]{q.root(), q.node(1, 0), q.node(1, 1)} {
					cnt, lo := tl, uint64(0)
					if i == 0 {
						cnt, lo = 2*tl+1, 1<<20
					}
					n.lock.Lock()
					for j := 0; j < cnt; j++ {
						q.addLocked(ctx, n, element[int]{key: lo + rng.Uint64n(1<<20)})
					}
					n.lock.Unlock()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += chunk {
				b.StopTimer()
				for i := range qs {
					qs[i] = New[int](Config{Batch: 0, TargetLen: tl, SetMode: mode})
					ctxs[i] = qs[i].getCtx()
					build(qs[i], ctxs[i])
				}
				b.StartTimer()
				for i := 0; i < chunk && done+i < b.N; i++ {
					qs[i].root().lock.Lock()
					qs[i].maybeSplit(ctxs[i], 0, 0, qs[i].root())
				}
			}
		})
	}
}

func TestSetAscending(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		a := newAlloc()
		s := mk()
		fillSet(s, a, []uint64{4, 2, 9, 6})
		out := s.ascending(nil)
		want := []uint64{2, 4, 6, 9}
		for i, w := range want {
			if out[i].key != w {
				t.Fatalf("ascending[%d] = %d, want %d", i, out[i].key, w)
			}
		}
		if s.length() != 4 {
			t.Fatal("ascending must not remove elements")
		}
	})
}

func TestSetPayloadsPreserved(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		a := newAlloc()
		s := mk()
		s.insertMax(a, element[int]{key: 10, val: 100})
		s.insertMax(a, element[int]{key: 20, val: 200})
		s.insertNonMax(a, element[int]{key: 15, val: 150})
		for _, want := range []struct {
			k uint64
			v int
		}{{20, 200}, {15, 150}, {10, 100}} {
			got := s.removeMax(a)
			if got.key != want.k || got.val != want.v {
				t.Fatalf("got (%d,%d), want (%d,%d)", got.key, got.val, want.k, want.v)
			}
		}
	})
}

func TestSetQuickEquivalence(t *testing.T) {
	// Both set implementations must behave identically to a sorted-slice
	// model under random operation sequences, and the list must stay
	// well linked after every operation.
	r := xrand.New(31)
	for _, array := range []bool{false, true} {
		name := "list"
		if array {
			name = "array"
		}
		t.Run(name, func(t *testing.T) {
			f := func(ops []byte) bool {
				a := newAlloc()
				s := mkSet(array)
				model := []uint64{}
				for _, op := range ops {
					switch {
					case op < 110 || len(model) == 0: // insert
						k := uint64(r.Intn(100))
						if len(model) == 0 || k >= model[0] {
							s.insertMax(a, element[int]{key: k})
						} else {
							s.insertNonMax(a, element[int]{key: k})
						}
						model = append(model, k)
						sort.Slice(model, func(i, j int) bool { return model[i] > model[j] })
					case op < 180: // removeMax
						got := s.removeMax(a)
						if got.key != model[0] {
							return false
						}
						model = model[1:]
					case op < 220: // swapMin
						lo, hi := model[len(model)-1], model[0]
						if lo == hi {
							continue // contract requires min < e.key <= max
						}
						k := lo + 1 + r.Uint64n(hi-lo)
						demoted, newMin := s.swapMin(a, element[int]{key: k})
						model[len(model)-1] = k
						sort.Slice(model, func(i, j int) bool { return model[i] > model[j] })
						if demoted.key != lo || newMin != model[len(model)-1] {
							return false
						}
					default: // takeTop of up to half
						n := len(model) / 2
						if n == 0 {
							continue
						}
						out := s.takeTop(a, n, nil)
						for i := 0; i < n; i++ {
							if out[i].key != model[n-1-i] {
								return false
							}
						}
						model = model[n:]
					}
					// Cross-check extremes, size and the list's links.
					if s.length() != len(model) {
						return false
					}
					if ls, ok := s.(*listSet[int]); ok && ls.checkLinks() != nil {
						return false
					}
					if len(model) > 0 {
						if s.maxKey() != model[0] || s.minKey() != model[len(model)-1] {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSetSwapMin(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		a := newAlloc()
		s := mk()
		fillSet(s, a, []uint64{10, 30, 20, 50})
		demoted, newMin := s.swapMin(a, element[int]{key: 25, val: 7})
		if demoted.key != 10 {
			t.Fatalf("demoted %d, want 10", demoted.key)
		}
		if newMin != 20 {
			t.Fatalf("newMin %d, want 20", newMin)
		}
		if s.length() != 4 || s.minKey() != 20 || s.maxKey() != 50 {
			t.Fatalf("set wrong after swapMin: len=%d min=%d max=%d", s.length(), s.minKey(), s.maxKey())
		}
		out := s.ascending(nil)
		want := []uint64{20, 25, 30, 50}
		for i, w := range want {
			if out[i].key != w {
				t.Fatalf("ascending[%d]=%d want %d", i, out[i].key, w)
			}
		}
	})
}

func TestSetSwapMinBecomesNewMin(t *testing.T) {
	// e lands just above the removed minimum and becomes the new minimum.
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		a := newAlloc()
		s := mk()
		fillSet(s, a, []uint64{10, 50})
		demoted, newMin := s.swapMin(a, element[int]{key: 11})
		if demoted.key != 10 || newMin != 11 {
			t.Fatalf("got demoted=%d newMin=%d, want 10, 11", demoted.key, newMin)
		}
	})
}

func TestSetSwapMinQuick(t *testing.T) {
	r := xrand.New(444)
	setVariants(t, func(t *testing.T, mk func() nodeSet[int]) {
		for trial := 0; trial < 300; trial++ {
			a := newAlloc()
			s := mk()
			n := r.Intn(30) + 2
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(r.Intn(1000))
			}
			fillSet(s, a, keys)
			min, max := s.minKey(), s.maxKey()
			if min == max {
				continue // contract requires min < e.key <= max
			}
			e := min + 1 + uint64(r.Intn(int(max-min)))
			demoted, newMin := s.swapMin(a, element[int]{key: e})
			if demoted.key != min {
				t.Fatalf("demoted %d, want min %d", demoted.key, min)
			}
			if got := s.minKey(); got != newMin {
				t.Fatalf("reported newMin %d, actual %d", newMin, got)
			}
			if s.length() != n {
				t.Fatalf("length changed: %d != %d", s.length(), n)
			}
			// Sortedness preserved.
			out := s.ascending(nil)
			for i := 1; i < len(out); i++ {
				if out[i-1].key > out[i].key {
					t.Fatal("set unsorted after swapMin")
				}
			}
		}
	})
}
