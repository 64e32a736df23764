package core

// element is one queue entry: a priority key (larger = higher priority) and
// an arbitrary payload.
type element[V any] struct {
	key uint64
	val V
}

// nodeSet is the per-TNode element container. Two implementations exist,
// matching the paper's evaluation: a sorted doubly-linked list (the mound's
// representation, the default) and an unsorted fixed-capacity array (the
// "(array)" curves). All methods are called with the owning TNode's lock
// held; sets need no internal synchronization.
//
// Callers maintain the TNode's cached max/min/count; set methods report
// enough (maxKey/minKey/length) to recompute them after a mutation.
//
// Methods that move elements out of the set (takeTop, ascending) append
// to a caller-supplied buffer instead of allocating: the hot paths thread
// per-operation scratch slices (opCtx) through them, so steady-state
// operations touch no new heap memory.
type nodeSet[V any] interface {
	// insertMax adds e, whose key must be >= maxKey() (or the set empty).
	insertMax(a *alloc[V], e element[V])
	// insertNonMax adds e at a non-head position; e.key must be <= maxKey().
	insertNonMax(a *alloc[V], e element[V])
	// removeMax removes and returns the largest element. The set must be
	// nonempty.
	removeMax(a *alloc[V]) element[V]
	// takeTop removes the n largest elements (n <= length()) and appends
	// them to dst in ascending key order.
	takeTop(a *alloc[V], n int, dst []element[V]) []element[V]
	// splitInto moves the floor(length/2) smallest elements into l and r,
	// which must be sets of the same implementation (the §3.4 split). The
	// moved elements are dealt one at a time — the list largest-first, the
	// array smallest-first — each to r when r is shorter than l and to l
	// otherwise, so the children's sizes balance.
	splitInto(l, r nodeSet[V])
	// swapMin removes the minimum and inserts e in a single pass,
	// returning the removed minimum and the new minimum key. Requirements:
	// length >= 2, minKey() < e.key <= maxKey(). This is the §3.2
	// parent-min quality swap, which runs on most regular inserts and so
	// must not traverse the set three times.
	swapMin(a *alloc[V], e element[V]) (demoted element[V], newMin uint64)
	// maxKey/minKey report the extreme keys; undefined when empty. Both are
	// O(1) for both implementations' hot use (minKey is read on every
	// parent-min swap).
	maxKey() uint64
	minKey() uint64
	length() int
	// ascending appends all elements in ascending key order, without
	// removing them. Used by validation and draining.
	ascending(dst []element[V]) []element[V]
}

// lnode is a node of the sorted list representation. In memory-safe mode
// lnodes are recycled through a hazard-pointer-gated freelist; in leaky
// mode they are recycled through the sharded node cache (the GC backs any
// stale diagnostic reader).
type lnode[V any] struct {
	e          element[V]
	next, prev *lnode[V]
}

// listSet is a doubly-linked list sorted descending by key: the head is the
// maximum, as in the original mound. tail caches the last node so minKey —
// read on every §3.2 parent-min swap — is O(1), and the prev links let the
// swap and the split detach from the tail without walking to it.
type listSet[V any] struct {
	head *lnode[V]
	tail *lnode[V]
	size int
}

func (s *listSet[V]) length() int    { return s.size }
func (s *listSet[V]) maxKey() uint64 { return s.head.e.key }
func (s *listSet[V]) minKey() uint64 { return s.tail.e.key }

// linkAfter splices n in after p (at the head when p is nil).
func (s *listSet[V]) linkAfter(p, n *lnode[V]) {
	n.prev = p
	if p == nil {
		n.next = s.head
		s.head = n
	} else {
		n.next = p.next
		p.next = n
	}
	if n.next == nil {
		s.tail = n
	} else {
		n.next.prev = n
	}
	s.size++
}

func (s *listSet[V]) insertMax(a *alloc[V], e element[V]) {
	n := a.get()
	n.e = e
	s.linkAfter(nil, n)
}

// insertFrom links n in at its sorted position, searching forward from p
// (from the head when p is nil), ahead of any nodes with an equal key. It
// returns n, so a run of descending keys is merged in one pass by passing
// each call's result to the next.
func (s *listSet[V]) insertFrom(p, n *lnode[V]) *lnode[V] {
	cur := s.head
	if p != nil {
		cur = p.next
	}
	for cur != nil && cur.e.key > n.e.key {
		p, cur = cur, cur.next
	}
	s.linkAfter(p, n)
	return n
}

func (s *listSet[V]) insertNonMax(a *alloc[V], e element[V]) {
	if s.head == nil || e.key > s.head.e.key {
		// Degenerate call on an empty set; preserve sortedness anyway.
		s.insertMax(a, e)
		return
	}
	n := a.get()
	n.e = e
	s.insertFrom(s.head, n)
}

func (s *listSet[V]) removeMax(a *alloc[V]) element[V] {
	n := s.head
	s.head = n.next
	if s.head == nil {
		s.tail = nil
	} else {
		s.head.prev = nil
	}
	s.size--
	e := n.e
	a.put(n)
	return e
}

func (s *listSet[V]) takeTop(a *alloc[V], n int, dst []element[V]) []element[V] {
	// The list is sorted descending, so the n largest are the first n.
	// Append them to dst in ascending order: reserve space, fill backwards.
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, element[V]{})
	}
	for i := n - 1; i >= 0; i-- {
		dst[base+i] = s.removeMax(a)
	}
	return dst
}

func (s *listSet[V]) splitInto(l, r nodeSet[V]) {
	take := s.size / 2
	if take == 0 {
		return
	}
	// Detach the lower run by walking back from the tail; take < size,
	// so at least the head stays.
	run := s.tail
	for i := 1; i < take; i++ {
		run = run.prev
	}
	s.tail = run.prev
	s.tail.next = nil
	s.size -= take
	// Deal the run's nodes, largest first, by the balancing rule. Each
	// child receives a descending run, so its insertion search resumes
	// where the previous one ended: one pass per child. Nodes move; none
	// is freed or allocated.
	ls, rs := l.(*listSet[V]), r.(*listSet[V])
	var lp, rp *lnode[V] // last node dealt to each child
	for n := run; n != nil; {
		next := n.next
		if rs.size < ls.size {
			rp = rs.insertFrom(rp, n)
		} else {
			lp = ls.insertFrom(lp, n)
		}
		n = next
	}
}

func (s *listSet[V]) swapMin(a *alloc[V], e element[V]) (element[V], uint64) {
	// Splice e in at its sorted position, then detach the old tail through
	// its prev link. The contract (minKey < e.key <= maxKey, length >= 2)
	// guarantees the insertion point is after the head and strictly before
	// the old tail, so the new tail is a node that was already there or e.
	n := a.get()
	n.e = e
	s.insertFrom(s.head, n)
	old := s.tail
	s.tail = old.prev
	s.tail.next = nil
	s.size--
	demoted := old.e
	a.put(old)
	return demoted, s.tail.e.key
}

func (s *listSet[V]) ascending(dst []element[V]) []element[V] {
	for n := s.tail; n != nil; n = n.prev {
		dst = append(dst, n.e)
	}
	return dst
}

// sortElemsAsc sorts elems ascending by key: median-of-three quicksort with
// an insertion-sort cutoff, recursing into one partition and looping on the
// other. sort.Slice is deliberately avoided — it boxes the slice and
// closure, costing heap allocations on every pool refill in array mode.
func sortElemsAsc[V any](e []element[V]) {
	for len(e) > 16 {
		m, hi := len(e)/2, len(e)-1
		if e[0].key > e[m].key {
			e[0], e[m] = e[m], e[0]
		}
		if e[0].key > e[hi].key {
			e[0], e[hi] = e[hi], e[0]
		}
		if e[m].key > e[hi].key {
			e[m], e[hi] = e[hi], e[m]
		}
		pivot := e[m].key
		i, j := 0, hi
		for i <= j {
			for e[i].key < pivot {
				i++
			}
			for e[j].key > pivot {
				j--
			}
			if i <= j {
				e[i], e[j] = e[j], e[i]
				i++
				j--
			}
		}
		if j < len(e)-i {
			sortElemsAsc(e[:j+1])
			e = e[i:]
		} else {
			sortElemsAsc(e[i:])
			e = e[:j+1]
		}
	}
	for i := 1; i < len(e); i++ {
		for j := i; j > 0 && e[j].key < e[j-1].key; j-- {
			e[j], e[j-1] = e[j-1], e[j]
		}
	}
}

// arraySet is an unsorted slice with small fixed capacity (2×targetLen plus
// slack). Inserts are O(1); extremum queries and removals are O(n) scans,
// which at n <= 2×targetLen is a handful of cache lines — the locality the
// paper credits for the "(array)" variant's low single-thread latency.
type arraySet[V any] struct {
	elems []element[V]
}

func newArraySet[V any](capacity int) *arraySet[V] {
	return &arraySet[V]{elems: make([]element[V], 0, capacity)}
}

func (s *arraySet[V]) length() int { return len(s.elems) }

func (s *arraySet[V]) maxKey() uint64 {
	best := s.elems[0].key
	for _, e := range s.elems[1:] {
		if e.key > best {
			best = e.key
		}
	}
	return best
}

func (s *arraySet[V]) minKey() uint64 {
	best := s.elems[0].key
	for _, e := range s.elems[1:] {
		if e.key < best {
			best = e.key
		}
	}
	return best
}

func (s *arraySet[V]) insertMax(a *alloc[V], e element[V])    { s.elems = append(s.elems, e) }
func (s *arraySet[V]) insertNonMax(a *alloc[V], e element[V]) { s.elems = append(s.elems, e) }

func (s *arraySet[V]) removeAt(i int) element[V] {
	e := s.elems[i]
	last := len(s.elems) - 1
	s.elems[i] = s.elems[last]
	s.elems[last] = element[V]{} // release payload for GC
	s.elems = s.elems[:last]
	return e
}

func (s *arraySet[V]) removeMax(a *alloc[V]) element[V] {
	best := 0
	for i, e := range s.elems {
		if e.key > s.elems[best].key {
			best = i
		}
	}
	return s.removeAt(best)
}

func (s *arraySet[V]) sortAscending() { sortElemsAsc(s.elems) }

func (s *arraySet[V]) takeTop(a *alloc[V], n int, dst []element[V]) []element[V] {
	s.sortAscending()
	cut := len(s.elems) - n
	dst = append(dst, s.elems[cut:]...)
	for i := cut; i < len(s.elems); i++ {
		s.elems[i] = element[V]{}
	}
	s.elems = s.elems[:cut]
	return dst
}

func (s *arraySet[V]) splitInto(l, r nodeSet[V]) {
	take := len(s.elems) / 2
	if take == 0 {
		return
	}
	s.sortAscending()
	ls, rs := l.(*arraySet[V]), r.(*arraySet[V])
	for _, e := range s.elems[:take] {
		if len(rs.elems) < len(ls.elems) {
			rs.elems = append(rs.elems, e)
		} else {
			ls.elems = append(ls.elems, e)
		}
	}
	keep := copy(s.elems, s.elems[take:])
	clear(s.elems[keep:]) // release payloads for GC
	s.elems = s.elems[:keep]
}

func (s *arraySet[V]) swapMin(a *alloc[V], e element[V]) (element[V], uint64) {
	// One scan tracking the minimum and second-minimum; the minimum's slot
	// is overwritten with e in place.
	minI := 0
	second := uint64(1<<64 - 1)
	for i := 1; i < len(s.elems); i++ {
		k := s.elems[i].key
		switch {
		case k < s.elems[minI].key:
			second = s.elems[minI].key
			minI = i
		case k < second:
			second = k
		}
	}
	demoted := s.elems[minI]
	s.elems[minI] = e
	newMin := second
	if e.key < newMin {
		newMin = e.key
	}
	return demoted, newMin
}

func (s *arraySet[V]) ascending(dst []element[V]) []element[V] {
	base := len(dst)
	dst = append(dst, s.elems...)
	sortElemsAsc(dst[base:])
	return dst
}
