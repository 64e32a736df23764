// Package hazard implements hazard pointers (Michael, 2004), the safe
// memory reclamation scheme the ZMSQ paper uses to avoid depending on a
// tracing garbage collector (§3.5).
//
// Go has a garbage collector, so "reclamation" here means returning retired
// objects to a reuse pool rather than calling free. The protocol is the same
// as in a non-GC language: a reader publishes a hazard pointer to an object
// before dereferencing it optimistically; a writer that retires an object
// may only hand it to the reuse pool once no published hazard pointer refers
// to it. This keeps the paper-relevant property measurable — the
// per-operation cost of publishing and validating hazard pointers, and of
// the amortized scan — which is exactly what separates the "ZMSQ" and
// "ZMSQ (leak)" curves in the paper's Figures 5, 7 and 8.
//
// The domain is untyped: callers pass object identities as interface values
// (a *T boxed into Ptr). The domain only ever compares these identities —
// it never dereferences them — so the package stays in safe Go with no
// unsafe.Pointer use.
package hazard

import (
	"sync"
	"sync/atomic"
)

// Ptr is the identity of a protected object. The domain only compares Ptr
// values; it never dereferences them.
type Ptr = any

// slotsPerRecord is the number of hazard pointers each record provides. The
// paper's analysis (§3.5) shows ZMSQ needs at most two hazard pointers per
// thread, plus possibly one more depending on the set implementation; three
// covers every use in this repository.
const slotsPerRecord = 3

// scanThreshold is how many retired objects a record accumulates before it
// runs a scan. Scans are O(H) where H is the total number of hazard slots,
// so amortizing one scan per threshold retirements keeps the per-retire
// cost constant.
const scanThreshold = 64

// record is one participant's hazard-pointer record. Records are linked
// into a grow-only list; a record freed by its owner is marked inactive and
// may be re-acquired by another participant, so the list length is bounded
// by the maximum number of concurrent participants.
type record struct {
	next    *record
	active  atomic.Bool
	hazards [slotsPerRecord]atomic.Value // stores slot
	retired []retiredObj
	_       [48]byte // reduce false sharing between records
}

// slot wraps a Ptr so every atomic.Value store uses the same concrete type
// (atomic.Value forbids storing nil or values of varying dynamic type).
type slot struct {
	p Ptr
}

type retiredObj struct {
	ptr  Ptr
	done func(Ptr)
}

// Domain is a hazard-pointer domain: a set of records plus the retired-object
// machinery. The zero value is not usable; call NewDomain.
type Domain struct {
	head    atomic.Pointer[record]
	records atomic.Int64 // number of records ever created (for stats/tests)
	// handles recycles Records across goroutines cheaply.
	handles sync.Pool
	// scanHook, when non-nil, runs at the start of every reclamation scan.
	// Used by fault injection to stall scans; it must be set before the
	// domain is used concurrently and must be safe to call from any
	// goroutine that happens to run a scan.
	scanHook func()
}

// NewDomain returns an empty domain.
func NewDomain() *Domain {
	d := &Domain{}
	d.handles.New = func() any { return d.acquireRecord() }
	return d
}

// Records reports how many records have been allocated in the domain's
// lifetime. Used by tests to verify record reuse.
func (d *Domain) Records() int64 { return d.records.Load() }

// SetScanHook installs f to run at the start of every reclamation scan.
// Fault-injection harnesses use it to stall scans; it must be called
// before the domain is used concurrently.
func (d *Domain) SetScanHook(f func()) { d.scanHook = f }

// acquireRecord finds an inactive record to reuse or appends a new one.
func (d *Domain) acquireRecord() *record {
	for r := d.head.Load(); r != nil; r = r.next {
		if !r.active.Load() && r.active.CompareAndSwap(false, true) {
			return r
		}
	}
	r := &record{}
	r.active.Store(true)
	for {
		head := d.head.Load()
		r.next = head
		if d.head.CompareAndSwap(head, r) {
			d.records.Add(1)
			return r
		}
	}
}

// Handle is a participant's view of the domain: a record acquired for the
// duration of one or more operations. Handles are not safe for concurrent
// use; acquire one per goroutine (or per operation via Get/Put, which use a
// pool and are cheap).
type Handle struct {
	d *Domain
	r *record
}

// Get acquires a handle. Pair with Put.
func (d *Domain) Get() *Handle {
	r := d.handles.Get().(*record)
	if !r.active.Load() {
		// Pooled record was released via Release; reactivate or replace.
		if !r.active.CompareAndSwap(false, true) {
			r = d.acquireRecord()
		}
	}
	return &Handle{d: d, r: r}
}

// Put clears the handle's hazard slots and returns it to the pool. Retired
// objects stay attached to the record and will be scanned on a later use.
// The record is also marked inactive so that, if the pool drops it, another
// participant can still re-acquire it from the record list instead of
// growing the list.
func (d *Domain) Put(h *Handle) {
	for i := range h.r.hazards {
		h.r.hazards[i].Store(slot{})
	}
	h.r.active.Store(false)
	d.handles.Put(h.r)
	h.r = nil
}

// Park marks the handle's record inactive between operations while the
// handle keeps it, for owners that rest in a pool which may drop them
// (pooled operation contexts). A dropped owner then leaves a record that
// acquireRecord can hand to a new participant, retired objects included,
// instead of an orphan whose retirements are never scanned. Clear the
// hazard slots before parking.
func (h *Handle) Park() { h.r.active.Store(false) }

// Unpark resumes a parked handle's record, or acquires another if a new
// participant adopted the parked one meanwhile.
func (h *Handle) Unpark() {
	if !h.r.active.CompareAndSwap(false, true) {
		h.r = h.d.acquireRecord()
	}
}

// Protect publishes p in hazard slot i and returns p. The caller must
// re-validate its source pointer after Protect returns (the standard
// hazard-pointer load protocol): publish, re-read the source, retry if it
// changed.
func (h *Handle) Protect(i int, p Ptr) Ptr {
	h.r.hazards[i].Store(slot{p: p})
	return p
}

// Clear empties hazard slot i.
func (h *Handle) Clear(i int) {
	h.r.hazards[i].Store(slot{})
}

// Retire records that p is no longer reachable from the shared structure.
// Once no hazard pointer in the domain refers to p, done(p) is invoked
// exactly once (typically returning p to a freelist). done must be safe to
// call from any goroutine that happens to run the scan.
func (h *Handle) Retire(p Ptr, done func(Ptr)) {
	h.r.retired = append(h.r.retired, retiredObj{ptr: p, done: done})
	if len(h.r.retired) >= scanThreshold {
		h.scan()
	}
}

// scan applies the classic two-phase scan: snapshot all published hazard
// pointers, then reclaim every retired object not in the snapshot.
func (h *Handle) scan() {
	if hook := h.d.scanHook; hook != nil {
		hook()
	}
	protected := make(map[Ptr]struct{}, scanThreshold)
	for r := h.d.head.Load(); r != nil; r = r.next {
		for i := range r.hazards {
			if v := r.hazards[i].Load(); v != nil {
				if s, ok := v.(slot); ok && s.p != nil {
					protected[s.p] = struct{}{}
				}
			}
		}
	}
	kept := h.r.retired[:0]
	for _, ro := range h.r.retired {
		if _, isProtected := protected[ro.ptr]; isProtected {
			kept = append(kept, ro)
		} else {
			ro.done(ro.ptr)
		}
	}
	// Zero the tail so reclaimed entries don't pin objects via the backing
	// array.
	for i := len(kept); i < len(h.r.retired); i++ {
		h.r.retired[i] = retiredObj{}
	}
	h.r.retired = kept
}

// Flush runs scans until the handle's retired list is empty or stops
// shrinking (i.e. every remaining object is still protected). Tests and
// shutdown paths use it to drain retirements deterministically.
func (h *Handle) Flush() {
	for {
		before := len(h.r.retired)
		if before == 0 {
			return
		}
		h.scan()
		if len(h.r.retired) == before {
			return
		}
	}
}

// RetiredCount reports how many objects are awaiting reclamation on this
// handle. Exposed for tests.
func (h *Handle) RetiredCount() int { return len(h.r.retired) }
