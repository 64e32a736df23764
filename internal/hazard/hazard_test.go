package hazard

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

type obj struct{ v int }

func TestProtectBlocksReclamation(t *testing.T) {
	d := NewDomain()
	reader := d.Get()
	writer := d.Get()

	o := &obj{v: 1}
	reader.Protect(0, o)

	reclaimed := false
	writer.Retire(o, func(Ptr) { reclaimed = true })
	writer.Flush()
	if reclaimed {
		t.Fatal("object reclaimed while protected")
	}

	reader.Clear(0)
	writer.Flush()
	if !reclaimed {
		t.Fatal("object not reclaimed after protection cleared")
	}
	d.Put(reader)
	d.Put(writer)
}

func TestPutClearsHazards(t *testing.T) {
	d := NewDomain()
	reader := d.Get()
	o := &obj{}
	reader.Protect(0, o)
	d.Put(reader)

	writer := d.Get()
	reclaimed := false
	writer.Retire(o, func(Ptr) { reclaimed = true })
	writer.Flush()
	if !reclaimed {
		t.Fatal("Put did not clear hazard slots")
	}
	d.Put(writer)
}

func TestRetireReclaimsExactlyOnce(t *testing.T) {
	d := NewDomain()
	h := d.Get()
	var calls atomic.Int64
	o := &obj{}
	h.Retire(o, func(Ptr) { calls.Add(1) })
	h.Flush()
	h.Flush()
	if c := calls.Load(); c != 1 {
		t.Fatalf("done called %d times, want 1", c)
	}
	d.Put(h)
}

func TestScanTriggersAtThreshold(t *testing.T) {
	d := NewDomain()
	h := d.Get()
	var reclaimed atomic.Int64
	for i := 0; i < scanThreshold; i++ {
		h.Retire(&obj{v: i}, func(Ptr) { reclaimed.Add(1) })
	}
	// The threshold-th Retire runs a scan; nothing is protected, so all
	// retirements should have been reclaimed without an explicit Flush.
	if got := reclaimed.Load(); got != scanThreshold {
		t.Fatalf("reclaimed %d at threshold, want %d", got, scanThreshold)
	}
	if h.RetiredCount() != 0 {
		t.Fatalf("retired list has %d entries after scan", h.RetiredCount())
	}
	d.Put(h)
}

func TestMultipleSlots(t *testing.T) {
	d := NewDomain()
	reader := d.Get()
	writer := d.Get()
	objs := [slotsPerRecord]*obj{{v: 0}, {v: 1}, {v: 2}}
	for i, o := range objs {
		reader.Protect(i, o)
	}
	var reclaimed [slotsPerRecord]bool
	for i, o := range objs {
		i := i
		writer.Retire(o, func(Ptr) { reclaimed[i] = true })
	}
	writer.Flush()
	for i := range reclaimed {
		if reclaimed[i] {
			t.Fatalf("slot %d object reclaimed while protected", i)
		}
	}
	reader.Clear(1)
	writer.Flush()
	if reclaimed[0] || !reclaimed[1] || reclaimed[2] {
		t.Fatalf("after clearing slot 1: reclaimed = %v", reclaimed)
	}
	d.Put(reader)
	d.Put(writer)
}

func TestRecordReuse(t *testing.T) {
	d := NewDomain()
	// Sequential get/put from one goroutine must reuse a single record.
	h := d.Get()
	d.Put(h)
	for i := 0; i < 100; i++ {
		h := d.Get()
		d.Put(h)
	}
	if n := d.Records(); n > 2 {
		t.Fatalf("allocated %d records for sequential use, want <= 2", n)
	}
}

func TestParkedRecordIsAdopted(t *testing.T) {
	// An owner dropped while parked must not strand its retirements: the
	// next participant adopts the record, and its scan reclaims them.
	d := NewDomain()
	h := d.Get()
	reclaimed := 0
	for i := 0; i < scanThreshold-1; i++ {
		h.Retire(&obj{v: i}, func(Ptr) { reclaimed++ })
	}
	h.Park()
	h2 := d.Get()
	if h2.r != h.r {
		t.Fatal("a new participant did not adopt the parked record")
	}
	h2.Retire(&obj{}, func(Ptr) { reclaimed++ })
	if reclaimed != scanThreshold {
		t.Fatalf("reclaimed %d after the adopter's scan, want %d", reclaimed, scanThreshold)
	}
	// The parked owner resumes on a record of its own.
	h.Unpark()
	if h.r == h2.r || d.Records() != 2 {
		t.Fatalf("unpark after adoption: shared record=%v, records=%d", h.r == h2.r, d.Records())
	}
	h.Park()
	h.Unpark()
	if d.Records() != 2 {
		t.Fatalf("unpark of an unadopted record allocated: records=%d", d.Records())
	}
}

func TestConcurrentProtectRetire(t *testing.T) {
	d := NewDomain()
	const goroutines = 8
	const iters = 2000

	// Shared cell holding the "current" object; writers swap it and retire
	// the old value, readers protect-and-validate before reading.
	var current atomic.Value
	current.Store(&obj{v: 0})

	var inUseViolations atomic.Int64
	var wg sync.WaitGroup

	// poisoned tracks objects whose done() ran; readers must never observe
	// a protected object that has been reclaimed.
	var mu sync.Mutex
	poisoned := make(map[*obj]bool)

	for g := 0; g < goroutines/2; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			h := d.Get()
			defer d.Put(h)
			for i := 0; i < iters; i++ {
				// Hazard-pointer load protocol: publish then validate.
				for {
					o := current.Load().(*obj)
					h.Protect(0, o)
					if current.Load().(*obj) == o {
						mu.Lock()
						if poisoned[o] {
							inUseViolations.Add(1)
						}
						mu.Unlock()
						break
					}
				}
				h.Clear(0)
			}
		}(g)
	}
	for g := 0; g < goroutines/2; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			h := d.Get()
			defer d.Put(h)
			for i := 0; i < iters; i++ {
				next := &obj{v: i}
				old := current.Swap(next).(*obj)
				h.Retire(old, func(p Ptr) {
					mu.Lock()
					poisoned[p.(*obj)] = true
					mu.Unlock()
				})
			}
			h.Flush()
		}(g)
	}
	wg.Wait()
	if v := inUseViolations.Load(); v != 0 {
		t.Fatalf("%d protected objects were reclaimed while in use", v)
	}
}

func TestFlushOnEmptyHandle(t *testing.T) {
	d := NewDomain()
	h := d.Get()
	h.Flush() // must not panic or loop
	d.Put(h)
}

func TestProtectReturnsPointer(t *testing.T) {
	d := NewDomain()
	h := d.Get()
	o := &obj{v: 7}
	got := h.Protect(0, o)
	if got.(*obj) != o {
		t.Fatal("Protect did not return its argument")
	}
	d.Put(h)
}

func TestQuickNeverReclaimProtected(t *testing.T) {
	d := NewDomain()
	f := func(protectIdx uint8, objCount uint8) bool {
		n := int(objCount%16) + 2
		idx := int(protectIdx) % n
		reader := d.Get()
		writer := d.Get()
		defer d.Put(reader)
		defer d.Put(writer)

		objs := make([]*obj, n)
		for i := range objs {
			objs[i] = &obj{v: i}
		}
		reader.Protect(0, objs[idx])
		reclaimed := make([]bool, n)
		for i, o := range objs {
			i := i
			writer.Retire(o, func(Ptr) { reclaimed[i] = true })
		}
		writer.Flush()
		for i := range objs {
			if i == idx && reclaimed[i] {
				return false // protected object reclaimed
			}
			if i != idx && !reclaimed[i] {
				return false // unprotected object kept
			}
		}
		reader.Clear(0)
		writer.Flush()
		return reclaimed[idx]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProtectClear(b *testing.B) {
	d := NewDomain()
	h := d.Get()
	defer d.Put(h)
	o := &obj{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Protect(0, o)
		h.Clear(0)
	}
}

func BenchmarkGetPut(b *testing.B) {
	d := NewDomain()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h := d.Get()
			d.Put(h)
		}
	})
}

func BenchmarkRetire(b *testing.B) {
	d := NewDomain()
	h := d.Get()
	defer d.Put(h)
	noop := func(Ptr) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Retire(&obj{}, noop)
	}
}
