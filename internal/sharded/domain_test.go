package sharded

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSharedDomainAcrossQueues builds several sharded queues over one
// core.AllocDomain — the multi-tenant server shape — and checks they
// operate independently while sharing the reclamation substrate.
func TestSharedDomainAcrossQueues(t *testing.T) {
	qcfg := core.DefaultConfig()
	ad := core.NewAllocDomain[int](qcfg)

	const tenants, keys = 3, 500
	qs := make([]*Queue[int], tenants)
	for i := range qs {
		qs[i] = NewWithDomain[int](Config{Shards: 2, Queue: qcfg}, ad)
	}
	for i, q := range qs {
		for k := 1; k <= keys; k++ {
			q.Insert(uint64(i+1)<<32|uint64(k), i)
		}
	}
	// Tenants are isolated: each drains exactly its own multiset.
	for i, q := range qs {
		if got := q.Len(); got != keys {
			t.Fatalf("tenant %d: Len %d, want %d", i, got, keys)
		}
		for _, e := range q.Drain() {
			if e.Key>>32 != uint64(i+1) {
				t.Fatalf("tenant %d drained foreign key %#x", i, e.Key)
			}
			if e.Val != i {
				t.Fatalf("tenant %d drained foreign value %d", i, e.Val)
			}
		}
	}
}

// TestSharedDomainModeMismatch pins the compatibility contract: a domain
// built for one set mode must refuse a tenant of the other. Both modes
// are set explicitly, so the mismatch is real whichever mode the
// zmsq_arrayset build tag makes the default.
func TestSharedDomainModeMismatch(t *testing.T) {
	for _, m := range []struct {
		name           string
		domain, tenant core.SetMode
	}{
		{"list domain, array tenant", core.SetModeList, core.SetModeArray},
		{"array domain, list tenant", core.SetModeArray, core.SetModeList},
	} {
		t.Run(m.name, func(t *testing.T) {
			qcfg := core.DefaultConfig()
			qcfg.SetMode = m.domain
			ad := core.NewAllocDomain[int](qcfg)
			bad := qcfg
			bad.SetMode = m.tenant
			defer func() {
				if recover() == nil {
					t.Fatal("NewWithDomain accepted a mode-mismatched domain")
				}
			}()
			NewWithDomain[int](Config{Shards: 2, Queue: bad}, ad)
		})
	}
}

// TestDurableSharedDomainRoundTrip runs the full durable tenant cycle on
// a shared domain: two tenants with separate logs, sync, close, recover
// both over a fresh shared domain, and check per-tenant conservation.
func TestDurableSharedDomainRoundTrip(t *testing.T) {
	root := t.TempDir()
	mkcfg := func(tenant string) Config {
		qcfg := core.DefaultConfig()
		qcfg.Durability = &core.DurabilityConfig{
			WAL: true, Dir: filepath.Join(root, tenant), GroupCommit: time.Millisecond,
		}
		return Config{Shards: 2, Queue: qcfg}
	}
	ad := core.NewAllocDomain[struct{}](core.DefaultConfig())

	tenants := []string{"alpha", "beta"}
	for ti, name := range tenants {
		q, err := NewDurableWithDomain[struct{}](mkcfg(name), ad)
		if err != nil {
			t.Fatalf("NewDurableWithDomain(%s): %v", name, err)
		}
		for k := 1; k <= 100*(ti+1); k++ {
			q.Insert(uint64(k), struct{}{})
		}
		if _, _, ok := q.TryExtractMax(); !ok {
			t.Fatalf("tenant %s: extract failed", name)
		}
		if err := q.SyncWAL(); err != nil {
			t.Fatalf("tenant %s: SyncWAL: %v", name, err)
		}
		if err := q.CloseWAL(); err != nil {
			t.Fatalf("tenant %s: CloseWAL: %v", name, err)
		}
	}

	rd := core.NewAllocDomain[struct{}](core.DefaultConfig())
	for ti, name := range tenants {
		q, st, err := RecoverWithDomain[struct{}](mkcfg(name), rd)
		if err != nil {
			t.Fatalf("RecoverWithDomain(%s): %v", name, err)
		}
		want := 100*(ti+1) - 1
		if st.Live() != want {
			t.Fatalf("tenant %s: recovered %d live keys, want %d", name, st.Live(), want)
		}
		if got := q.Len(); got != want {
			t.Fatalf("tenant %s: Len %d after recovery, want %d", name, got, want)
		}
		if err := q.CloseWAL(); err != nil {
			t.Fatalf("tenant %s: CloseWAL after recovery: %v", name, err)
		}
	}
}
