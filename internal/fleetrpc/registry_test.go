package fleetrpc

import (
	"sync"
	"testing"

	"gesp/internal/serve"
)

// TestRegistryAppendOnly: Put appends a handle once, in arrival order;
// Since reads the log from a position; and readers holding a Since
// slice stay valid while writers append (run under -race).
func TestRegistryAppendOnly(t *testing.T) {
	var r Registry
	entry := func(i int) RegistryEntry {
		return RegistryEntry{Handle: serve.Handle{Key: serve.FactorKey{Pattern: uint64(i % 3), Values: uint64(i)}, N: 2}}
	}
	const writers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Put(entry(i)) // every writer puts the same handles
				for _, e := range r.Since(r.Len() / 2) {
					if _, ok := r.Get(e.Handle); !ok {
						t.Errorf("logged handle %v not found", e.Handle)
					}
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != per {
		t.Fatalf("%d entries after %d writers put the same %d handles, want %d", r.Len(), writers, per, per)
	}
	for i, e := range r.Since(0) {
		if e.Handle != entry(i).Handle {
			t.Fatalf("log position %d holds %v, want %v", i, e.Handle, entry(i).Handle)
		}
	}
	if tail := r.Since(per - 1); len(tail) != 1 || tail[0].Handle != entry(per-1).Handle {
		t.Fatalf("Since(%d) = %v, want the last entry", per-1, tail)
	}
	if rest := r.Since(per); len(rest) != 0 {
		t.Fatalf("Since(end) = %v, want no entries", rest)
	}
}
