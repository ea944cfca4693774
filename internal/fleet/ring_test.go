package fleet

import (
	"math/rand"
	"testing"

	"gesp/internal/matgen"
	"gesp/internal/sparse"
)

func ringKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

// TestRingOwnerDeterministic: two independently built rings over the
// same membership agree on every placement, and owners are members.
func TestRingOwnerDeterministic(t *testing.T) {
	members := []int{0, 1, 2, 3, 4}
	r1 := NewRing(members, 64)
	r2 := NewRing([]int{4, 3, 2, 1, 0, 3}, 64) // order and dups must not matter
	isMember := map[int]bool{}
	for _, m := range members {
		isMember[m] = true
	}
	for _, k := range ringKeys(5000, 1) {
		o1, o2 := r1.Owner(k), r2.Owner(k)
		if o1 != o2 {
			t.Fatalf("placement differs for key %x: %d vs %d", k, o1, o2)
		}
		if !isMember[o1] {
			t.Fatalf("key %x placed on non-member %d", k, o1)
		}
	}
	if NewRing(nil, 0).Owner(42) != -1 {
		t.Fatal("empty ring must return -1")
	}
}

// TestRingPatternHashPlacement routes real sparse.PatternHash
// fingerprints: placement is a function of the sparsity pattern alone,
// so value-perturbed variants of one matrix land on the same shard.
func TestRingPatternHashPlacement(t *testing.T) {
	r := NewRing([]int{0, 1, 2, 3}, 0)
	for _, name := range []string{"SHERMAN4", "GEMAT11", "WEST2021", "ORSIRR_1"} {
		m, ok := matgen.Lookup(name)
		if !ok {
			t.Fatalf("testbed matrix %s missing", name)
		}
		a := m.Generate(0.25)
		owner := r.Owner(sparse.PatternHash(a))
		if owner < 0 || owner > 3 {
			t.Fatalf("%s placed on %d", name, owner)
		}
		variant := a.Clone()
		rng := rand.New(rand.NewSource(7))
		for k := range variant.Val {
			variant.Val[k] *= 1 + 0.1*rng.NormFloat64()
		}
		if got := r.Owner(sparse.PatternHash(variant)); got != owner {
			t.Fatalf("%s value variant moved from shard %d to %d; placement must be pattern-only", name, owner, got)
		}
	}
}

// TestRingCollisionTieBreak pins the deterministic collision policy:
// when two vnode points hash identically, the lower shard id owns the
// point — both in the sort and in lookup.
func TestRingCollisionTieBreak(t *testing.T) {
	hashes := []uint64{50, 50, 10}
	owners := []int{2, 1, 3}
	sortRing(hashes, owners)
	if hashes[0] != 10 || owners[1] != 1 || owners[2] != 2 {
		t.Fatalf("sortRing tiebreak: hashes %v owners %v", hashes, owners)
	}
	r := &Ring{hashes: hashes, owners: owners, shards: []int{1, 2, 3}}
	if got := r.Owner(20); got != 1 {
		t.Fatalf("colliding point must resolve to the lower shard id, got %d", got)
	}
}

// TestRingChurn is the consistent-hashing invariant: adding one shard
// to N moves ~1/(N+1) of keys, every one of them onto the new shard;
// removing one moves exactly that shard's keys, ~1/N of the space.
func TestRingChurn(t *testing.T) {
	const n = 8
	keys := ringKeys(20000, 2)
	base := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r0 := NewRing(base, 0)

	grown := NewRing(append(append([]int{}, base...), n), 0)
	moved := 0
	for _, k := range keys {
		before, after := r0.Owner(k), grown.Owner(k)
		if before != after {
			moved++
			if after != n {
				t.Fatalf("add-shard churn: key %x moved %d→%d, not onto the new shard", k, before, after)
			}
		}
	}
	frac := float64(moved) / float64(len(keys))
	want := 1.0 / float64(n+1)
	if frac > 2*want || moved == 0 {
		t.Fatalf("add-shard churn %.3f, want ~%.3f (at most 2x)", frac, want)
	}

	shrunk := NewRing([]int{0, 1, 2, 4, 5, 6, 7}, 0) // drop shard 3
	moved = 0
	for _, k := range keys {
		before, after := r0.Owner(k), shrunk.Owner(k)
		if before != after {
			moved++
			if before != 3 {
				t.Fatalf("remove-shard churn: key %x moved %d→%d without owning shard 3", k, before, after)
			}
		} else if before == 3 {
			t.Fatalf("key %x still owned by removed shard 3", k)
		}
	}
	frac = float64(moved) / float64(len(keys))
	want = 1.0 / float64(n)
	if frac > 2*want || moved == 0 {
		t.Fatalf("remove-shard churn %.3f, want ~%.3f (at most 2x)", frac, want)
	}
}

// TestReplicasInto: dst[0] is the owner, entries are distinct shards,
// and the count saturates at the membership size.
func TestReplicasInto(t *testing.T) {
	r := NewRing([]int{0, 1, 2}, 0)
	var dst [4]int
	for _, k := range ringKeys(2000, 3) {
		n := r.ReplicasInto(dst[:], k)
		if n != 3 {
			t.Fatalf("want all 3 shards in the placement, got %d", n)
		}
		if dst[0] != r.Owner(k) {
			t.Fatalf("dst[0]=%d is not the owner %d", dst[0], r.Owner(k))
		}
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			if seen[dst[i]] {
				t.Fatalf("duplicate shard %d in placement", dst[i])
			}
			seen[dst[i]] = true
		}
	}
	if n := r.ReplicasInto(dst[:2], 99); n != 2 {
		t.Fatalf("short dst must cap the placement at 2, got %d", n)
	}
}

// TestRingLookupAllocFree pins the hotpath contract at runtime: Owner
// and ReplicasInto allocate nothing.
func TestRingLookupAllocFree(t *testing.T) {
	r := NewRing([]int{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	keys := ringKeys(64, 4)
	var dst [4]int
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := keys[i&63]
		i++
		if r.Owner(k) < 0 {
			t.Fatal("empty ring")
		}
		r.ReplicasInto(dst[:], k)
	})
	if allocs != 0 {
		t.Fatalf("ring lookup allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkRingOwner is the router's hot lookup: one binary search over
// the vnode points, no locks, no allocation.
func BenchmarkRingOwner(b *testing.B) {
	r := NewRing([]int{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	keys := ringKeys(1024, 11)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += r.Owner(keys[i&1023])
	}
	if sink == -1 {
		b.Fatal("impossible")
	}
}

// BenchmarkRingReplicasInto measures the full placement walk (owner
// plus replica successors) into a caller buffer.
func BenchmarkRingReplicasInto(b *testing.B) {
	r := NewRing([]int{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	keys := ringKeys(1024, 12)
	var dst [4]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ReplicasInto(dst[:], keys[i&1023])
	}
}
