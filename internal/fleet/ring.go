// Package fleet holds the placement and policy primitives the fleet
// router (internal/fleetrpc) is built from: the consistent-hash Ring
// over sparse.PatternHash fingerprints, so every sparsity pattern has
// a home shard whose two-level cache stays hot for it; the HedgeBudget
// token bucket that caps duplicated hedge work; and the lock-free
// LatHist latency histogram behind the router's p50/p99/p999.
package fleet

// Ring is an immutable consistent-hash ring over shard ids: each shard
// contributes VNodes points, a key is owned by the first point
// clockwise from the key's position. Immutability is the concurrency
// story — membership changes build a new Ring and atomically swap the
// pointer, so the lookup path takes no lock and performs no
// allocation.
//
// Placement churn is the consistent-hashing invariant: adding or
// removing one shard moves only the keys whose nearest point belonged
// to that shard, ~1/N of the space (tested in ring_test.go).
type Ring struct {
	// hashes are the sorted vnode points; owners[i] is the shard owning
	// points (hashes[i-1], hashes[i]]. Ties on the point value are
	// broken toward the lower shard id, deterministically.
	hashes []uint64
	owners []int
	// shards are the member ids, ascending.
	shards []int
}

// DefaultVNodes is the virtual-node count per shard: enough that the
// largest shard's share of the key space stays within a few percent of
// 1/N, cheap enough that ring rebuilds are trivial.
const DefaultVNodes = 128

// NewRing builds a ring over the given shard ids (order irrelevant,
// duplicates ignored) with vnodes points per shard (<=0 takes
// DefaultVNodes). A ring over zero shards is valid; its lookups return
// -1.
func NewRing(shards []int, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[int]bool, len(shards))
	members := make([]int, 0, len(shards))
	for _, s := range shards {
		if !seen[s] {
			seen[s] = true
			members = append(members, s)
		}
	}
	sortInts(members)
	r := &Ring{
		hashes: make([]uint64, 0, len(members)*vnodes),
		owners: make([]int, 0, len(members)*vnodes),
		shards: members,
	}
	for _, s := range members {
		for v := 0; v < vnodes; v++ {
			r.hashes = append(r.hashes, vnodeHash(s, v))
			r.owners = append(r.owners, s)
		}
	}
	// Sort points by (hash, owner): the owner tiebreak makes placement
	// on colliding points deterministic (lowest shard id wins).
	sortRing(r.hashes, r.owners)
	return r
}

// Shards returns the member ids, ascending. The slice is the ring's
// own — callers must not mutate it.
func (r *Ring) Shards() []int { return r.shards }

// Owner returns the shard owning key: the owner of the first vnode
// point at or clockwise-after key, wrapping at the top. Returns -1 on
// an empty ring.
//
//gesp:hotpath
func (r *Ring) Owner(key uint64) int {
	if len(r.hashes) == 0 {
		return -1
	}
	i := r.search(key)
	if i == len(r.hashes) {
		i = 0 // wrap: key is past the last point
	}
	return r.owners[i]
}

// ReplicasInto writes the placement for key — the owner followed by
// the next distinct shards walking clockwise — into dst and returns
// how many entries it wrote: min(len(dst), number of shards). dst[0]
// is always Owner(key). The walk is how consistent hashing picks
// replicas: the successor shards on the ring, so a shard's departure
// promotes exactly its ring successors.
//
//gesp:hotpath
func (r *Ring) ReplicasInto(dst []int, key uint64) int {
	if len(r.hashes) == 0 || len(dst) == 0 {
		return 0
	}
	want := len(dst)
	if want > len(r.shards) {
		want = len(r.shards)
	}
	n := 0
	start := r.search(key)
	if start == len(r.hashes) {
		start = 0
	}
	for step := 0; step < len(r.hashes) && n < want; step++ {
		i := start + step
		if i >= len(r.hashes) {
			i -= len(r.hashes)
		}
		s := r.owners[i]
		dup := false
		for j := 0; j < n; j++ {
			if dst[j] == s {
				dup = true
				break
			}
		}
		if !dup {
			dst[n] = s
			n++
		}
	}
	return n
}

// search returns the first index with hashes[i] >= key, or len(hashes).
// Hand-rolled binary search keeps the lookup path closure-free (the
// hotpath contract forbids the sort.Search func literal).
//
//gesp:hotpath
func (r *Ring) search(key uint64) int {
	lo, hi := 0, len(r.hashes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.hashes[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// vnodeHash spreads shard s's v-th virtual node over the key space
// with the same FNV-1a mixing sparse.PatternHash uses, so vnode points
// and pattern fingerprints live in one well-mixed 64-bit space.
func vnodeHash(s, v int) uint64 {
	h := fnvOffset
	h = fnvMix(h, uint64(s)+0x9e3779b97f4a7c15)
	h = fnvMix(h, uint64(v)+0x6a09e667f3bcc909)
	return h
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a state byte by byte
// (mirrors sparse.fnvMix; kept local so the router has no dependency
// on the matrix packages).
func fnvMix(h, v uint64) uint64 {
	for b := 0; b < 8; b++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// sortInts is insertion sort: member lists are tiny and this keeps the
// ring free of sort.Slice closures.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// sortRing co-sorts the (hash, owner) point arrays by hash, then owner.
func sortRing(hashes []uint64, owners []int) {
	for i := 1; i < len(hashes); i++ {
		for j := i; j > 0 && less(hashes[j], owners[j], hashes[j-1], owners[j-1]); j-- {
			hashes[j], hashes[j-1] = hashes[j-1], hashes[j]
			owners[j], owners[j-1] = owners[j-1], owners[j]
		}
	}
}

func less(h1 uint64, o1 int, h2 uint64, o2 int) bool {
	if h1 != h2 {
		return h1 < h2
	}
	return o1 < o2
}
