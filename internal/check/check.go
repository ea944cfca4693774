// Package check is the runtime invariant layer of the static-pivot
// pipeline: structural validators for the data structures whose
// correctness the whole GESP premise rests on — CSC columns, supernode
// partitions, elimination trees, and the parallel factorization's
// schedule.
//
// The validators themselves are ordinary functions, always compiled and
// directly testable. What the gespcheck build tag controls is the
// constant Enabled: call sites throughout sparse, symbolic, dist and lu
// guard their validation with
//
//	if check.Enabled {
//		check.Must(x.Check())
//	}
//
// so a normal build constant-folds the guard away to a no-op, while
//
//	go test -tags gespcheck ./...
//
// runs the entire golden-test and fuzz suite with every structural
// invariant re-verified at the pipeline's phase boundaries.
package check

import "fmt"

// Must panics with a gespcheck-prefixed message when err is non-nil.
// The panic is deliberate: a broken structural invariant means the
// static schedule no longer describes the computation, and continuing
// would produce silently wrong numerics or a data race.
func Must(err error) {
	if err != nil {
		panic("gespcheck: " + err.Error())
	}
}

// Partition validates a pointer array of the CSC/supernode kind:
// ptr[0] == 0, nondecreasing, and ptr[len(ptr)-1] == total.
func Partition(name string, ptr []int, total int) error {
	if len(ptr) == 0 {
		return fmt.Errorf("%s: empty pointer array", name)
	}
	if ptr[0] != 0 {
		return fmt.Errorf("%s: first pointer is %d, want 0", name, ptr[0])
	}
	for i := 1; i < len(ptr); i++ {
		if ptr[i] < ptr[i-1] {
			return fmt.Errorf("%s: pointers not monotone at %d (%d < %d)", name, i, ptr[i], ptr[i-1])
		}
	}
	if last := ptr[len(ptr)-1]; last != total {
		return fmt.Errorf("%s: last pointer is %d, want %d", name, last, total)
	}
	return nil
}

// StrictlyIncreasingInBounds validates an index segment that must be
// strictly ascending with every element in [lo, hi).
func StrictlyIncreasingInBounds(name string, x []int, lo, hi int) error {
	prev := lo - 1
	for q, v := range x {
		if v < lo || v >= hi {
			return fmt.Errorf("%s: index %d out of range [%d,%d)", name, v, lo, hi)
		}
		if v <= prev {
			return fmt.Errorf("%s: unsorted or duplicate index %d at position %d", name, v, q)
		}
		prev = v
	}
	return nil
}
