// Package hutil provides callees for the hotalloc fixtures,
// including the deliberately-planted allocating callee Grow that the
// crosscheck test also convicts at runtime with testing.AllocsPerRun.
package hutil

// Grow is the planted allocating callee: append may grow the slice.
func Grow(s []int, v int) []int {
	return append(s, v)
}

// Mid adds a hop to the blame path.
func Mid(s []int) []int { return Grow(s, 1) }

// Sum is allocation-free.
func Sum(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}

// Apply calls through a function-typed parameter: the allocation
// verdict depends on the dynamic dispatch pool.
func Apply(fn func(int)) { fn(0) }
