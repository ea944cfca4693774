//go:build race

package kernels

// raceEnabled reports a race-detector build, whose instrumented loads
// can change which operand of a Go sum is its destination register.
const raceEnabled = true
