//go:build race

package refine_test

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// random share of the items put back into it.
const raceEnabled = true
