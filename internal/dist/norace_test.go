//go:build !race

package dist

// raceEnabled reports a race-detector build, where a simulated run costs
// about ten times as much.
const raceEnabled = false
