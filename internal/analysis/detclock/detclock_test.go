package detclock_test

import (
	"testing"

	"gesp/internal/analysis/analysistest"
	"gesp/internal/analysis/detclock"
)

func TestDetclock(t *testing.T) {
	analysistest.RunProgram(t, analysistest.TestData(), detclock.Analyzer, "mpisim", "outofscope")
}

// TestFixtures covers the interprocedural reach: faultsim's scoped
// functions reach wall-clock reads through clockutil.
func TestFixtures(t *testing.T) {
	analysistest.RunProgram(t, analysistest.TestData(), detclock.Analyzer, "faultsim")
}

// TestDeterministicPackagesClean runs detclock over the real simulator,
// distributed engine, fault injector and kernels, so a wall-clock read
// or an unseeded rand call in them fails the test suite, not only the
// lint run.
func TestDeterministicPackagesClean(t *testing.T) {
	analysistest.RunModule(t, detclock.Analyzer, "gesp/internal/mpisim", "gesp/internal/dist",
		"gesp/internal/faultsim", "gesp/internal/kernels")
}
