package hotalloc_test

import (
	"testing"

	"gesp/internal/analysis/analysistest"
	"gesp/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysistest.RunProgram(t, analysistest.TestData(), hotalloc.Analyzer, "kernels")
}

// TestFixtures covers the interprocedural reach: hot's roots reach
// allocating callees in hutil.
func TestFixtures(t *testing.T) {
	analysistest.RunProgram(t, analysistest.TestData(), hotalloc.Analyzer, "hot")
}

// plantedGrow mirrors the fixture's deliberately-planted allocating
// callee (testdata/src/hutil.Grow), so the same code shape is convicted
// both statically (the want expectations above) and dynamically here.
func plantedGrow(s []int, v int) []int { return append(s, v) }

var plantedSink []int

func TestPlantedCalleeAllocatesAtRuntime(t *testing.T) {
	full := []int{1} // len == cap: append must grow
	allocs := testing.AllocsPerRun(100, func() {
		plantedSink = plantedGrow(full, 2)
	})
	if allocs == 0 {
		t.Fatal("planted callee did not allocate at runtime; the static conviction in the fixtures would be vacuous")
	}
}

// TestKernelsAndLUClosureClean cross-checks hotalloc against the repo's
// AllocsPerRun benches: internal/kernels and internal/lu assert zero
// allocations per hot call at runtime, so the static verdict over the
// same closure must also be clean.
func TestKernelsAndLUClosureClean(t *testing.T) {
	analysistest.RunModule(t, hotalloc.Analyzer, "gesp/internal/kernels", "gesp/internal/lu")
}
