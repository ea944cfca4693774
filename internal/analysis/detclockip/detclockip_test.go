package detclockip_test

import (
	"testing"

	"gesp/internal/analysis/analysistest"
	"gesp/internal/analysis/detclockip"
)

func TestFixtures(t *testing.T) {
	analysistest.RunProgram(t, analysistest.TestData(), detclockip.Analyzer, "faultsim")
}
