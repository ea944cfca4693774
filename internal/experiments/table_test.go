package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// render writes ts to buf and fails the test on an error.
func render(t *testing.T, buf *bytes.Buffer, ts ...Table) {
	t.Helper()
	if err := Render(buf, ts...); err != nil {
		t.Fatal(err)
	}
}

func TestRenderTwoColumnsAndVerdict(t *testing.T) {
	tab := Table{
		Title:   []string{"Title"},
		Cols:    []Col{{"name", -6, ""}, {"x", 6, "%.2f"}},
		Rows:    [][]any{{"a", 1.5}, {"bb", "-"}},
		Verdict: []string{"verdict"},
	}
	var buf bytes.Buffer
	render(t, &buf, tab, Table{Title: []string{"next"}})
	want := "Title\n" +
		"name        x\n" +
		"a        1.50\n" +
		"bb          -\n" +
		"verdict\n" +
		"\n" +
		"next\n"
	if got := buf.String(); got != want {
		t.Errorf("rendered\n%q\nwant\n%q", got, want)
	}

	tab.Fail = "claim broken"
	buf.Reset()
	if err := Render(&buf, tab); err == nil || err.Error() != "claim broken" {
		t.Errorf("Render of a failed table returned %v, want the Fail text", err)
	}
	if !strings.Contains(buf.String(), "verdict") {
		t.Error("a failed table must still be written")
	}
}

func TestAblationPercentagesGuardEmptyBaseline(t *testing.T) {
	var buf bytes.Buffer
	render(t, &buf, FormatAblation("empty", AblationResult{OnMessages: 3, OnTime: 0.5}))
	out := buf.String()
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("ablation with an empty baseline printed %s:\n%s", bad, out)
		}
	}
	if got := pctLess(0.04, 0.03); math.Abs(got-25) > 1e-9 {
		t.Errorf("pctLess(0.04, 0.03) = %g, want 25", got)
	}
}

// TestFormatHAFailsBrokenLeaderKill: every broken leader-kill verdict
// makes Render return an error, so `gesp-bench -exp ha` exits non-zero
// on the breakage TestHALeaderKill asserts against; healthy arms and a
// clean failover render without one.
func TestFormatHAFailsBrokenLeaderKill(t *testing.T) {
	healthy := HAResult{Label: "healthy", Shards: 3, Coordinators: 3, KilledCoord: -1}
	clean := HAResult{Label: "leaderkill", Shards: 3, Coordinators: 3, KilledCoord: 0,
		FailoverLatency: 300 * time.Millisecond, RegistryBefore: 6, RegistryAfter: 6}
	var buf bytes.Buffer
	render(t, &buf, FormatHA([]HAResult{healthy, clean})...)
	if !strings.Contains(buf.String(), "0 of 6 registry entries lost") {
		t.Errorf("clean leader-kill verdict missing:\n%s", buf.String())
	}

	lost := clean
	lost.RegistryAfter, lost.RegistryLost = 5, 1
	failed := clean
	failed.Failed = 2
	chaos := clean
	chaos.ChaosErr = "no leader within 20s"
	for _, c := range []struct {
		r    HAResult
		want string
	}{
		{lost, "1 REGISTRY ENTRIES LOST"},
		{failed, "2 CLIENT-VISIBLE FAILURES"},
		{chaos, "CHAOS ERROR: no leader within 20s"},
	} {
		buf.Reset()
		err := Render(&buf, FormatHA([]HAResult{healthy, c.r})...)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("Render = %v, want an error starting %q", err, c.want)
		}
		if !strings.Contains(buf.String(), "[leaderkill] "+c.want) {
			t.Errorf("verdict %q missing from the written tables:\n%s", c.want, buf.String())
		}
	}
}

// TestFormatFleetProcFailsBrokenChaosArm: a fault arm whose chaos broke
// or whose shard death reached a client makes Render return an error,
// so `gesp-bench -exp fleetproc` exits non-zero on the breakage
// TestChaosSIGKILL and TestChaosSIGSTOP assert against; a healthy arm
// and a clean sigkill arm render without one.
func TestFormatFleetProcFailsBrokenChaosArm(t *testing.T) {
	healthy := FleetProcResult{Label: "healthy", Shards: 3, KilledShard: -1}
	clean := FleetProcResult{Label: "sigkill", Shards: 3, KilledShard: 1, DetectLatency: 80 * time.Millisecond}
	var buf bytes.Buffer
	render(t, &buf, FormatFleetProc([]FleetProcResult{healthy, clean})...)
	if !strings.Contains(buf.String(), "[sigkill] shard 1 died") {
		t.Errorf("clean sigkill verdict missing:\n%s", buf.String())
	}

	failed := clean
	failed.Failed = 3
	chaos := clean
	chaos.ChaosErr = "owner never declared dead"
	for _, c := range []struct {
		r    FleetProcResult
		want string
	}{
		{failed, "3 CLIENT-VISIBLE FAILURES"},
		{chaos, "CHAOS ERROR: owner never declared dead"},
	} {
		buf.Reset()
		err := Render(&buf, FormatFleetProc([]FleetProcResult{healthy, c.r})...)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("Render = %v, want an error starting %q", err, c.want)
		}
		if !strings.Contains(buf.String(), "[sigkill] "+c.want) {
			t.Errorf("verdict %q missing from the written tables:\n%s", c.want, buf.String())
		}
	}
}
