package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
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
