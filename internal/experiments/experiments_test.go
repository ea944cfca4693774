package experiments

import (
	"bytes"
	"strings"
	"testing"
)

const expScale = 0.25

func TestTable1Complete(t *testing.T) {
	rows := Table1(expScale)
	if len(rows) != 53 {
		t.Fatalf("Table 1 has %d rows, want 53", len(rows))
	}
	zero := 0
	for _, r := range rows {
		if r.N <= 0 || r.Nnz <= 0 {
			t.Errorf("%s: empty matrix", r.Name)
		}
		if r.ZeroDiag > 0 {
			zero++
		}
	}
	if zero < 10 {
		t.Errorf("only %d matrices with zero diagonals (paper: 22)", zero)
	}
	var buf bytes.Buffer
	render(t, &buf, FormatTable1(rows, expScale))
	if !strings.Contains(buf.String(), "TWOTONE") {
		t.Error("rendered Table 1 missing TWOTONE")
	}
}

func TestRunSerialShapes(t *testing.T) {
	rows := RunSerial(expScale, true, false)
	if len(rows) != 53 {
		t.Fatalf("%d rows, want 53", len(rows))
	}
	// Sorted by factorization time.
	for i := 1; i < len(rows); i++ {
		if rows[i].FactorTime < rows[i-1].FactorTime {
			t.Fatal("rows not sorted by factor time")
		}
	}
	failed := 0
	gespWins := 0
	for _, r := range rows {
		if r.Failed {
			failed++
			continue
		}
		// Figure 5's claim: berr always small.
		if r.Berr > 1e-10 {
			t.Errorf("%s: berr %g", r.Name, r.Berr)
		}
		if r.NnzLU < r.NnzA {
			t.Errorf("%s: fill below nnz(A)", r.Name)
		}
		if r.ErrGEPP >= 0 && r.ErrGESP <= r.ErrGEPP {
			gespWins++
		}
	}
	if failed > 0 {
		t.Errorf("%d matrices failed under full GESP", failed)
	}
	// Figure 4's shape: GESP is competitive with GEPP on a majority.
	if gespWins < len(rows)/3 {
		t.Errorf("GESP at least as accurate on only %d of %d", gespWins, len(rows))
	}
	// Figure 3's shape: refinement takes a small number of steps.
	h := Figure3Histogram(rows)
	if h[0]+h[1]+h[2]+h[3] < 40 {
		t.Errorf("refinement histogram too heavy-tailed: %v", h)
	}

	var buf bytes.Buffer
	render(t, &buf, FormatFigure2(rows), FormatFigure3(rows), FormatFigure4(rows), FormatFigure5(rows), FormatFigure6(rows))
	out := buf.String()
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestRunNoPivotShape(t *testing.T) {
	rows := RunNoPivot(expScale)
	failed := 0
	for _, r := range rows {
		if r.Failed {
			failed++
		}
	}
	// The paper reports 27 of 53 failing outright; the synthetic testbed
	// must reproduce a substantial failure population.
	if failed < 8 {
		t.Errorf("only %d no-pivot breakdowns (paper: 27)", failed)
	}
	var buf bytes.Buffer
	render(t, &buf, FormatNoPivot(rows))
	if !strings.Contains(buf.String(), "breakdowns") {
		t.Error("no-pivot rendering incomplete")
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(expScale)
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.StrSym < 0 || r.StrSym > 1 || r.NumSym < 0 || r.NumSym > 1 {
			t.Errorf("%s: symmetry out of range", r.Name)
		}
		if r.NnzLU == 0 || r.Flops == 0 {
			t.Errorf("%s: analysis failed", r.Name)
		}
	}
	// TWOTONE's supernodes must be the smallest or near it (the paper's
	// pathology: 2.4 columns average).
	var two, maxAvg float64
	for _, r := range rows {
		if r.Name == "TWOTONE" {
			two = r.AvgSuper
		}
		if r.AvgSuper > maxAvg {
			maxAvg = r.AvgSuper
		}
	}
	if two >= maxAvg {
		t.Errorf("TWOTONE avg supernode %.1f not below max %.1f", two, maxAvg)
	}
}

func TestRunScalingSmall(t *testing.T) {
	procs := []int{2, 4, 8}
	rows, err := RunScaling(expScale, procs, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if len(r.Cells) != len(procs) {
			t.Fatalf("%s: %d cells", r.Name, len(r.Cells))
		}
		for _, c := range r.Cells {
			if c.Err > 1e-6 {
				t.Errorf("%s P=%d: distributed error %g", r.Name, c.Procs, c.Err)
			}
			if c.FactorTime <= 0 || c.SolveTime <= 0 {
				t.Errorf("%s P=%d: nonpositive times", r.Name, c.Procs)
			}
			if c.LoadBalance <= 0 || c.LoadBalance > 1 {
				t.Errorf("%s P=%d: load balance %g", r.Name, c.Procs, c.LoadBalance)
			}
		}
		// Scaling shape: more processors should not be drastically slower
		// at these sizes; require max-P factor time <= 1.5x min observed.
		minT := r.Cells[0].FactorTime
		for _, c := range r.Cells {
			if c.FactorTime < minT {
				minT = c.FactorTime
			}
		}
		if last := r.Cells[len(r.Cells)-1].FactorTime; last > 3*minT {
			t.Errorf("%s: factor time at P=%d is %gx the best", r.Name, procs[len(procs)-1], last/minT)
		}
	}
	var buf bytes.Buffer
	render(t, &buf, FormatTable3(rows, procs), FormatTable4(rows, procs), FormatTable5(rows, procs, 4))
	out := buf.String()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "Table 5") {
		t.Error("scaling tables incomplete")
	}
}

func TestAblations(t *testing.T) {
	edag, err := EDAGAblation("AF23560", expScale, 8)
	if err != nil {
		t.Fatal(err)
	}
	if edag.OnMessages > edag.BaseMessages {
		t.Errorf("EDAG pruning increased messages: %d -> %d", edag.BaseMessages, edag.OnMessages)
	}
	pipe, err := PipelineAblation("AF23560", expScale, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.OnTime > pipe.BaseTime*1.05 {
		t.Errorf("pipelining slowed factorization: %g -> %g", pipe.BaseTime, pipe.OnTime)
	}
	var buf bytes.Buffer
	render(t, &buf, FormatAblation("EDAG pruning", edag), FormatAblation("Pipelining", pipe))
	if !strings.Contains(buf.String(), "fewer") {
		t.Error("ablation rendering incomplete")
	}
}

func TestBlockSizeAblation(t *testing.T) {
	res, err := BlockSizeAblation("AF23560", expScale, 4, []int{4, 24, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.FactorTime <= 0 {
			t.Errorf("MaxSuper=%d: no time", r.MaxSuper)
		}
	}
	if res[0].AvgSuper > res[2].AvgSuper {
		t.Error("larger MaxSuper should not shrink average supernode")
	}
}

func TestOrderingAblation(t *testing.T) {
	rows, err := OrderingAblation([]string{"AF23560", "SHERMAN4"}, expScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Fill["mmd-ata"] >= r.Fill["natural"] {
			t.Errorf("%s: MMD fill %d not below natural %d", r.Name, r.Fill["mmd-ata"], r.Fill["natural"])
		}
	}
}

func TestIterativeAblation(t *testing.T) {
	rows, err := IterativeAblation([]string{"AF23560", "GEMAT11"}, expScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.MC64ILUOK {
			t.Errorf("%s: ILU broke down even after MC64 preprocessing", r.Name)
		}
		if !r.MC64Conv {
			t.Errorf("%s: GMRES did not converge after MC64 preprocessing", r.Name)
		}
	}
	// GEMAT11 has zero diagonals: plain ILU(0) must break down, and the
	// MC64 permutation must repair it — the Duff–Koster observation.
	for _, r := range rows {
		if r.Name == "GEMAT11" && r.PlainILUOK {
			t.Error("GEMAT11: plain ILU(0) unexpectedly succeeded on a zero-diagonal matrix")
		}
	}
	var buf bytes.Buffer
	render(t, &buf, FormatIterative(rows))
	if !strings.Contains(buf.String(), "ILU") {
		t.Error("iterative rendering incomplete")
	}
}

func TestRelaxAblation(t *testing.T) {
	res, err := RelaxAblation("TWOTONE", expScale, 4, []int{0, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	if res[2].AvgSuper < res[0].AvgSuper {
		t.Errorf("relaxation shrank supernodes: %.2f -> %.2f", res[0].AvgSuper, res[2].AvgSuper)
	}
	t.Logf("TWOTONE avg supernode: relax0=%.2f relax2=%.2f relax6=%.2f",
		res[0].AvgSuper, res[1].AvgSuper, res[2].AvgSuper)
}
