// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns structured rows (consumed by the
// root-level benchmarks and by tests), and its Format function lays the
// rows out as Tables that Render writes as text (consumed by
// cmd/gesp-bench). DESIGN.md carries the experiment index mapping each
// function to the paper artifact it reproduces.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gesp/internal/core"
	"gesp/internal/lu"
	"gesp/internal/matgen"
	"gesp/internal/ordering"
	"gesp/internal/sparse"
)

// Table1Row is one entry of the paper's Table 1 (test matrices and their
// disciplines).
type Table1Row struct {
	Name       string
	Discipline string
	N          int
	Nnz        int
	ZeroDiag   int
}

// Table1 lists the 53-matrix testbed.
func Table1(scale float64) []Table1Row {
	var rows []Table1Row
	for _, m := range matgen.Testbed() {
		a := m.Generate(scale)
		rows = append(rows, Table1Row{
			Name: m.Name, Discipline: m.Discipline,
			N: a.Rows, Nnz: a.Nnz(), ZeroDiag: a.ZeroDiagonals(),
		})
	}
	return rows
}

// FormatTable1 lays out Table 1.
func FormatTable1(rows []Table1Row, scale float64) Table {
	return tabulate(rows, func(r Table1Row) []any { return []any{r.Name, r.Discipline, r.N, r.Nnz, r.ZeroDiag} },
		[]Col{{"Matrix", -10, ""}, {"Discipline", -40, ""}, {"n", 8, ""}, {"nnz(A)", 10, ""}, {"zerodiag", 8, ""}},
		fmt.Sprintf("Table 1: test matrices and their disciplines (synthetic stand-ins, scale=%.2f)", scale))
}

// SerialRow carries the per-matrix results of the serial GESP experiment
// that Figures 2–6 are drawn from.
type SerialRow struct {
	Name        string
	N           int
	NnzA        int
	NnzLU       int // Figure 2
	FactorTime  time.Duration
	RefineSteps int     // Figure 3
	ErrGESP     float64 // Figure 4 (y axis)
	ErrGEPP     float64 // Figure 4 (x axis); NaN if GEPP failed
	Berr        float64 // Figure 5
	// Figure 6 fractions, relative to factorization time.
	FracRowPerm  float64 // "permute large diagonal"
	FracSolve    float64
	FracResidual float64
	FracFerr     float64 // "estimate error bound"
	TinyPivots   int
	Failed       bool
	FailReason   string
}

// RunSerial runs the paper's §2.2 experiment on the whole testbed:
// b = A·1, GESP with the default options, GEPP as the baseline, error
// metrics and per-step timings. Rows are sorted by factorization time
// (the paper sorts its figures this way).
func RunSerial(scale float64, withGEPP, withFerr bool) []SerialRow {
	var rows []SerialRow
	for _, m := range matgen.Testbed() {
		rows = append(rows, runOne(m, scale, withGEPP, withFerr))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].FactorTime < rows[j].FactorTime })
	return rows
}

func runOne(m matgen.Matrix, scale float64, withGEPP, withFerr bool) SerialRow {
	a := m.Generate(scale)
	row := SerialRow{Name: m.Name, N: a.Rows, NnzA: a.Nnz()}
	ones := onesVec(a.Rows)
	b := matgen.OnesRHS(a)

	s, err := core.New(a, core.DefaultOptions())
	var x []float64
	if err == nil {
		x, err = s.Solve(b)
	}
	if err != nil {
		row.Failed, row.FailReason = true, err.Error()
		return row
	}
	st := s.Stats()
	row.NnzLU = st.NnzLU
	row.FactorTime = st.Times.Factor
	row.RefineSteps = st.RefineSteps
	row.Berr = st.Berr
	row.ErrGESP = sparse.RelErrInf(x, ones)
	row.TinyPivots = st.TinyPivots

	ft := st.Times.Factor.Seconds()
	if ft > 0 {
		row.FracRowPerm = st.Times.RowPerm.Seconds() / ft
		row.FracSolve = st.Times.Solve.Seconds() / ft
		// One residual = one sparse matvec; measure directly.
		t0 := time.Now()
		r := make([]float64, a.Rows)
		a.Residual(r, b, x)
		row.FracResidual = time.Since(t0).Seconds() / ft
	}
	if withFerr {
		s.ForwardErrorBound(x, b)
		if ft > 0 {
			row.FracFerr = s.Stats().Times.Ferr.Seconds() / ft
		}
	}
	if withGEPP {
		if fp, err := lu.GEPP(a); err == nil {
			xp := fp.SolvePerm(b)
			row.ErrGEPP = sparse.RelErrInf(xp, ones)
		} else {
			row.ErrGEPP = -1 // GEPP itself failed (numerically singular)
		}
	}
	return row
}

// FormatFigure2 lays out the matrix characteristics plot data
// (dimension, nnz(A), nnz(L+U), sorted by factorization time).
func FormatFigure2(rows []SerialRow) Table {
	return tabulate(rows, func(r SerialRow) []any { return []any{r.Name, r.N, r.NnzA, r.NnzLU, ms(r.FactorTime)} },
		[]Col{{"Matrix", -10, ""}, {"n", 8, ""}, {"nnz(A)", 10, ""}, {"nnz(L+U)", 12, ""}, {"factor(ms)", 12, "%.2f"}},
		"Figure 2: characteristics of the matrices (sorted by factorization time)")
}

// ms is d in milliseconds at microsecond resolution.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// onesVec is the exact solution x = 1 the testbed's right-hand sides
// b = A·1 are built from.
func onesVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// Figure3Histogram buckets refinement step counts like the paper's
// Figure 3 caption (5 matrices took 1 step, 31 took 2, 9 took 3, 8 more).
func Figure3Histogram(rows []SerialRow) map[int]int {
	h := map[int]int{}
	for _, r := range rows {
		if r.Failed {
			continue
		}
		steps := r.RefineSteps
		if steps > 3 {
			steps = 4 // ">3" bucket
		}
		h[steps]++
	}
	return h
}

// FormatFigure3 lays out the refinement-step histogram.
func FormatFigure3(rows []SerialRow) Table {
	title := []string{"Figure 3: iterative refinement steps (paper: 5x1, 31x2, 9x3, 8x>3)"}
	h := Figure3Histogram(rows)
	for k, label := range []string{"0", "1", "2", "3", ">3"} {
		title = append(title, fmt.Sprintf("  steps %s : %d matrices", label, h[k]))
	}
	return tabulate(rows, func(r SerialRow) []any { return []any{r.Name, r.RefineSteps} },
		[]Col{{"Matrix", -10, ""}, {"steps", 6, ""}}, title...)
}

// FormatFigure4 lays out the GESP vs GEPP error comparison.
func FormatFigure4(rows []SerialRow) Table {
	gespWins, geppWins := 0, 0
	t := tabulate(rows, func(r SerialRow) []any {
		winner := "tie"
		switch {
		case r.ErrGEPP < 0:
			winner = "GEPP failed"
		case r.ErrGESP < r.ErrGEPP:
			winner = "GESP"
			gespWins++
		case r.ErrGEPP < r.ErrGESP:
			winner = "GEPP"
			geppWins++
		}
		return []any{r.Name, r.ErrGESP, r.ErrGEPP, winner}
	}, []Col{{"Matrix", -10, ""}, {"GESP", 12, "%.3e"}, {"GEPP", 12, "%.3e"}, {"winner", 0, ""}},
		"Figure 4: error ||x-x_true||/||x_true||, GESP vs GEPP (paper: GESP smaller 37/53)")
	t.Verdict = []string{fmt.Sprintf("GESP more accurate on %d, GEPP on %d of %d matrices", gespWins, geppWins, len(rows))}
	return t
}

// FormatFigure5 lays out the componentwise backward errors.
func FormatFigure5(rows []SerialRow) Table {
	worst := 0.0
	t := tabulate(rows, func(r SerialRow) []any {
		worst = max(worst, r.Berr)
		return []any{r.Name, r.Berr, r.RefineSteps}
	}, []Col{{"Matrix", -10, ""}, {"berr", 12, "%.3e"}, {"iters", 6, ""}},
		"Figure 5: componentwise backward error (paper: near eps, never > ~4e-14)")
	t.Verdict = []string{fmt.Sprintf("worst berr: %.3e (eps = %.3e)", worst, lu.Eps)}
	return t
}

// FormatFigure6 lays out the per-step cost fractions.
func FormatFigure6(rows []SerialRow) Table {
	return tabulate(rows, func(r SerialRow) []any {
		return []any{r.Name, ms(r.FactorTime), 100 * r.FracRowPerm, 100 * r.FracSolve, 100 * r.FracResidual, 100 * r.FracFerr}
	}, []Col{{"Matrix", -10, ""}, {"factor(ms)", 12, "%.2f"}, {"rowperm", 10, "%.1f%%"}, {"solve", 10, "%.1f%%"},
		{"residual", 10, "%.1f%%"}, {"errbound", 10, "%.1f%%"}},
		"Figure 6: step times relative to factorization (paper: MC64 drops to 1-10%,",
		"solve < 5% for large matrices, error bound most expensive after factor)")
}

// NoPivotRow describes what happens with every stabilization disabled.
type NoPivotRow struct {
	Name     string
	ZeroDiag bool
	Failed   bool    // zero pivot encountered
	Err      float64 // relative error when it did not fail outright
}

// RunNoPivot reproduces the §2.2 claim that plain no-pivoting elimination
// fails on the matrices with zero diagonals and loses accuracy elsewhere.
func RunNoPivot(scale float64) []NoPivotRow {
	bare := core.Options{Ordering: ordering.Natural}
	var rows []NoPivotRow
	for _, m := range matgen.Testbed() {
		a := m.Generate(scale)
		row := NoPivotRow{Name: m.Name, ZeroDiag: a.ZeroDiagonals() > 0}
		s, err := core.New(a, bare)
		if err != nil {
			row.Failed = true
		} else {
			b := matgen.OnesRHS(a)
			x, err := s.Solve(b)
			if err != nil {
				row.Failed = true
			} else {
				row.Err = sparse.RelErrInf(x, onesVec(a.Rows))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatNoPivot lays out the no-pivoting failure study.
func FormatNoPivot(rows []NoPivotRow) Table {
	failed, inaccurate := 0, 0
	t := tabulate(rows, func(r NoPivotRow) []any {
		status := any(r.Err)
		if r.Failed {
			status = "(breakdown)"
			failed++
		} else if r.Err > 1e-8 || math.IsNaN(r.Err) || math.IsInf(r.Err, 0) {
			inaccurate++
		}
		return []any{r.Name, r.ZeroDiag, r.Failed, status}
	}, []Col{{"Matrix", -10, ""}, {"zerodiag", 9, ""}, {"failed", 8, ""}, {"rel.err", 12, "%.3e"}},
		"No-pivoting study (paper: 27 of 53 fail outright, most others lose accuracy)")
	t.Verdict = []string{fmt.Sprintf("breakdowns: %d, inaccurate (err>1e-8): %d, of %d", failed, inaccurate, len(rows))}
	return t
}
