package experiments

import (
	"fmt"

	"gesp/internal/equil"
	"gesp/internal/krylov"
	"gesp/internal/matching"
	"gesp/internal/matgen"
)

// IterativeRow compares ILU(0)-preconditioned GMRES with and without the
// GESP step-(1) preprocessing (equilibration + MC64 large-diagonal
// permutation). The paper's related work recounts Duff & Koster's
// finding that the permutation "substantially improves" convergence of
// ILU-preconditioned iterative methods; this experiment reproduces it.
type IterativeRow struct {
	Name string
	// Plain ILU(0)+GMRES on the raw matrix.
	PlainILUOK bool
	PlainIters int
	PlainConv  bool
	// After equilibration + MC64.
	MC64ILUOK bool
	MC64Iters int
	MC64Conv  bool
}

// IterativeAblation runs the comparison on the named testbed matrices.
func IterativeAblation(names []string, scale float64) ([]IterativeRow, error) {
	var rows []IterativeRow
	for _, name := range names {
		m, ok := matgen.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown matrix %s", name)
		}
		a := m.Generate(scale)
		b := matgen.OnesRHS(a)
		row := IterativeRow{Name: name}
		opts := krylov.Options{Tol: 1e-8, MaxIter: 1500, Restart: 60}

		if p, err := krylov.NewILU0(a); err == nil {
			row.PlainILUOK = true
			x := make([]float64, a.Rows)
			_, st := krylov.GMRES(a, p, x, b, opts)
			row.PlainIters = st.Iterations
			row.PlainConv = st.Converged
		}

		// GESP step (1): equilibrate, permute large entries to diagonal.
		work := a.Clone()
		if eq, err := equil.Equilibrate(work); err == nil && eq.NeedsScaling() {
			eq.Apply(work)
			// b must be scaled consistently; since we only count
			// iterations, regenerate the RHS for the scaled system.
		}
		mc, err := matching.MaxProductMatching(work)
		if err != nil {
			rows = append(rows, row)
			continue
		}
		work.ScaleRowsCols(mc.Dr, mc.Dc)
		work = work.PermuteRows(mc.RowPerm)
		bw := matgen.OnesRHS(work)
		if p, err := krylov.NewILU0(work); err == nil {
			row.MC64ILUOK = true
			x := make([]float64, work.Rows)
			_, st := krylov.GMRES(work, p, x, bw, opts)
			row.MC64Iters = st.Iterations
			row.MC64Conv = st.Converged
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatIterative lays out the ILU/GMRES preprocessing study.
func FormatIterative(rows []IterativeRow) Table {
	return tabulate(rows, func(r IterativeRow) []any {
		return []any{r.Name, iterLabel(r.PlainILUOK, r.PlainConv, r.PlainIters), iterLabel(r.MC64ILUOK, r.MC64Conv, r.MC64Iters)}
	}, []Col{{"Matrix", -10, ""}, {"plain", 14, ""}, {"equil+MC64", 14, ""}},
		"ILU(0)+GMRES with and without GESP step-(1) preprocessing",
		"(Duff & Koster, recounted in the paper's related work: the large-diagonal",
		"permutation substantially improves ILU-preconditioned convergence)")
}

func iterLabel(iluOK, conv bool, iters int) string {
	switch {
	case !iluOK:
		return "ILU breakdown"
	case !conv:
		return "no convergence"
	default:
		return fmt.Sprintf("%d iters", iters)
	}
}
