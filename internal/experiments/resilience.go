package experiments

import (
	"context"
	"fmt"
	"time"

	"gesp/internal/faultsim"
	"gesp/internal/lu"
	"gesp/internal/resilience"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// The resilience ablation: one injected fault per ladder rung, each
// solved through the full escalation ladder. The table shows which rung
// caught the fault, how many refinement/Krylov iterations it spent,
// the recovered backward error, and the fallback cost — the empirical
// version of the paper's safety argument that static pivoting plus an
// escalation path is as safe as partial pivoting.

// ResilienceRow is one fault scenario's outcome.
type ResilienceRow struct {
	Scenario  string
	FinalRung string
	Trigger   string
	Steps     int
	Iters     int
	Berr      float64
	Converged bool
	Fallback  time.Duration
}

// ResilienceAblation runs the fault catalogue against the ladder. Each
// scenario factors a (possibly sabotaged) system, then solves the true
// system through resilience.Ladder and records the trace.
func ResilienceAblation(seed int64) ([]ResilienceRow, error) {
	inj := faultsim.New(seed)

	type scenario struct {
		name string
		// build returns the matrix the solve must satisfy and the
		// factors the ladder starts from (possibly stale or corrupt).
		build func() (*sparse.CSC, *lu.Factors, error)
	}
	scenarios := []scenario{
		{"healthy", func() (*sparse.CSC, *lu.Factors, error) {
			a := inj.WellConditioned(200, 0.03)
			f, err := factorGESP(a)
			return a, f, err
		}},
		{"stale-factors-10%", func() (*sparse.CSC, *lu.Factors, error) {
			// Factors of a 10%-perturbed copy: refinement contracts, but
			// slowly — the patient extra-precision rung finishes the job.
			a := inj.WellConditioned(200, 0.03)
			f, err := factorGESP(inj.PerturbValues(a, 0.10))
			return a, f, err
		}},
		{"tiny-pivot-replaced", func() (*sparse.CSC, *lu.Factors, error) {
			// A near-singular system whose tiny pivot static pivoting
			// replaces with sqrt(eps)·‖A‖ — refinement stalls on the
			// perturbed factorization; SMW recovers the true system.
			a := inj.NearSingular(120, 1e-10)
			f, err := factorGESP(a)
			return a, f, err
		}},
		{"stale-factors-25%", func() (*sparse.CSC, *lu.Factors, error) {
			// Stale enough that refinement diverges outright, but still a
			// serviceable GMRES preconditioner: the iterative rung wins.
			a := inj.WellConditioned(200, 0.03)
			f, err := factorGESP(inj.PerturbValues(a, 0.25))
			return a, f, err
		}},
		{"stale-factors-150%", func() (*sparse.CSC, *lu.Factors, error) {
			// Factors so stale refinement diverges: only good as a GMRES
			// preconditioner (the SMW rung has nothing to correct).
			a := inj.WellConditioned(200, 0.03)
			f, err := factorGESP(inj.PerturbValues(a, 1.5))
			return a, f, err
		}},
		{"corrupt-factors", func() (*sparse.CSC, *lu.Factors, error) {
			// NaN-poisoned factor arrays (simulated cache corruption):
			// nothing short of a GEPP refactorization recovers.
			a := inj.WellConditioned(200, 0.03)
			f, err := factorGESP(a)
			if err == nil {
				inj.CorruptFactors(f, 3)
			}
			return a, f, err
		}},
	}

	rows := make([]ResilienceRow, 0, len(scenarios))
	for _, sc := range scenarios {
		a, f, err := sc.build()
		if err != nil {
			return nil, fmt.Errorf("experiments: resilience scenario %s: %w", sc.name, err)
		}
		l := resilience.NewLadder(a, f, nil, resilience.Policy{})
		b := make([]float64, a.Rows)
		a.MatVec(b, onesVec(a.Rows))
		x := make([]float64, a.Rows)
		tr, err := l.Solve(context.Background(), x, b)
		if err != nil {
			return nil, fmt.Errorf("experiments: resilience scenario %s did not recover: %w", sc.name, err)
		}
		iters, trigger := 0, resilience.TriggerNone
		for _, st := range tr.Steps {
			iters += st.Iterations
			if st.Trigger != resilience.TriggerNone {
				trigger = st.Trigger
			}
		}
		rows = append(rows, ResilienceRow{
			Scenario:  sc.name,
			FinalRung: tr.FinalRung.String(),
			Trigger:   trigger.String(),
			Steps:     len(tr.Steps),
			Iters:     iters,
			Berr:      tr.FinalBerr,
			Converged: tr.Converged,
			Fallback:  tr.FallbackCost(),
		})
	}
	return rows, nil
}

// factorGESP runs the static-pivot factorization the ladder sits
// behind.
func factorGESP(a *sparse.CSC) (*lu.Factors, error) {
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		return nil, err
	}
	return lu.Factorize(a, sym, lu.Options{ReplaceTinyPivot: true})
}

// FormatResilience lays out the fault-catalogue table.
func FormatResilience(rows []ResilienceRow) Table {
	return tabulate(rows, func(r ResilienceRow) []any {
		return []any{r.Scenario, r.FinalRung, r.Trigger, r.Steps, r.Iters, r.Berr, r.Fallback.Round(10 * time.Microsecond), r.Converged}
	}, []Col{{"Scenario", -20, ""}, {"FinalRung", -10, ""}, {"Trigger", -10, ""}, {"Rungs", 6, ""},
		{"Iters", 6, ""}, {"Berr", 12, "%.2e"}, {"Fallback", 10, ""}, {"OK", 6, ""}},
		"Resilience ladder under injected faults (rung 0 = static pivoting, 4 = GEPP refactor):")
}
