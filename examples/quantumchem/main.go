// Quantum chemistry workload: the paper's Section 4 reports that the
// GESP software "is being used in a quantum chemistry application at
// Lawrence Berkeley National Laboratory, where a complex unsymmetric
// system of order 200,000 has been solved within 2 minutes". This example
// reproduces that workload class at laptop scale: a complex
// Green's-function system (σI − H) from a tight-binding Hamiltonian,
// solved by the complex GESP pipeline. It exits 1 if refinement does not
// converge.
//
//	go run ./examples/quantumchem
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"gesp/internal/core"
	"gesp/internal/zsolver"
	"gesp/internal/zsparse"
)

func main() {
	rng := rand.New(rand.NewSource(1998))
	// Energy shift with a positive imaginary part (a broadening η), as in
	// linear-response calculations.
	sigma := complex(0.7, 0.9)
	a := zsparse.QuantumChem(16, 16, 12, sigma, rng)
	n := a.Rows
	fmt.Printf("Green's-function system (σI − H): n=%d nnz=%d complex unsymmetric\n", n, a.Nnz())

	want := make([]complex128, n)
	for i := range want {
		want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b := make([]complex128, n)
	a.MatVec(b, want)

	t0 := time.Now()
	solver, err := zsolver.New(a, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	factorTime := time.Since(t0)
	t0 = time.Now()
	x, err := solver.Solve(b)
	if err != nil {
		log.Fatal(err)
	}
	solveTime := time.Since(t0)

	st := solver.Stats()
	fmt.Printf("fill     : nnz(L+U) = %d (%.1fx), ~%.3g real flops\n",
		st.NnzLU, float64(st.NnzLU)/float64(st.NnzA), float64(st.Flops))
	fmt.Printf("times    : analysis+factor %v, solve+refine %v\n", factorTime, solveTime)
	fmt.Printf("refine   : %d steps, berr %.2e (converged=%v)\n", st.RefineSteps, st.Berr, st.Converged)
	fmt.Printf("error    : %.2e relative to the true solution\n", zsparse.RelErrInf(x, want))
	fmt.Println("\n(the paper's production run was order 200,000 on the T3E; the same")
	fmt.Println("pipeline here is limited only by single-machine memory)")
	if !st.Converged {
		fmt.Fprintln(os.Stderr, "quantumchem: refinement did not converge")
		os.Exit(1)
	}
}
