// Command gesp-solve solves a sparse linear system A·x = b with the GESP
// algorithm (Gaussian elimination with static pivoting, Li & Demmel,
// SC 1998), either serially or on a simulated distributed machine.
//
// The matrix comes from a MatrixMarket file (-file) or from the built-in
// synthetic testbed (-matrix NAME). The right-hand side defaults to A·1,
// so the exact solution is a vector of ones and the reported error is
// meaningful.
//
// Usage:
//
//	gesp-solve -matrix AF23560
//	gesp-solve -file system.mtx -no-colscale -aggressive
//	gesp-solve -matrix TWOTONE -procs 64
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gesp/internal/core"
	"gesp/internal/dist"
	"gesp/internal/matgen"
	"gesp/internal/ordering"
	"gesp/internal/sparse"
)

// defaultOrdering is what -ordering means when it is not given.
var defaultOrdering = core.DefaultOptions().Ordering

func main() {
	log.SetFlags(0)
	log.SetPrefix("gesp-solve: ")
	var (
		file       = flag.String("file", "", "MatrixMarket file to solve")
		name       = flag.String("matrix", "", "built-in testbed matrix name (e.g. AF23560)")
		scale      = flag.Float64("scale", 0.5, "scale for built-in matrices")
		procs      = flag.Int("procs", 0, "solve on a simulated distributed machine with this many processors")
		noEquil    = flag.Bool("no-equil", false, "disable equilibration (step 1a)")
		noRowPerm  = flag.Bool("no-rowperm", false, "disable the large-diagonal row permutation (step 1b)")
		noColScale = flag.Bool("no-colscale", false, "disable the matching's column scaling")
		noReplace  = flag.Bool("no-replace", false, "disable tiny-pivot replacement (step 3)")
		noRefine   = flag.Bool("no-refine", false, "disable iterative refinement (step 4)")
		aggressive = flag.Bool("aggressive", false, "aggressive pivot replacement with Sherman-Morrison-Woodbury recovery")
		extraPrec  = flag.Bool("extra-precision", false, "compensated residuals in refinement")
		ord        = flag.String("ordering", defaultOrdering.String(), "fill-reducing ordering: "+strings.Join(ordering.MethodNames(), ", "))
		ferr       = flag.Bool("ferr", false, "estimate the componentwise forward error bound (expensive)")
		workers    = flag.Int("workers", 0, "shared-memory workers (0 = serial; >1 factors on the DAG-scheduled parallel engine and solves batches one block of right-hand sides per worker)")
	)
	flag.Parse()

	a, label, err := loadMatrix(*file, *name, *scale)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.Options{
		Equilibrate:      !*noEquil,
		RowPermute:       !*noRowPerm,
		ColScale:         !*noColScale,
		ReplaceTinyPivot: !*noReplace,
		AggressivePivot:  *aggressive,
		Refine:           !*noRefine,
		ExtraPrecision:   *extraPrec,
		Workers:          *workers,
	}
	var ok bool
	if opts.Ordering, ok = ordering.ParseMethod(*ord); !ok {
		log.Fatalf("unknown ordering %q", *ord)
	}

	fmt.Printf("matrix %s: n=%d nnz=%d zero-diagonals=%d\n", label, a.Rows, a.Nnz(), a.ZeroDiagonals())
	b := matgen.OnesRHS(a)

	if *procs > 0 {
		s, err := core.NewAnalysis(a, opts)
		if err != nil {
			log.Fatal(err)
		}
		x, res, err := s.DistSolve(b, dist.Options{
			Procs: *procs, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: !*noReplace,
		})
		if err != nil {
			log.Fatal(err)
		}
		st := s.Stats()
		fmt.Printf("analysis : nnz(L+U)=%d flops=%d supernodes=%d (avg %.1f cols, %.1f weighted by multiply-adds)\n",
			st.NnzLU, st.Flops, st.NumSuper, st.AvgSuper, st.RunWidth)
		fmt.Printf("grid     : %s (%d processors, simulated T3E-900)\n", res.Grid, *procs)
		fmt.Printf("factor   : %.4fs simulated, %.0f Mflops, B=%.2f, comm=%.0f%%, %d msgs\n",
			res.Factor.SimTime, res.Factor.Mflops, res.Factor.LoadBalance,
			100*res.Factor.CommFraction, res.Factor.Messages)
		fmt.Printf("solve    : %.4fs simulated, comm=%.0f%%\n", res.Solve.SimTime, 100*res.Solve.CommFraction)
		fmt.Printf("error    : %.3e (vs x_true = ones)\n", errToOnes(x))
		return
	}

	s, err := core.New(a, opts)
	if err != nil {
		log.Fatal(err)
	}
	x, err := s.Solve(b)
	if err != nil {
		log.Fatal(err)
	}
	st := s.Stats()
	fmt.Printf("analysis : nnz(L+U)=%d flops=%d supernodes=%d (avg %.1f cols, %.1f weighted by multiply-adds)\n",
		st.NnzLU, st.Flops, st.NumSuper, st.AvgSuper, st.RunWidth)
	fmt.Printf("pivoting : %d tiny pivots replaced, reciprocal growth %.2e\n", st.TinyPivots, st.RecipGrowth)
	fmt.Printf("refine   : %d steps, berr=%.3e (converged=%v)\n", st.RefineSteps, st.Berr, st.Converged)
	fmt.Printf("times    : rowperm=%v order=%v symbolic=%v factor=%v solve=%v refine=%v\n",
		st.Times.RowPerm, st.Times.Order, st.Times.Symbolic, st.Times.Factor, st.Times.Solve, st.Times.Refine)
	fmt.Printf("error    : %.3e (vs x_true = ones)\n", errToOnes(x))
	if *ferr {
		fmt.Printf("ferr     : %.3e (componentwise forward error bound)\n", s.ForwardErrorBound(x, b))
		fmt.Printf("cond     : %.3e (1-norm condition estimate)\n", s.CondEst())
	}
}

func loadMatrix(file, name string, scale float64) (*sparse.CSC, string, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, "", err
		}
		// Read-only file: a close failure loses nothing.
		defer f.Close() //gesp:errok
		// Harwell-Boeing by extension (.rua/.rsa/.hb), MatrixMarket else.
		lower := strings.ToLower(file)
		if strings.HasSuffix(lower, ".rua") || strings.HasSuffix(lower, ".rsa") || strings.HasSuffix(lower, ".hb") {
			a, err := sparse.ReadHarwellBoeing(f)
			return a, file, err
		}
		a, err := sparse.ReadMatrixMarket(f)
		return a, file, err
	case name != "":
		m, ok := matgen.Lookup(name)
		if !ok {
			return nil, "", fmt.Errorf("unknown testbed matrix %q (see gesp-bench -exp table1)", name)
		}
		return m.Generate(scale), name, nil
	default:
		return nil, "", fmt.Errorf("one of -file or -matrix is required")
	}
}

func errToOnes(x []float64) float64 {
	ones := make([]float64, len(x))
	for i := range ones {
		ones[i] = 1
	}
	return sparse.RelErrInf(x, ones)
}
