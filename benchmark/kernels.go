package main

import (
	"math/rand"
	"time"

	"gesp/internal/kernels"
)

// probeKernels measures the shared micro-kernels by direct call, with
// flops counted from the operand shapes. Each dense kernel is measured
// at the "fat" 192×24×24 shape it was tuned for and at the "thin"
// 64×2×2 shape the testbed's supernodes (1.5–2.2 columns wide) really
// present. Bytes moved are computed from the sizes, not measured:
// matmul fat streams (192·24+24·24+192·24)·8 = 78 KB per call, thin
// (64·2+2·2+64·2)·8 = 2 KB — both cache-resident, so the rates are
// compute rates, not bandwidth.
func probeKernels(tr *tracer, layer map[string]float64) {
	rng := rand.New(rand.NewSource(patternSeed))
	randSlice := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64() - 0.5
		}
		return s
	}
	// rate runs fn until ~20 ms have passed and stores Mflop/s.
	rate := func(metric string, flops float64, fn func()) {
		sp := tr.start(0, nil, "probe."+metric)
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			for r := 0; r < 16; r++ {
				fn()
			}
			calls += 16
		}
		sec := time.Since(t0).Seconds()
		sp.end()
		layer[metric] = flops * float64(calls) / sec / 1e6
	}

	for _, shape := range []struct {
		tag     string
		m, n, k int
	}{{"fat", 192, 24, 24}, {"thin", 64, 2, 2}} {
		m, n, k := shape.m, shape.n, shape.k
		a, b, p := randSlice(m*k), randSlice(k*n), make([]float64, m*n)
		rate("kernels.matmul_mflops."+shape.tag, float64(2*m*n*k), func() {
			kernels.MatMul(p, a, b, m, n, k)
		})
		// A unit upper triangle with small off-diagonals keeps the
		// repeatedly solved panel bounded.
		d := make([]float64, n*n)
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				d[i+j*n] = 0.001 * (rng.Float64() - 0.5)
			}
			d[j+j*n] = 1
		}
		panel := randSlice(m * n)
		rate("kernels.trsm_upper_mflops."+shape.tag, float64(m*n*n), func() {
			kernels.TrsmUpperRight(panel, m, n, d, n)
		})
	}

	// One sparse column update of 64 entries into a 4096-long work
	// vector: the inner loop of the left-looking factorization.
	const colNnz, work = 64, 4096
	ind := rng.Perm(work)[:colNnz]
	val, w := randSlice(colNnz), make([]float64, work)
	alpha := 1e-3
	rate("kernels.spaxpy_mflops", 2*colNnz, func() {
		kernels.SpAxpy(w, ind, val, alpha)
		alpha = -alpha
	})

	// A unit lower triangle with 8 strictly-lower entries per column
	// applied to 16 right-hand sides: the batched triangular sweep.
	const n, perCol, nrhs = 2000, 8, 16
	ptr := make([]int, n+1)
	var lind []int
	var lval []float64
	for j := 0; j < n; j++ {
		for q := 1; q <= perCol && j+q*7 < n; q++ {
			lind = append(lind, j+q*7)
			lval = append(lval, 0.01*(rng.Float64()-0.5))
		}
		ptr[j+1] = len(lind)
	}
	x0 := randSlice(n * nrhs)
	x := make([]float64, n*nrhs)
	rate("kernels.solve_sparse_multi16_mflops", float64(2*len(lind)*nrhs), func() {
		copy(x, x0)
		kernels.SolveSparseLMulti(x, n, nrhs, ptr, lind, lval)
	})
}
