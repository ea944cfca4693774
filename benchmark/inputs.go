package main

import (
	"math/rand"

	"gesp/internal/matgen"
	"gesp/internal/sparse"
)

// The three matrix classes are the traffic dimension the paper's
// behaviour depends on: a 2-D mesh with thin fill (AF23560-like), a 3-D
// mesh with fat fill (EX11-like), and a circuit matrix with zero
// diagonals and supernodes of ~1.5 columns (TWOTONE-like).
const (
	mesh = iota
	fill
	circuit
	numClasses
)

var classNames = [numClasses]string{"mesh", "fill", "circuit"}

// patternSeed fixes every sparsity pattern. The run's -seed draws the
// values, right-hand sides, value variants and request sequences, but
// not the structure: HarmonicBalance's fill varies 2x with its seed
// (nnz(L+U) 200k..296k at base 300), which would put a seed-to-seed
// spread of ~20 % on every round time and hide any change smaller than
// that. Patterns the fleet-churn workload submits cold are the
// exception — they must be new, so they come from the run's seed.
const patternSeed = 19980707

// sizes holds the generator argument of each class per use. The full
// sizes are tuned so each class is a comparable share of its round and
// a 10 s window holds ~16-22 rounds on the 2-core reference box.
type sizes struct {
	cold     [numClasses]int // cold-solve, refactor-par, fleet systems
	refactor [numClasses]int // refactor-loop
	small    [numClasses]int // second fleet system of each class
	dist     [2]int          // dist-sim: mesh, fill
	variants int             // pre-generated value variants per class
}

var fullSizes = sizes{
	cold:     [numClasses]int{76, 16, 300},
	refactor: [numClasses]int{112, 18, 450},
	small:    [numClasses]int{64, 14, 300},
	dist:     [2]int{48, 12},
	variants: 4,
}

// smokeSizes keep the tier-1 test under a few seconds.
var smokeSizes = sizes{
	cold:     [numClasses]int{12, 6, 20},
	refactor: [numClasses]int{16, 6, 24},
	small:    [numClasses]int{10, 4, 20},
	dist:     [2]int{10, 4},
	variants: 2,
}

// stream derives an independent generator for one purpose from the
// run's seed, so adding a consumer never shifts another's draws.
func stream(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + purpose))
}

// pattern generates the class's matrix at the given size from a fixed
// structural seed; k distinguishes several patterns of one class.
func pattern(class, size int, k int64) *sparse.CSC {
	return generate(class, size, stream(patternSeed, int64(class)*100+k))
}

func generate(class, size int, rng *rand.Rand) *sparse.CSC {
	var a *sparse.CSC
	switch class {
	case mesh:
		a = matgen.ConvectionDiffusion2D(size, size, 1.5, 0.5, rng)
	case fill:
		a = matgen.ConvectionDiffusion3D(size, size, size/2, 1, 1, 1, 1, rng)
	default:
		a = matgen.HarmonicBalance(size, 8, 4, rng)
	}
	return matgen.EnsureFullRank(a, rng)
}

// variant returns a copy of a with every entry scaled by 1+0.1·N(0,1):
// same pattern, new numerics — a Newton or time step.
func variant(a *sparse.CSC, rng *rand.Rand) *sparse.CSC {
	v := a.Clone()
	for i := range v.Val {
		v.Val[i] *= 1 + 0.1*rng.NormFloat64()
	}
	return v
}

// rhs draws x_true in [0.5,1.5) and returns b = A·x_true with it.
func rhs(a *sparse.CSC, rng *rand.Rand) (b, xTrue []float64) {
	xTrue = make([]float64, a.Cols)
	for i := range xTrue {
		xTrue[i] = 0.5 + rng.Float64()
	}
	return spmv(a, xTrue), xTrue
}
