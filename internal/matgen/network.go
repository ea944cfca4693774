package matgen

import (
	"math"
	"math/rand"

	"gesp/internal/sparse"
)

// Circuit builds a modified-nodal-analysis style matrix: a structurally
// symmetric conductance network over n nodes with average degree deg,
// plus nsrc voltage-source rows that put zeros on the diagonal (the
// MEMPLUS / JPWH_991 / ONETONE shape). Values are numerically
// unsymmetric.
func Circuit(n, deg, nsrc int, rng *rand.Rand) *sparse.CSC {
	total := n + nsrc
	t := sparse.NewTriplet(total, total)
	diag := make([]float64, total)
	for i := 0; i < n; i++ {
		diag[i] = 1e-3
	}
	edges := n * deg / 2
	for e := 0; e < edges; e++ {
		i := rng.Intn(n)
		j := localNeighbor(i, n, rng)
		if i == j {
			continue
		}
		g := math.Pow(10, 3*rng.Float64()-1.5) // conductances over 3 decades
		t.Append(i, j, -g*(1+0.1*rng.NormFloat64()))
		t.Append(j, i, -g*(1+0.1*rng.NormFloat64()))
		diag[i] += g
		diag[j] += g
	}
	for i := 0; i < n; i++ {
		t.Append(i, i, diag[i])
	}
	// Voltage sources: row/column pair coupling a node to a current
	// unknown, with a structurally zero diagonal at the source unknown.
	// Distinct nodes keep the matrix structurally nonsingular.
	nodes := rng.Perm(n)
	for s := 0; s < nsrc && s < n; s++ {
		node := nodes[s]
		src := n + s
		t.Append(node, src, 1)
		t.Append(src, node, 1+0.01*rng.NormFloat64())
	}
	return t.ToCSC()
}

// HarmonicBalance mimics the TWOTONE/ONETONE circuit matrices: a base
// circuit replicated across h harmonics with weak cross-harmonic
// couplings. The resulting supernodes are tiny (TWOTONE's average is 2.4
// columns), which is exactly the pathology the paper discusses in its
// load-balance analysis.
func HarmonicBalance(baseN, h, deg int, rng *rand.Rand) *sparse.CSC {
	n := baseN * h
	t := sparse.NewTriplet(n, n)
	// Random base topology shared by every harmonic; a fraction of nodes
	// are current-like unknowns with structurally zero diagonals.
	type edge struct{ i, j int }
	var edges []edge
	for e := 0; e < baseN*deg/2; e++ {
		i := rng.Intn(baseN)
		j := localNeighbor(i, baseN, rng)
		if i != j {
			edges = append(edges, edge{i, j})
		}
	}
	zero := make([]bool, baseN)
	for i := range zero {
		zero[i] = rng.Float64() < 0.12
	}
	for k := 0; k < h; k++ {
		off := k * baseN
		diag := make([]float64, baseN)
		for i := range diag {
			diag[i] = 1e-2
		}
		for _, e := range edges {
			g := math.Pow(10, 2*rng.Float64()-1)
			t.Append(off+e.i, off+e.j, -g)
			t.Append(off+e.j, off+e.i, -g*(1+0.2*rng.NormFloat64()))
			diag[e.i] += g
			diag[e.j] += g
		}
		for i := 0; i < baseN; i++ {
			if zero[i] {
				// Zero diagonal; a cyclic in-harmonic pair keeps the block
				// structurally nonsingular.
				j := (i + 1) % baseN
				t.Append(off+i, off+j, 1+rng.Float64())
				t.Append(off+j, off+i, 1+rng.Float64())
			} else {
				t.Append(off+i, off+i, diag[i]+0.5*rng.Float64())
			}
			// Cross-harmonic coupling: sparse, breaks supernodes.
			if k+1 < h && rng.Float64() < 0.3 {
				t.Append(off+i, off+baseN+i, 0.1*rng.NormFloat64())
				t.Append(off+baseN+i, off+i, 0.1*rng.NormFloat64())
			}
		}
	}
	return t.ToCSC()
}

// ChemicalEng models staged separation processes (the LHR, RADFR1, HYDR1,
// RDIST matrices): block tridiagonal with dense stage blocks, values
// spanning many orders of magnitude (poor scaling is the defining
// numerical trait — equilibration in GESP step (1) matters here), and a
// fraction of zero diagonal entries from algebraic constraint rows.
func ChemicalEng(stages, comp int, zeroFrac float64, rng *rand.Rand) *sparse.CSC {
	n := stages * comp
	t := sparse.NewTriplet(n, n)
	zero := make([]bool, n)
	for i := range zero {
		zero[i] = rng.Float64() < zeroFrac
	}
	scale := func() float64 {
		return math.Pow(10, 8*rng.Float64()-4) * signOf(rng)
	}
	for s := 0; s < stages; s++ {
		off := s * comp
		for bi := 0; bi < comp; bi++ {
			for bj := 0; bj < comp; bj++ {
				if bi == bj {
					if !zero[off+bi] {
						t.Append(off+bi, off+bj, scale()*10)
					}
					continue
				}
				if rng.Float64() < 0.6 {
					t.Append(off+bi, off+bj, scale())
				}
			}
		}
		if s+1 < stages {
			for bi := 0; bi < comp; bi++ {
				if rng.Float64() < 0.7 {
					t.Append(off+bi, off+comp+bi, scale())
				}
				if rng.Float64() < 0.7 {
					t.Append(off+comp+bi, off+bi, scale())
				}
			}
		}
	}
	// Guarantee structural nonsingularity: rows with a zero diagonal get a
	// cyclic off-diagonal entry within their stage.
	for i := 0; i < n; i++ {
		if zero[i] {
			s := i / comp
			j := s*comp + (i%comp+1)%comp
			if j == i {
				j = (i + 1) % n
			}
			t.Append(i, j, scale())
			t.Append(j, i, scale())
		}
	}
	return t.ToCSC()
}

// EconomicsDense mimics input-output and migration matrices (PSMIGR,
// ORANI678): mostly sparse but with a band of dense rows and columns, no
// zero diagonals, heavily unsymmetric values.
func EconomicsDense(n, denseRows int, density float64, rng *rand.Rand) *sparse.CSC {
	t := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		t.Append(i, i, 10+5*rng.Float64())
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			p := density
			// Dense rows at the start, dense columns at the end — on
			// different indices, so the pattern stays heavily unsymmetric.
			if i < denseRows || j >= n-denseRows/2 {
				p = 0.7
			}
			if rng.Float64() < p {
				t.Append(i, j, rng.NormFloat64()*math.Pow(10, 2*rng.Float64()-1))
			}
		}
	}
	return t.ToCSC()
}

// PowerNetwork mimics power-flow Jacobians (GEMAT11, WEST): a sparse
// unsymmetric network with a fraction of zero diagonals and irregular
// degree distribution.
func PowerNetwork(n, deg int, zeroFrac float64, rng *rand.Rand) *sparse.CSC {
	t := sparse.NewTriplet(n, n)
	zero := make([]bool, n)
	for i := range zero {
		zero[i] = rng.Float64() < zeroFrac
	}
	for i := 0; i < n; i++ {
		if !zero[i] {
			t.Append(i, i, 5+rng.Float64()*20)
		}
		// A guaranteed cycle keeps the matrix structurally nonsingular.
		t.Append(i, (i+1)%n, rng.NormFloat64()*2)
		d := 1 + rng.Intn(deg)
		for k := 0; k < d; k++ {
			j := localNeighbor(i, n, rng)
			if j != i {
				t.Append(i, j, rng.NormFloat64())
			}
		}
	}
	return t.ToCSC()
}

// DeviceSimulation mimics semiconductor device matrices (ECL32, WANG3/4,
// UTM): a 2-D grid with three strongly coupled unknowns per node
// (potential, electron and hole concentrations) and exponentially graded
// coefficients, producing ill-scaled, unsymmetric systems with mild
// diagonal weakness.
func DeviceSimulation(nx, ny int, rng *rand.Rand) *sparse.CSC {
	const b = 3
	nodes := nx * ny
	n := nodes * b
	t := sparse.NewTriplet(n, n)
	id := func(i, j int) int { return i*ny + j }
	grade := func(i int) float64 { return math.Exp(6 * float64(i) / float64(nx)) }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			c := id(i, j) * b
			g := grade(i)
			for bi := 0; bi < b; bi++ {
				t.Append(c+bi, c+bi, (4+rng.Float64())*g)
				for bj := 0; bj < b; bj++ {
					if bi != bj && rng.Float64() < 0.8 {
						t.Append(c+bi, c+bj, rng.NormFloat64()*g*0.5)
					}
				}
			}
			couple := func(o int) {
				for bi := 0; bi < b; bi++ {
					t.Append(c+bi, o+bi, -g*(1+0.3*rng.Float64()))
					t.Append(o+bi, c+bi, -g*(1+0.3*rng.Float64()))
					if rng.Float64() < 0.3 {
						t.Append(c+bi, o+(bi+1)%b, rng.NormFloat64()*g*0.1)
					}
				}
			}
			if i+1 < nx {
				couple(id(i+1, j) * b)
			}
			if j+1 < ny {
				couple(id(i, j+1) * b)
			}
		}
	}
	return t.ToCSC()
}

func signOf(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

// localNeighbor draws a mostly-local partner for node i: real circuits
// and discrete networks have strong spatial locality (which is what keeps
// their fill-in manageable under minimum degree), with a small fraction
// of long-range connections.
func localNeighbor(i, n int, rng *rand.Rand) int {
	if rng.Float64() < 0.03 {
		return rng.Intn(n) // occasional long-range wire
	}
	off := 1 + int(math.Abs(rng.NormFloat64())*8)
	if rng.Intn(2) == 0 {
		off = -off
	}
	// Wrap around the ring; an offset longer than the ring (small n)
	// wraps more than once.
	return ((i+off)%n + n) % n
}
