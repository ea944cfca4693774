// Package kernels holds the register-blocked micro-kernels shared by
// every execution engine: the simulated distributed engine's per-rank
// block updates (dist.Solve), the scalar column factorization, serial or
// statically scheduled (lu.Factorize, lu.Schedule.Factorize), the
// batched triangular solves (lu.Factors.SolveMulti and SolveTile, over
// the row-interleaved tiles of tile.go) and step (4)'s residual and
// backward error, per vector or per tile (residual.go). The supernodal
// panels are
// dense column-major tiles sized by the symbolic analysis (the paper
// uses maxSuper = 24 columns), so the kernels are written for tall
// skinny operands: fused multi-column axpy sweeps that read each panel
// column once and apply it to four output columns with a 4-way unrolled
// contiguous row loop, unrolled fringes for the remainder rows and
// columns, and no allocation anywhere on the hot path.
//
// Bit-exactness contract: for every kernel, the floating-point
// operation sequence applied to each output element is identical to
// the plain-loop oracle kept beside it in this package's tests
// (oracle_test.go) — ascending-k accumulation with one operation per
// term — so on finite inputs the kernel and its oracle agree bit for
// bit, and the golden tests pin that on a shape grid straddling every
// register-block boundary. The only divergence is that the fused paths
// do not skip multiplications by zero operand entries one at a time;
// those contribute exact signed zeros, which cannot change a finite
// non-(-0) accumulator. Where a zero-skip is observable (the per-RHS
// xj == 0 skip of the triangular solves, which the tests pin bitwise),
// the kernels preserve the skip exactly, advancing the affected
// vectors one at a time.
//
// Six kernels have assembly bodies (amd64 with AVX2): the tile sweeps'
// all-lane scatter-subtract (tileAxpyAVX2) and pivot division
// (tileDivAVX2), the supernode-run update of the working column
// (spAxpyRunAVX2), the diagonal block's contiguous axpy (axpyAVX2), and
// the tile residual pass's accumulation (residualRunAVX2) and berr pass
// (residualBerrAVX2). All are chosen by useAVX2, decided once at package
// init from CPUID and XGETBV. Their Go twins (tileAxpy, tileDiv,
// spAxpyRun, axpy, residualColumn, residualBerr) run on every other CPU
// and architecture and are the tests' bitwise references.
//
// Flop accounting is the caller's: kernels never report flops, so the
// simulated distributed engine's virtual clock is fed the model's flop
// counts, not anything measured here.
package kernels

import "math/bits"

// Lanewise reports whether a tile whose live lanes are the set live is
// cheaper handled one live lane at a time than by the tile kernels: so
// it is on a CPU without the assembly bodies (useAVX2), where a tile
// pass costs every lane's scalar work, once half the lanes or more are
// idle. ResidualTile follows it; a caller with its own per-lane path
// (refine's batched sweep) asks it.
func Lanewise(live uint8) bool { return lanewise(live, useAVX2) }

func lanewise(live uint8, avx bool) bool {
	return !avx && bits.OnesCount8(live) <= Lanes/2
}
