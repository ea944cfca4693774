// Package kernels holds the register-blocked micro-kernels shared by
// every execution engine: the serial blocked factorization
// (dist.FactorizeBlocked), the simulated distributed engine
// (dist.Solve), the scalar column factorization, serial or statically
// scheduled (lu.Factorize, lu.Schedule.Factorize), and the batched
// triangular solves (lu.Factors.SolveMulti). The supernodal panels are
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
// Flop accounting is the caller's: kernels never report flops, so the
// simulated distributed engine's virtual clock is fed the model's flop
// counts, not anything measured here.
package kernels
