// Package la implements the small dense linear algebra at the heart of
// the UnSNAP sweep: every angle/element/group triple requires the solution
// of an n x n system A psi = b where n = (p+1)^3 grows from 8 (linear
// elements) to 216 (order-5 elements).
//
// Two solvers are provided, mirroring the paper's Table II comparison:
//
//   - SolveGE: the hand-written Gaussian elimination with partial pivoting
//     (UnSNAP's built-in solver). Inner loops are stride-1 over contiguous
//     rows, the Go analogue of the paper's OpenMP simd vectorisation.
//   - SolveDGESV: a LAPACK-style factor/solve pair standing in for Intel
//     MKL's dgesv (closed source): blocked right-looking LU with partial
//     pivoting (getrf) followed by permuted triangular solves (getrs).
//     The blocking gives it the cache behaviour that lets a library solve
//     overtake naive elimination once the matrix outgrows L1, which is the
//     effect Table II measures.
//
// Matrices are dense row-major; all routines are allocation-free given a
// Workspace so they can run inside sweep worker pools.
//
// # Contract
//
// Both solvers are sequential, allocation-free given their Workspace, and
// deterministic: the same matrix and right-hand side produce bitwise the
// same solution on every call, on every thread — nothing here reads
// shared mutable state, so a Workspace-per-worker pool is safe by
// construction. GE and DGESV may pick different pivots and so differ in
// the last bits; the package tests pin both against known solutions and
// against each other to near machine precision, and every solver-facing
// layer treats the choice as an Options knob with identical convergence
// behaviour. The multi-RHS group solve (factor once, back-solve per
// group) and the lockstep pair solves (two independent systems
// interleaved) are pinned bitwise against the single-system routines they
// replace.
package la
