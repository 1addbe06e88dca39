package la

import (
	"fmt"
	"math"
)

// Multi-RHS ("batched") and lockstep-pair solve kernels. The sweep
// engine's unit of work is all energy groups of one (ordinate, element):
// the local matrices of those groups differ only through the
// sigma_t,g * M term, so groups with equal sigma_t share one matrix
// bitwise and one factorisation serves the whole run of them. The Multi
// routines solve such a run as a block of k right-hand sides against a
// single matrix, amortising the O(n^3) factorisation across the k O(n^2)
// solves; the pair routines further down cover groups that share nothing.
//
// Bitwise contract: each column of the block undergoes exactly the
// floating-point operation sequence the scalar routine (SolveFactored,
// SolveGE) would apply to it — the batching only reorders work across
// independent columns, never within one — so a batched solve produces
// bit-identical solutions to k scalar solves of the same matrix. The
// sweep's reproducibility pins rest on this property.
//
// Layout: the block bs holds the k right-hand sides RHS-major — column r
// is the contiguous slice bs[r*n : (r+1)*n] — which is exactly how the
// engine's per-task RHS scratch is laid out (group-major, node fastest).
// The triangular passes iterate row-outer / column-inner so each factor
// row is loaded once per row step and streamed against all k columns.

// SolveFactoredMulti solves A X = B for k right-hand sides given the LU
// factorisation produced by Factor or FactorBlocked. bs (length k*n,
// RHS-major) is overwritten with the solutions. Each column's result is
// bitwise identical to a SolveFactored call on that column alone.
func SolveFactoredMulti(a *Matrix, piv []int, bs []float64, k int) {
	n := a.N
	ad := a.Data
	if k == 1 {
		SolveFactored(a, piv, bs[:n])
		return
	}
	bs = bs[: k*n : k*n]
	// Apply the recorded row interchanges to every column.
	for kk := 0; kk < n; kk++ {
		if p := piv[kk]; p != kk {
			for r := 0; r < k; r++ {
				b := bs[r*n : r*n+n]
				b[kk], b[p] = b[p], b[kk]
			}
		}
	}
	// Forward solve L Y = P B (unit diagonal): row-outer so the factor
	// row ad[i*n:i*n+i] is read once per i and reused across all columns.
	// The head/tail reslices below mirror each range loop's length so the
	// prove pass eliminates the inner-loop bounds checks (check_bce).
	for i := 1; i < n; i++ {
		row := ad[i*n : i*n+i]
		for r := 0; r < k; r++ {
			b := bs[r*n : r*n+n]
			head := b[:len(row)]
			s := b[i]
			for j, v := range row {
				s -= v * head[j]
			}
			b[i] = s
		}
	}
	// Back solve U X = Y.
	for i := n - 1; i >= 0; i-- {
		row := ad[i*n : i*n+n]
		inv := row[i]
		tail := row[i+1:]
		for r := 0; r < k; r++ {
			b := bs[r*n : r*n+n]
			bt := b[i+1:]
			bt = bt[:len(tail)]
			s := b[i]
			for j, v := range tail {
				s -= v * bt[j]
			}
			b[i] = s / inv
		}
	}
}

// SolveGEMulti solves A X = B for k right-hand sides by Gaussian
// elimination with partial pivoting, running the elimination once and
// applying each row operation to all k columns. A is overwritten by the
// elimination; bs (length k*n, RHS-major) is overwritten with the
// solutions. Each column's result is bitwise identical to a SolveGE call
// on a fresh copy of A with that column alone.
func SolveGEMulti(a *Matrix, bs []float64, k int) error {
	n := a.N
	ad := a.Data
	if k == 1 {
		// Single column: the scalar routine's hoisted pivot-row loads beat
		// the block loops' per-row column reslicing (the length-1 runs of a
		// per-group sigma_t ramp all land here).
		return SolveGE(a, bs[:n], bs[:n])
	}
	bs = bs[: k*n : k*n]
	for kk := 0; kk < n; kk++ {
		// Partial pivot: find the largest |a[i][kk]| for i >= kk.
		p := kk
		pv := abs(ad[kk*n+kk])
		for i := kk + 1; i < n; i++ {
			if v := abs(ad[i*n+kk]); v > pv {
				pv = v
				p = i
			}
		}
		if pv == 0 {
			return ErrSingular
		}
		if p != kk {
			rowK := ad[kk*n : kk*n+n]
			rowP := ad[p*n : p*n+n]
			for j := kk; j < n; j++ {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			for r := 0; r < k; r++ {
				b := bs[r*n : r*n+n]
				b[kk], b[p] = b[p], b[kk]
			}
		}
		// Eliminate below the pivot; the multiplier row operation streams
		// the trailing row (contiguous) and then the k pivot-row entries.
		// Trailing reslices are length-matched for bounds-check
		// elimination, as in SolveFactoredMulti.
		inv := 1 / ad[kk*n+kk]
		kt := ad[kk*n+kk+1 : kk*n+n]
		for i := kk + 1; i < n; i++ {
			f := ad[i*n+kk] * inv
			if f == 0 {
				continue
			}
			rowI := ad[i*n : i*n+n]
			rowI[kk] = 0
			rt := rowI[kk+1:]
			rt = rt[:len(kt)]
			for j, v := range kt {
				rt[j] -= f * v
			}
			for r := 0; r < k; r++ {
				b := bs[r*n : r*n+n]
				b[i] -= f * b[kk]
			}
		}
	}
	// Back substitution, in place (column r's solution lands in its own
	// slot of bs; entries above i already hold solution values).
	for i := n - 1; i >= 0; i-- {
		row := ad[i*n : i*n+n]
		inv := row[i]
		tail := row[i+1:]
		for r := 0; r < k; r++ {
			b := bs[r*n : r*n+n]
			bt := b[i+1:]
			bt = bt[:len(tail)]
			s := b[i]
			for j, v := range tail {
				s -= v * bt[j]
			}
			b[i] = s / inv
		}
	}
	return nil
}

// Lockstep pair kernels. A multi-RHS block needs groups with equal
// sigma_t; on a library with a per-group sigma_t ramp every run has length
// one, and each group is a separate small system. An 8x8 or 27x27 solve is
// one serial dependency chain (pivot search, reciprocal, row updates, back
// substitution) with short loops, so its latency and loop overhead cost
// more than its flops. SolveGE2 and SolveFactored2 run two independent
// systems of the same order interleaved step by step: the chain of one
// hides the latency of the other, and both share the loop control.
//
// Bitwise contract: each system sees exactly the floating-point sequence
// of the single-system routine — the same pivot search, swaps, f == 0
// skip, row updates and back substitution — the interleaving only
// alternates operations between the two systems, never within one.

// SolveGE2 solves the two independent systems A0 x0 = b0 and A1 x1 = b1
// (same order n) by Gaussian elimination with partial pivoting, in
// lockstep. The matrices are overwritten by the elimination and b0, b1
// by the solutions; each solution is bitwise identical to SolveGE on
// that system alone. A zero pivot stops its own system at the step
// SolveGE would stop it, leaving the same partial state, and returns
// ErrSingular for it; the other system still runs to completion.
func SolveGE2(a0 *Matrix, b0 []float64, a1 *Matrix, b1 []float64) (err0, err1 error) {
	n := a0.N
	if a1.N != n || len(b0) != n || len(b1) != n {
		err := fmt.Errorf("la: SolveGE2 size mismatch: n=%d,%d len(b)=%d,%d", n, a1.N, len(b0), len(b1))
		return err, err
	}
	d0 := a0.Data[: n*n : n*n]
	d1 := a1.Data[: n*n : n*n]
	for k := 0; k < n; k++ {
		p0, p1 := k, k
		pv0, pv1 := math.Abs(d0[k*n+k]), math.Abs(d1[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(d0[i*n+k]); v > pv0 {
				pv0, p0 = v, i
			}
			if v := math.Abs(d1[i*n+k]); v > pv1 {
				pv1, p1 = v, i
			}
		}
		if pv0 == 0 || pv1 == 0 {
			// The healthy member finishes alone from this step; that
			// repeats only its pivot search, which is pure reads.
			err0, err1 = ErrSingular, ErrSingular
			if pv0 != 0 {
				err0 = solveGEFrom(d0, n, b0, b0, k)
			}
			if pv1 != 0 {
				err1 = solveGEFrom(d1, n, b1, b1, k)
			}
			return err0, err1
		}
		if p0 != k {
			swapRows(d0, b0, n, k, p0)
		}
		if p1 != k {
			swapRows(d1, b1, n, k, p1)
		}
		inv0 := 1 / d0[k*n+k]
		inv1 := 1 / d1[k*n+k]
		kt0 := d0[k*n+k+1 : k*n+n]
		kt1 := d1[k*n+k+1 : k*n+n][:len(kt0)]
		bk0, bk1 := b0[k], b1[k]
		for i := k + 1; i < n; i++ {
			f0 := d0[i*n+k] * inv0
			f1 := d1[i*n+k] * inv1
			rt0 := d0[i*n+k+1 : i*n+n][:len(kt0)]
			rt1 := d1[i*n+k+1 : i*n+n][:len(kt0)]
			switch {
			case f0 != 0 && f1 != 0:
				d0[i*n+k], d1[i*n+k] = 0, 0
				for j, v := range kt0 {
					rt0[j] -= f0 * v
					rt1[j] -= f1 * kt1[j]
				}
				b0[i] -= f0 * bk0
				b1[i] -= f1 * bk1
			case f0 != 0:
				d0[i*n+k] = 0
				for j, v := range kt0 {
					rt0[j] -= f0 * v
				}
				b0[i] -= f0 * bk0
			case f1 != 0:
				d1[i*n+k] = 0
				for j, v := range kt1 {
					rt1[j] -= f1 * v
				}
				b1[i] -= f1 * bk1
			}
		}
	}
	backSub2(d0, b0, d1, b1, n)
	return nil, nil
}

// SolveFactored2 solves A0 x0 = b0 and A1 x1 = b1 (same order n) given
// their LU factorisations from Factor or FactorBlocked, in lockstep. b0
// and b1 are overwritten with the solutions, each bitwise identical to
// SolveFactored on that system alone.
func SolveFactored2(a0 *Matrix, piv0 []int, b0 []float64, a1 *Matrix, piv1 []int, b1 []float64) {
	n := a0.N
	d0 := a0.Data[: n*n : n*n]
	d1 := a1.Data[: n*n : n*n]
	b0 = b0[:n:n]
	b1 = b1[:n:n]
	piv0 = piv0[:n:n]
	piv1 = piv1[:n:n]
	for k := range piv0 {
		if p := piv0[k]; p != k {
			b0[k], b0[p] = b0[p], b0[k]
		}
		if p := piv1[k]; p != k {
			b1[k], b1[p] = b1[p], b1[k]
		}
	}
	// Forward solve L y = P b (unit diagonal), both systems per row.
	for i := 1; i < n; i++ {
		r0 := d0[i*n : i*n+i]
		r1 := d1[i*n : i*n+i][:len(r0)]
		h0 := b0[:len(r0)]
		h1 := b1[:len(r0)]
		s0, s1 := b0[i], b1[i]
		for j, v := range r0 {
			s0 -= v * h0[j]
			s1 -= r1[j] * h1[j]
		}
		b0[i], b1[i] = s0, s1
	}
	backSub2(d0, b0, d1, b1, n)
}

// backSub2 is the shared back substitution U x = y of both pair
// kernels, the two systems interleaved row by row; per system it is the
// single-system routines' loop exactly.
func backSub2(d0, b0, d1, b1 []float64, n int) {
	for i := n - 1; i >= 0; i-- {
		r0 := d0[i*n : i*n+n]
		r1 := d1[i*n : i*n+n]
		t0 := r0[i+1:]
		t1 := r1[i+1:][:len(t0)]
		x0 := b0[i+1 : n][:len(t0)]
		x1 := b1[i+1 : n][:len(t0)]
		s0, s1 := b0[i], b1[i]
		for j, v := range t0 {
			s0 -= v * x0[j]
			s1 -= t1[j] * x1[j]
		}
		b0[i] = s0 / r0[i]
		b1[i] = s1 / r1[i]
	}
}

// swapRows exchanges rows k and p of the trailing columns j >= k of a
// row-major n x n matrix, and entries k and p of b (SolveGE's pivot
// interchange).
func swapRows(d, b []float64, n, k, p int) {
	rowK := d[k*n+k : k*n+n]
	rowP := d[p*n+k : p*n+n][:len(rowK)]
	for j, v := range rowK {
		rowK[j], rowP[j] = rowP[j], v
	}
	b[k], b[p] = b[p], b[k]
}

// abs is |v| for SolveGEMulti's pivot search. It compiles to a sign
// branch, which mispredicts on mixed-sign columns; SolveGE2 uses the
// branch-free math.Abs. The two agree on every comparison the searches
// make (they differ only in the sign of a zero, and -0 == +0).
func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
