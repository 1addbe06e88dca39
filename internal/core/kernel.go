package core

import (
	"fmt"
	"time"

	"unsnap/internal/fem"
	"unsnap/internal/la"
)

// This file is the engine's batched task kernel (every engine task except
// pre-assembled mode's): all energy groups of one (ordinate, element)
// task executed as one group-batched, allocation-free body.
//
//   - RHS batching: the right-hand sides of every group are assembled in
//     one pass over the element. The volumetric source pass copies the
//     task's [group][node] block of M q_tot (see source hoisting below) or,
//     when the source depends on the ordinate, streams the mass matrix
//     group by group; the face pass is restructured
//     face-outer / group-inner, so the per-face bookkeeping the scalar
//     kernel repeats per group — inflow classification, neighbour lookup,
//     the conforming-face permutation chase, the fused face-matrix block
//     offset — is hoisted out of the group loop and each face-matrix
//     block is read while hot for all nG groups (cache blocking).
//   - Factorisation batching: the per-group matrix is base + sigma_t,g M,
//     so groups with equal sigma_t share the matrix bitwise. The kernel
//     factors once per run of equal-sigma_t groups and solves the run's
//     RHS block with the multi-RHS routines (la.SolveGEMulti /
//     la.SolveFactoredMulti), amortising the O(n^3) factor across the
//     run. On libraries with a per-group sigma_t ramp the runs are length
//     one and only the RHS batching pays; on flat-sigma_t groups (and
//     any within-material group structure with repeats) the whole task
//     costs one factorisation.
//   - Source hoisting: with isotropic scattering (ScatOrder 0) and a
//     steady run the volumetric source M_e q_tot,g does not depend on the
//     ordinate, so PrepareInner forms it once per (element, group) per
//     inner on its fork-join round (Solver.mq) instead of every task
//     repeating it for each of the nA ordinates. P1 adds 3 Omega . q1 and
//     BDF1 adds vdelt psi_prev(a) to the source before the product;
//     splitting that product linearly would change bits, so those runs
//     keep the per-task product.
//   - Lockstep pairs: on a per-group sigma_t ramp every run has length
//     one, and each small solve is one serial dependency chain bound by
//     latency. Adjacent length-1 runs are solved two at a time,
//     interleaved (la.SolveGE2 on the uncached SolverGE path,
//     la.SolveFactored2 on factor-cache hits), so one chain hides the
//     other's latency; the second matrix is pre-sized in workerState.
//     Longer runs, an odd tail run and SolverDGESV's uncached path take
//     the single-run routines.
//   - Factor caching: the matrices themselves repeat across tasks — base
//     + sigma_t,g M is a pure function of (ordinate, element-geometry
//     class, outflow set, material) — so on meshes with repeated
//     geometries a shared cache (faccache.go) factors each distinct
//     matrix once, process-wide per solver, and matching tasks skip
//     assembly and factorisation entirely.
//   - Zero steady-state allocations: every buffer the body touches is
//     pre-sized in workerState at pool creation from the artifact's
//     KernelDims (pinned by TestSweepTaskAllocFree).
//
// Bitwise contract: for every group the floating-point operation
// sequence is identical to the scalar kernel's — batching reorders work
// across independent groups only. The hoisted source is the same
// row-by-row, ascending-j dot product over the same q_tot values
// (massMatVec serves both), merely computed once instead of nA times; the
// pair routines give each member exactly the single-system sequence
// (la/batch.go). TestKernelBatchedBitwise pins batched == scalar flux bit
// for bit (the scalar kernel selected by the test-only
// Config.scalarKernel) across the boundary-condition matrix, P1, BDF1,
// and run layouts with pairs, multi-group runs and unpaired tails, with
// and without the factor cache.

// sigtRun is one maximal run of consecutive groups sharing a sigma_t
// value within one material: groups [g0, g0+k) of the effective totals.
type sigtRun struct {
	g0, k int32
}

// buildSigtRuns computes the per-material equal-sigma_t run decomposition
// of the effective total cross sections (the batched kernel's
// factorisation-sharing structure).
func buildSigtRuns(sigtEff [][]float64) [][]sigtRun {
	runs := make([][]sigtRun, len(sigtEff))
	for m, row := range sigtEff {
		for g0 := 0; g0 < len(row); {
			g := g0 + 1
			for g < len(row) && row[g] == row[g0] {
				g++
			}
			runs[m] = append(runs[m], sigtRun{g0: int32(g0), k: int32(g - g0)})
			g0 = g
		}
	}
	return runs
}

// solveElemBatched is the batched engine task body; see the file comment.
//
// The RHS block is assembled and solved directly in the task's psi slab:
// the engine layout ([angle][element][group][node]) makes the task's
// groups contiguous, no task of the current phase reads psi(a, e) before
// this task's counters resolve, and every in-task read (upwind
// neighbours, psiLag, psiPrev, streamed halos, boundary mirrors) comes
// from a different slab — so the solve lands in place and the scalar
// kernel's X-to-psi block store disappears.
//
// On a solve failure the remaining sigma_t runs still execute (matching
// the scalar kernel, where every group runs) and the first error is
// returned; the failed run's groups are left holding their right-hand
// sides rather than the previous iterate's psi, which only a sweep that
// already returned an error can observe.
func (s *Solver) solveElemBatched(st *workerState, a, e int) error {
	instr := s.cfg.Instrument
	var t0 time.Time
	if instr {
		t0 = time.Now()
	}
	mat := s.cfg.Mesh.Elems[e].Material
	// Shared factor cache: a ready entry for this task's (ordinate,
	// geometry class, material) key replaces base assembly, per-run
	// matrix formation and factorisation with pure triangular solves —
	// bitwise identical output (see faccache.go).
	var fent *facEntry
	if s.fc != nil {
		fent = s.fc.acquire(s, st, a, e, mat)
	}
	if fent == nil {
		s.assembleBase(a, e, st.base)
	}
	rhs := s.psi[s.psiIdx(a, e, 0) : s.psiIdx(a, e, 0)+s.nG*s.nN]
	s.assembleRHSAll(st, rhs, a, e)
	if instr {
		st.asmNS += time.Since(t0).Nanoseconds()
	}
	n := s.nN
	runs := s.sigtRuns[mat]
	if fent != nil {
		if instr {
			t0 = time.Now()
		}
		for r := 0; r < len(runs); r++ {
			g0, k := int(runs[r].g0), int(runs[r].k)
			if pairAt(runs, r) {
				g1 := int(runs[r+1].g0)
				la.SolveFactored2(&fent.mats[r], fent.pivs[r], rhs[g0*n:g0*n+n],
					&fent.mats[r+1], fent.pivs[r+1], rhs[g1*n:g1*n+n])
				r++
				continue
			}
			la.SolveFactoredMulti(&fent.mats[r], fent.pivs[r], rhs[g0*n:(g0+k)*n], k)
		}
		if instr {
			st.solveNS += time.Since(t0).Nanoseconds()
		}
		return nil
	}
	mass := s.em[e].Mass
	sigt := s.sigtEff[mat]
	ge := s.cfg.Solver == SolverGE
	var firstErr error
	for r := 0; r < len(runs); r++ {
		g0, k := int(runs[r].g0), int(runs[r].k)
		if instr {
			t0 = time.Now()
		}
		la.AddScaledTo(st.ws.A.Data, st.base, mass, sigt[g0])
		if ge && pairAt(runs, r) {
			g1 := int(runs[r+1].g0)
			la.AddScaledTo(st.a2.Data, st.base, mass, sigt[g1])
			if instr {
				st.asmNS += time.Since(t0).Nanoseconds()
				t0 = time.Now()
			}
			err0, err1 := la.SolveGE2(st.ws.A, rhs[g0*n:g0*n+n], st.a2, rhs[g1*n:g1*n+n])
			if instr {
				st.solveNS += time.Since(t0).Nanoseconds()
			}
			if err0 != nil && firstErr == nil {
				firstErr = groupError(a, e, g0, err0)
			}
			if err1 != nil && firstErr == nil {
				firstErr = groupError(a, e, g1, err1)
			}
			r++
			continue
		}
		if instr {
			st.asmNS += time.Since(t0).Nanoseconds()
			t0 = time.Now()
		}
		var err error
		if ge {
			err = la.SolveGEMulti(st.ws.A, rhs[g0*n:(g0+k)*n], k)
		} else if err = la.FactorBlocked(st.ws.A, st.ws.Piv, la.DefaultBlockSize); err == nil {
			la.SolveFactoredMulti(st.ws.A, st.ws.Piv, rhs[g0*n:(g0+k)*n], k)
		}
		if instr {
			st.solveNS += time.Since(t0).Nanoseconds()
		}
		if err != nil && firstErr == nil {
			firstErr = groupError(a, e, g0, err)
		}
	}
	return firstErr
}

// pairAt reports whether runs r and r+1 are both single groups, which
// the batched kernel solves as one lockstep pair (la.SolveGE2,
// la.SolveFactored2).
func pairAt(runs []sigtRun, r int) bool {
	return runs[r].k == 1 && r+1 < len(runs) && runs[r+1].k == 1
}

// groupError gives a local solve failure its task and group context.
func groupError(a, e, g int, err error) error {
	return fmt.Errorf("core: angle %d elem %d group %d: %w", a, e, g, err)
}

// assembleRHSAll builds the right-hand sides of every group of one
// (angle, elem) task into rhs (group-major, node fastest — the caller
// passes the task's own psi slab): b_g = M q_tot,g minus the upwind
// inflow terms. Per group the arithmetic is identical to assembleRHS;
// the face pass runs face-outer / group-inner with the gather indices
// and face-matrix block resolved once per face.
func (s *Solver) assembleRHSAll(st *workerState, rhs []float64, a, e int) {
	em := s.em[e]
	om := s.cfg.Quad.Angles[a].Omega
	n := s.nN
	nf := s.re.NF
	nG := s.nG
	rhs = rhs[: nG*n : nG*n]

	// Volumetric source pass: b_g = M q_tot,g. Steady isotropic runs
	// copy the product PrepareInner already formed for this element;
	// P1 and BDF1 sources depend on the ordinate and are formed per task.
	if s.mq != nil {
		base := s.phiIdx(e, 0)
		copy(rhs, s.mq[base:base+nG*n])
	} else {
		s.angularSourceAll(st, rhs, a, e)
	}

	// Face pass: subtract the upwind inflow of each inflow face from
	// every group's RHS while the face's matrices and gather indices are
	// hot. Faces are visited in ascending order, so each group sees its
	// face terms in the scalar kernel's order.
	t := s.topos[a]
	for f := 0; f < fem.NumFaces; f++ {
		if !t.IsInflow(e, f) {
			continue
		}
		fn := s.re.FaceNodes[f]
		fb := s.fusedFaceBlock(a, e, f)
		fc := &s.cfg.Mesh.Elems[e].Faces[f]
		switch {
		case fc.Neighbor >= 0:
			// Interior (or lagged) upwind neighbour: resolve the
			// conforming-face gather indices once, then gather and apply
			// for all groups in one call (the group loop lives inside the
			// helper — one call per face, not one per face per group).
			src := s.psi
			if t.Lagged != nil && t.IsLagged(e, f) {
				src = s.psiLag
			}
			perm := s.conn.Perm[e][f]
			nbNodes := s.re.FaceNodes[fc.NeighborFace]
			gather := st.gather[:nf:nf]
			for l := range gather {
				gather[l] = int32(nbNodes[perm[l]])
			}
			s.subInflowInteriorAll(st, rhs, src, a, fc.Neighbor, gather, fb, fn, om, em, f)
		case s.ext != nil:
			// Streamed halo inflow: slots were filled and published by
			// ResolveExternal before this task became ready.
			fi := s.ext.faceIdx[e*fem.NumFaces+f]
			if fi < 0 {
				continue // vacuum
			}
			for g := 0; g < nG; g++ {
				off := ((int(fi)*s.nA+a)*s.nG + g) * nf
				s.subInflowFace(rhs[g*n:g*n+n], s.ext.data[off:off+nf], fb, fn, om, em, f, nf)
			}
		case s.cfg.Boundary != nil:
			// Boundary callback (reflective mirrors, block Jacobi halos).
			// Callbacks are pure reads of state no task of the current
			// phase writes, so the face-outer call order is immaterial.
			for g := 0; g < nG; g++ {
				if up := s.cfg.Boundary(a, e, f, g, st.up); up != nil {
					s.subInflowFace(rhs[g*n:g*n+n], up, fb, fn, om, em, f, nf)
				}
			}
		}
	}
}

// angularSourceAll writes b_g = M q_g for every group of one (angle,
// elem) task when the source depends on the ordinate: the P1 and BDF1
// corrections are applied per group exactly as the scalar path does.
func (s *Solver) angularSourceAll(st *workerState, rhs []float64, a, e int) {
	om := s.cfg.Quad.Angles[a].Omega
	n := s.nN
	nG := s.nG
	mass := s.em[e].Mass[: n*n : n*n]
	rhs = rhs[: nG*n : nG*n]
	p1 := s.cfg.ScatOrder >= 1
	for g := 0; g < nG; g++ {
		base := s.phiIdx(e, g)
		qt := s.qTot[base : base+n]
		if p1 {
			q1x := s.qTot1[0][base : base+n]
			q1y := s.qTot1[1][base : base+n]
			q1z := s.qTot1[2][base : base+n]
			sqt := st.qt[:n:n]
			for i := range sqt {
				sqt[i] = qt[i] + 3*(om[0]*q1x[i]+om[1]*q1y[i]+om[2]*q1z[i])
			}
			qt = sqt
		}
		if s.psiPrev != nil {
			vd := s.vdelt(g)
			pb := s.psiIdx(a, e, g)
			prev := s.psiPrev[pb : pb+n]
			if &qt[0] != &st.qt[0] {
				copy(st.qt, qt)
				qt = st.qt[:n:n]
			}
			for i := range qt {
				qt[i] += vd * prev[i]
			}
		}
		massMatVec(rhs[g*n:g*n+n], mass, qt)
	}
}

// subInflowInteriorAll subtracts one interior (or lagged) inflow face's
// upwind terms from every group's RHS: gather the neighbour's face nodes
// and apply the face matrix, group by group, with the face's block and
// gather indices held hot across the whole group sweep. Per group the
// arithmetic is exactly subInflowFace's; hoisting the group loop in here
// removes the per-group call overhead of the batch kernel's hottest face
// case.
func (s *Solver) subInflowInteriorAll(st *workerState, rhs, src []float64, a, nbElem int, gather []int32, fb []float64, fn []int, om [3]float64, em *fem.ElementMatrices, f int) {
	n := s.nN
	nf := len(gather)
	nG := s.nG
	up := st.up[:nf:nf]
	if fb != nil {
		for g := 0; g < nG; g++ {
			pb := s.psiIdx(a, nbElem, g)
			pslab := src[pb : pb+n]
			for l, node := range gather {
				up[l] = pslab[node]
			}
			b := rhs[g*n : g*n+n]
			for k, gi := range fn {
				fr := fb[k*nf : k*nf+nf][:len(up)]
				acc := 0.0
				for l, v := range up {
					acc += fr[l] * v
				}
				b[gi] -= acc
			}
		}
		return
	}
	fx, fy, fz := em.Face[f][0], em.Face[f][1], em.Face[f][2]
	for g := 0; g < nG; g++ {
		pb := s.psiIdx(a, nbElem, g)
		pslab := src[pb : pb+n]
		for l, node := range gather {
			up[l] = pslab[node]
		}
		b := rhs[g*n : g*n+n]
		for k, gi := range fn {
			fr := k * nf
			fxr := fx[fr : fr+nf][:len(up)]
			fyr := fy[fr : fr+nf][:len(up)]
			fzr := fz[fr : fr+nf][:len(up)]
			acc := 0.0
			for l, v := range up {
				acc += (om[0]*fxr[l] + om[1]*fyr[l] + om[2]*fzr[l]) * v
			}
			b[gi] -= acc
		}
	}
}

// subInflowFace subtracts one inflow face's surface term from one
// group's RHS, through the pre-fused face-matrix block when available —
// arithmetic identical to assembleRHS's inner face loop. (Inflow faces
// have Omega . n < 0, so subtracting the surface term adds the upwind
// in-flow.)
func (s *Solver) subInflowFace(b, up []float64, fb []float64, fn []int, om [3]float64, em *fem.ElementMatrices, f, nf int) {
	// The length-matched reslices below let the prove pass drop the
	// inner-loop bounds checks (check_bce); the arithmetic is untouched.
	up = up[:nf:nf]
	if fb != nil {
		for k, gi := range fn {
			fr := fb[k*nf : k*nf+nf][:len(up)]
			acc := 0.0
			for l, v := range up {
				acc += fr[l] * v
			}
			b[gi] -= acc
		}
		return
	}
	fx, fy, fz := em.Face[f][0], em.Face[f][1], em.Face[f][2]
	for k, gi := range fn {
		fr := k * nf
		fxr := fx[fr : fr+nf][:len(up)]
		fyr := fy[fr : fr+nf][:len(up)]
		fzr := fz[fr : fr+nf][:len(up)]
		acc := 0.0
		for l, v := range up {
			acc += (om[0]*fxr[l] + om[1]*fyr[l] + om[2]*fzr[l]) * v
		}
		b[gi] -= acc
	}
}

// massMatVec writes b = M q for one (element, group): row by row, each
// row an ascending-j dot product. The batched kernel and PrepareInner's
// hoisted product both use it, so the two agree bit for bit.
func massMatVec(b, mass, q []float64) {
	n := len(b)
	q = q[:n:n]
	for i := range b {
		// Length-matched reslice: the prove pass drops the q[j] bounds
		// check from the dot product (check_bce).
		row := mass[i*n : i*n+n][:len(q)]
		acc := 0.0
		for j, v := range row {
			acc += v * q[j]
		}
		b[i] = acc
	}
}
