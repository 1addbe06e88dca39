package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"unsnap"
	"unsnap/internal/build"
	"unsnap/internal/core"
	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
)

// drivenResult is what the benchmark's own iteration loop observed.
type drivenResult struct {
	Outers, Inners int
	Converged      bool
	DFHistory      []float64
	Balance        core.Balance
	Wall           time.Duration
	Root           int // span id of the whole loop
}

// drive runs the single-domain iteration of core.Solver.RunContext — the
// same public calls in the same order under the same stopping rule (an
// inner stops at df < Epsi; the outer converges when MaxRelDiff(prev) <=
// 10*Epsi) — with a span around each call. prev and hist are
// caller-owned scratch (len(phi) and MaxOuters*MaxInners capacity), so
// the loop itself allocates nothing the program does not.
func drive(tr *tracer, run, parent int, s *core.Solver, o unsnap.Options, prev, hist []float64) (drivenResult, error) {
	r := drivenResult{DFHistory: hist[:0]}
	root := tr.begin(layerCore, "core.Solver.Run(driven)", run, parent)
	for outer := 0; outer < o.MaxOuters; outer++ {
		id := tr.begin(layerCore, "core.Solver.PhiSnapshot", run, root)
		prev = s.PhiSnapshot(prev)
		tr.end(id)
		id = tr.begin(layerCore, "core.Solver.ComputeOuterSource", run, root)
		s.ComputeOuterSource()
		tr.end(id)
		r.Outers++
		for inner := 0; inner < o.MaxInners; inner++ {
			id = tr.begin(layerCore, "core.Solver.PrepareInner", run, root)
			s.PrepareInner()
			tr.end(id)
			id = tr.begin(layerCore, "core.Solver.SweepAllAngles", run, root)
			err := s.SweepAllAngles()
			tr.end(id)
			if err == nil {
				id = tr.begin(layerAccel, "core.Solver.Accelerate", run, root)
				err = s.Accelerate()
				tr.end(id)
			}
			if err != nil {
				tr.end(root)
				return r, err
			}
			id = tr.begin(layerCore, "core.Solver.MaxRelChange", run, root)
			df := s.MaxRelChange()
			tr.end(id)
			r.DFHistory = append(r.DFHistory, df)
			r.Inners++
			if !o.ForceIterations && df < o.Epsi {
				break
			}
		}
		if !o.ForceIterations {
			id = tr.begin(layerCore, "core.Solver.MaxRelDiff", run, root)
			conv := s.MaxRelDiff(prev) <= 10*o.Epsi
			tr.end(id)
			if conv {
				r.Converged = true
				break
			}
		}
	}
	id := tr.begin(layerCore, "core.Solver.ComputeBalance", run, root)
	r.Balance = s.ComputeBalance()
	tr.end(id)
	r.Wall, r.Root = tr.end(root), root
	return r, nil
}

// sameIteration reports how a driven loop differs from Run on the same
// solver state ("" when inners, outers, convergence, df history, balance
// and flux are all bitwise equal).
func sameIteration(d drivenResult, dPhi []float64, r *unsnap.Result, rPhi []float64) string {
	switch {
	case d.Inners != r.Inners || d.Outers != r.Outers || d.Converged != r.Converged:
		return fmt.Sprintf("inners/outers/converged %d/%d/%v, Run %d/%d/%v", d.Inners, d.Outers, d.Converged, r.Inners, r.Outers, r.Converged)
	case !slices.Equal(d.DFHistory, r.DFHistory):
		return "df history differs from Run"
	case d.Balance.Source != r.Balance.Source || d.Balance.Absorption != r.Balance.Absorption || d.Balance.Leakage != r.Balance.Leakage:
		return "balance differs from Run"
	case !slices.Equal(dPhi, rPhi):
		return "scalar flux differs from Run"
	}
	return ""
}

// checkFidelity shrinks the problem to a tiny mesh and checks that the
// benchmark's driven loop reproduces Run's iteration and flux bitwise.
// A traced run whose loop diverges from Run would attribute time to a
// different computation, so it must fail loudly.
func checkFidelity(p unsnap.Problem, o unsnap.Options) error {
	p.NX, p.NY, p.NZ = 3, 3, 3
	p.AnglesPerOctant = min(p.AnglesPerOctant, 2)
	p.Groups = min(p.Groups, 2)
	o.Threads = 2
	s, err := unsnap.NewSolver(p, o)
	if err != nil {
		return err
	}
	defer s.Close()
	want, err := s.Run()
	if err != nil {
		return err
	}
	wantPhi := s.Internal().PhiSnapshot(nil)
	s.Internal().ResetState()
	got, err := drive(newTracer(), 0, -1, s.Internal(), o, nil, make([]float64, 0, o.MaxOuters*o.MaxInners))
	if err != nil {
		return err
	}
	if diff := sameIteration(got, s.Internal().PhiSnapshot(nil), want, wantPhi); diff != "" {
		return fmt.Errorf("traced loop diverges from Run at tiny size: %s", diff)
	}
	return nil
}

// fluxIntegrals returns the per-group flux integrals of a solved problem.
func fluxIntegrals(groups int, at func(g int) float64) []float64 {
	out := make([]float64, groups)
	for g := range out {
		out[g] = at(g)
	}
	return out
}

// meshConfig is the mesh the facade builds for p.
func meshConfig(p unsnap.Problem) mesh.Config {
	return mesh.Config{
		NX: p.NX, NY: p.NY, NZ: p.NZ, LX: p.LX, LY: p.LY, LZ: p.LZ,
		Twist: p.Twist, TwistPeriods: p.TwistPeriods, MatOpt: p.MatOpt, SrcOpt: p.SrcOpt,
	}
}

// traceSetupSpans times the set-up layers the benchmark can call on its
// own — mesh generation, fingerprinting, face matching and the global
// cycle lag sets — and returns the mesh-layer metrics.
func traceSetupSpans(tr *tracer, run int, p unsnap.Problem, o unsnap.Options, m map[string]float64) error {
	root := tr.begin(layerBuild, "setup", run, -1)
	defer tr.end(root)
	id := tr.begin(layerBuild, "mesh.New", run, root)
	msh, err := mesh.New(meshConfig(p))
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(layerBuild, "mesh.Mesh.Fingerprint", run, root)
	_ = msh.Fingerprint()
	m["mesh.fingerprint_ms"] = ms(tr.end(id))
	re, err := fem.NewRefElement(p.Order)
	if err != nil {
		return err
	}
	id = tr.begin(layerBuild, "mesh.Mesh.Match", run, root)
	_, err = msh.Match(re)
	m["mesh.match_ms"] = ms(tr.end(id))
	if err != nil {
		return err
	}
	q, err := quadrature.NewSNAP(p.AnglesPerOctant)
	if err != nil {
		return err
	}
	id = tr.begin(layerBuild, "build.GlobalLagSets", run, root)
	_, err = build.GlobalLagSets(msh, re, q, sweep.CycleOrder(o.CycleOrder), o.AllowCycles)
	m["build.lagsets_ms"] = ms(tr.end(id))
	return err
}

// traceSolver measures the single-domain layers of (p, o): a cold build
// and a warm solver through one cache, untraced Runs for the answer and
// the base wall time, the traced driven loop on the same solver, and an
// instrumented solver for the kernel's assemble and factor/solve shares.
// It fills m with the per-layer metrics and returns the untraced Run for
// the caller's answer checks.
func traceSolver(tr *tracer, p unsnap.Problem, o unsnap.Options, m map[string]float64) (tracedSolve, error) {
	if err := checkFidelity(p, o); err != nil {
		return tracedSolve{}, err
	}
	run := tr.newRun()
	if err := traceSetupSpans(tr, run, p, o, m); err != nil {
		return tracedSolve{}, err
	}
	cache := unsnap.NewCache(0)
	co := o
	co.Cache = cache
	builds0 := build.Builds()
	run = tr.newRun()
	id := tr.begin(layerBuild, "unsnap.Build(cold)", run, -1)
	art, err := unsnap.Build(p, co)
	m["build.cold_ms"] = ms(tr.end(id))
	if err != nil {
		return tracedSolve{}, err
	}
	m["build.artifact_mb"] = float64(art.SizeBytes()) / (1 << 20)
	id = tr.begin(layerBuild, "unsnap.NewSolver(warm)", run, -1)
	s, err := unsnap.NewSolver(p, co)
	m["build.warm_ms"] = ms(tr.end(id))
	if err != nil {
		return tracedSolve{}, err
	}
	defer s.Close()
	st := cache.Stats()
	m["build.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	m["build.builds"] = float64(build.Builds() - builds0)
	m["build.evictions"] = float64(st.Evictions)
	cs := s.Internal()
	m["sweep.lagged_edges"] = float64(cs.Lagged())

	// The first Run also pays the solver's lazy start-up (worker pools),
	// so the untraced base is a second Run on the same solver.
	res, err := s.Run()
	if err != nil {
		return tracedSolve{}, err
	}
	flux := fluxIntegrals(p.Groups, s.FluxIntegral)
	runPhi := cs.PhiSnapshot(nil)
	cs.ResetState()
	t0 := time.Now()
	_, err = s.Run()
	base := time.Since(t0)
	if err != nil {
		return tracedSolve{}, err
	}

	cs.ResetState()
	prev := make([]float64, len(runPhi))
	hist := make([]float64, 0, o.MaxOuters*o.MaxInners)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	run = tr.newRun()
	d, err := drive(tr, run, -1, cs, o, prev, hist)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return tracedSolve{}, err
	}
	if diff := sameIteration(d, cs.PhiSnapshot(nil), res, runPhi); diff != "" {
		return tracedSolve{}, fmt.Errorf("traced loop diverges from Run: %s", diff)
	}
	nA := 8 * p.AnglesPerOctant
	nE := p.NX * p.NY * p.NZ
	sweepNS := float64(tr.total("core.Solver.SweepAllAngles").Nanoseconds())
	m["core.sweep_ms"] = median(tr.durations("core.Solver.SweepAllAngles"))
	m["core.task_ns"] = sweepNS / float64(d.Inners*nA*nE)
	m["core.grind_ns"] = sweepNS / float64(d.Inners*nA*nE*p.Groups)
	m["core.outer_source_ms"] = ms(tr.total("core.Solver.ComputeOuterSource"))
	m["core.prepare_ms"] = ms(tr.total("core.Solver.PrepareInner"))
	m["core.converge_ms"] = ms(tr.total("core.Solver.MaxRelChange") + tr.total("core.Solver.MaxRelDiff") + tr.total("core.Solver.PhiSnapshot"))
	m["core.balance_ms"] = ms(tr.total("core.Solver.ComputeBalance"))
	m["accel.dsa_ms"] = ms(tr.total("core.Solver.Accelerate"))
	m["core.inners"] = float64(d.Inners)
	m["core.allocs_per_inner"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(d.Inners)
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["core.unattributed_ms"] = tr.spanSelf(d.Root)
	m["accel.spectral_radius"] = spectralRadius(d.DFHistory)
	m["trace.overhead_ratio"] = d.Wall.Seconds() / base.Seconds()

	io := co
	io.Instrument = true
	is, err := unsnap.NewSolver(p, io)
	if err != nil {
		return tracedSolve{}, err
	}
	defer is.Close()
	if _, err := is.Run(); err != nil {
		return tracedSolve{}, err
	}
	is.Internal().ResetState()
	ir, err := is.Run()
	if err != nil {
		return tracedSolve{}, err
	}
	workerSweep := float64(o.Threads) * ir.SweepSeconds
	m["core.assemble_share"] = ir.AssembleSeconds / workerSweep
	m["core.factor_solve_share"] = ir.SolveSeconds / workerSweep
	return tracedSolve{res: res, flux: flux, base: base}, nil
}

// tracedSolve is the untraced Run a traced measurement starts from: its
// result, flux integrals and wall time.
type tracedSolve struct {
	res  *unsnap.Result
	flux []float64
	base time.Duration
}

// spectralRadius is the geometric mean of df_k/df_{k-1} over the second
// half of a df history: the observed contraction rate of the iteration
// once its start-up transient has passed (zero with fewer than two
// inners).
func spectralRadius(h []float64) float64 {
	lo := max(1, len(h)/2)
	if lo >= len(h) {
		return 0
	}
	sum := 0.0
	for k := lo; k < len(h); k++ {
		sum += math.Log(h[k] / h[k-1])
	}
	return math.Exp(sum / float64(len(h)-lo))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
