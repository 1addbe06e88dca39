package main

import (
	"fmt"
	"runtime"
	"time"

	"unsnap"
	"unsnap/internal/build"
	"unsnap/internal/comm"
	"unsnap/internal/core"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
	"unsnap/internal/xs"
)

// solveWorkload is a fixed transport problem solved repeatedly through
// the library: single-domain, or 1 x ranks under the pipelined halo
// protocol. Its inputs do not depend on the seed: the inner count is the
// lever these workloads measure, and a seeded geometry would move it.
type solveWorkload struct {
	name    string
	problem func(smoke bool) (unsnap.Problem, unsnap.Options)
	ranks   int // 0: single-domain
	// reference solves the same problem another way, outside the timed
	// region; every timed answer must match it to tol (relative, on the
	// per-group flux integrals).
	reference func(p unsnap.Problem, o unsnap.Options) (flux []float64, tol float64, err error)
	// converges is false for forced-iteration runs, whose rule is a fixed
	// inner count instead.
	converges bool
}

var sweepFig3 = solveWorkload{
	name: "sweep-fig3",
	problem: func(smoke bool) (unsnap.Problem, unsnap.Options) {
		p := unsnap.Problem{
			NX: 8, NY: 8, NZ: 8, LX: 1, LY: 1, LZ: 1, Twist: 0.001,
			MatOpt: unsnap.MatCentre, SrcOpt: unsnap.SrcEverywhere,
			Order: 1, AnglesPerOctant: 8, Groups: 16,
		}
		if smoke {
			p.NX, p.NY, p.NZ, p.AnglesPerOctant, p.Groups = 3, 3, 3, 2, 4
		}
		return p, unsnap.Options{Threads: 2, ForceIterations: true, MaxOuters: 2, MaxInners: 2, Epsi: 1e-4}
	},
	// The legacy bucket executor (the paper's AEg scheme) is an
	// independent implementation of the same sweep.
	reference: func(p unsnap.Problem, o unsnap.Options) ([]float64, float64, error) {
		o.Scheme = unsnap.AEg
		f, err := solveOnce(p, o)
		return f, 1e-12, err
	},
}

var scatterDSA = solveWorkload{
	name: "scatter-dsa",
	problem: func(smoke bool) (unsnap.Problem, unsnap.Options) {
		p := unsnap.Problem{
			NX: 8, NY: 8, NZ: 8, LX: 10, LY: 10, LZ: 10,
			MatOpt: unsnap.MatHomogeneous, SrcOpt: unsnap.SrcEverywhere,
			Order: 2, AnglesPerOctant: 2, Groups: 1, ScatRatio: 0.99,
		}
		if smoke {
			p.NX, p.NY, p.NZ, p.LX, p.LY, p.LZ = 3, 3, 3, 3, 3, 3
		}
		// Order 2, not 1: a one-group order-1 task is under a microsecond
		// of arithmetic on cached face blocks, so two workers parked and
		// woke many times per inner and the solve time followed the
		// host's wake-up latency and memory traffic more than the program.
		return p, unsnap.Options{Threads: 2, Accelerate: unsnap.AccelDSA, Epsi: 1e-6, MaxInners: 2000, MaxOuters: 10}
	},
	// DSA changes the iterates, not the fixed point: the unaccelerated
	// solve converges to the same flux within the iteration error, which
	// at c = 0.99 is about 1/(1-c) times epsi.
	reference: func(p unsnap.Problem, o unsnap.Options) ([]float64, float64, error) {
		o.Accelerate = unsnap.AccelNone
		f, err := solveOnce(p, o)
		return f, 2e-4, err
	},
	converges: true,
}

var haloCyclic = solveWorkload{
	name: "halo-cyclic",
	problem: func(smoke bool) (unsnap.Problem, unsnap.Options) {
		p := unsnap.Problem{
			NX: 8, NY: 8, NZ: 8, LX: 8, LY: 8, LZ: 8, Twist: 0.35, TwistPeriods: 2,
			MatOpt: unsnap.MatCentre, SrcOpt: unsnap.SrcEverywhere,
			Order: 1, AnglesPerOctant: 4, Groups: 4,
		}
		if smoke {
			p.NX, p.NY, p.NZ, p.LX, p.LY, p.LZ, p.AnglesPerOctant, p.Groups = 4, 4, 4, 4, 4, 4, 2, 2
		}
		return p, unsnap.Options{
			Threads: 1, Protocol: unsnap.CommPipelined,
			AllowCycles: true, CycleOrder: unsnap.OrderFeedbackArc,
			Epsi: 1e-6, MaxInners: 200, MaxOuters: 50,
		}
	},
	ranks: 2,
	// The pipelined sweep is the single-domain task graph, so the
	// single-domain solver (2 threads) is the reference to 1e-12.
	reference: func(p unsnap.Problem, o unsnap.Options) ([]float64, float64, error) {
		f, err := solveOnce(p, singleDomain(o))
		return f, 1e-12, err
	},
	converges: true,
}

// singleDomain is o for the single-domain solver on the same cores a
// 1 x 2 run uses.
func singleDomain(o unsnap.Options) unsnap.Options {
	o.Protocol = unsnap.CommLagged
	o.Threads = 2
	return o
}

// solveOnce solves (p, o) on a fresh solver and returns its flux
// integrals.
func solveOnce(p unsnap.Problem, o unsnap.Options) ([]float64, error) {
	s, err := unsnap.NewSolver(p, o)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	if !res.Converged && !o.ForceIterations {
		return nil, fmt.Errorf("reference solve did not converge (%d inners)", res.Inners)
	}
	return fluxIntegrals(p.Groups, s.FluxIntegral), nil
}

// solveJob is the part of unsnap.Solver and unsnap.Distributed a timed
// job uses.
type solveJob interface {
	Run() (*unsnap.Result, error)
	FluxIntegral(g int) float64
	Close()
}

func (w solveWorkload) open(p unsnap.Problem, o unsnap.Options) (solveJob, error) {
	if w.ranks > 0 {
		return unsnap.NewDistributed(p, o, 1, w.ranks)
	}
	return unsnap.NewSolver(p, o)
}

// solveSample is one timed job.
type solveSample struct {
	solve, job time.Duration
	heapMB     float64 // heap high-water mark during the job
	res        *unsnap.Result
	flux       []float64
}

// run measures the workload untraced: cold set-ups, then jobs on a warm
// cache for the run's duration, then the answer checks.
func (w solveWorkload) run(cfg runConfig) (*outcome, error) {
	p, o := w.problem(cfg.smoke)
	var cache *unsnap.ArtifactCache
	setups := make([]float64, 0, cfg.setups)
	for range cfg.setups {
		cache = unsnap.NewCache(0)
		co := o
		co.Cache = cache
		runtime.GC()
		t0 := time.Now()
		j, err := w.open(p, co)
		el := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		j.Close()
		setups = append(setups, el.Seconds())
	}
	o.Cache = cache

	out := &outcome{}
	var samples []solveSample
	heap := startHeapSampler()
	start := time.Now()
	for out.attempted == 0 || time.Since(start) < cfg.seconds {
		out.attempted++
		// Collect the previous job's garbage outside the job's timing, so
		// the job's heap high-water mark is its own working set on the
		// warm cache instead of depending on when the collector ran.
		runtime.GC()
		heap.Reset()
		t0 := time.Now()
		j, err := w.open(p, o)
		if err != nil {
			out.fail(cfg, "job %d: open: %v", out.attempted, err)
			continue
		}
		t1 := time.Now()
		res, err := j.Run()
		t2 := time.Now()
		var flux []float64
		if err == nil {
			flux = fluxIntegrals(p.Groups, j.FluxIntegral)
		}
		j.Close()
		t3 := time.Now()
		if err != nil {
			out.fail(cfg, "job %d: run: %v", out.attempted, err)
			continue
		}
		samples = append(samples, solveSample{solve: t2.Sub(t1), job: t3.Sub(t0), heapMB: heap.Peak(), res: res, flux: flux})
	}
	elapsed := time.Since(start)
	heap.Stop()

	o.Cache = nil
	ref, tol, err := w.reference(p, o)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var solves, jobs, heaps []float64
	for i, s := range samples {
		if why := w.check(p, o, s.res, s.flux, ref, tol); why != "" {
			out.fail(cfg, "job %d: %s", i+1, why)
			continue
		}
		solves = append(solves, s.solve.Seconds())
		jobs = append(jobs, s.job.Seconds())
		heaps = append(heaps, s.heapMB)
	}
	fmt.Fprintf(cfg.log, "%s: %d jobs in %.2f s, inners %d\n", w.name, len(samples), elapsed.Seconds(), firstInners(samples))
	out.metrics = map[string]float64{
		"setup_s":      median(setups),
		"solve_s":      median(solves),
		"job_p50_s":    median(jobs),
		"job_p90_s":    quantile(jobs, 0.9),
		"jobs_per_s":   float64(len(jobs)) / elapsed.Seconds(),
		"peak_heap_mb": median(heaps),
	}
	return out, nil
}

func firstInners(s []solveSample) int {
	if len(s) == 0 {
		return 0
	}
	return s[0].res.Inners
}

// check returns why a timed answer is wrong ("" when it is right): the
// workload's stopping rule must hold and the flux integrals must match
// the reference.
func (w solveWorkload) check(p unsnap.Problem, o unsnap.Options, res *unsnap.Result, flux, ref []float64, tol float64) string {
	switch {
	case w.converges && !res.Converged:
		return fmt.Sprintf("not converged after %d inners", res.Inners)
	case !w.converges && res.Inners != o.MaxOuters*o.MaxInners:
		return fmt.Sprintf("forced run did %d inners, want %d", res.Inners, o.MaxOuters*o.MaxInners)
	case res.Attempts != 1 || res.Degraded:
		return fmt.Sprintf("took %d attempts (degraded %v)", res.Attempts, res.Degraded)
	}
	if d := maxRelDiff(flux, ref); !(d <= tol) {
		return fmt.Sprintf("flux integrals differ from the reference by %.3g (tolerance %.0e)", d, tol)
	}
	return ""
}

// trace measures the per-layer metrics of one traced solve.
func (w solveWorkload) trace(cfg runConfig, tr *tracer) (*outcome, error) {
	p, o := w.problem(cfg.smoke)
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	single := o
	if w.ranks > 0 {
		single = singleDomain(o)
	}
	ts, err := traceSolver(tr, p, single, m)
	if err != nil {
		return nil, err
	}
	ref, tol, err := w.reference(p, o)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	out.attempted++
	if why := w.check(p, o, ts.res, ts.flux, ref, tol); why != "" {
		out.fail(cfg, "traced solve: %s", why)
	}
	if err := w.traceServeJob(cfg, tr, p, single, ref, tol, out); err != nil {
		return nil, err
	}
	if w.ranks > 0 {
		if err := w.traceComm(cfg, tr, p, o, ts, ref, tol, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceServeJob submits the workload's own problem (single-domain: the
// service runs no distributed jobs) as one job to a fresh in-process
// service, and fills the serve-layer metrics from it: what the service
// adds around this workload's solve.
func (w solveWorkload) traceServeJob(cfg runConfig, tr *tracer, p unsnap.Problem, o unsnap.Options, ref []float64, tol float64, out *outcome) error {
	sv, err := startService(0, nil)
	if err != nil {
		return err
	}
	cl := newClient(sv.url, tr)
	rec := cl.do(0, jobSpec{Tenant: "t0", Spec: unsnap.SpecOf(p, o)})
	cl.hc.CloseIdleConnections()
	if err := sv.stop(); err != nil {
		return err
	}
	out.attempted++
	var good []jobRecord
	switch v := rec.view; {
	case rec.err != nil:
		out.fail(cfg, "traced service job: %v", rec.err)
	case v.State != "done" || v.Result == nil || v.Started == nil || v.Finished == nil:
		out.fail(cfg, "traced service job: state %q: %s", v.State, v.Error)
	default:
		res := &unsnap.Result{Inners: v.Result.Inners, Converged: v.Result.Converged, Attempts: 1}
		if why := w.check(p, o, res, v.Result.Flux, ref, tol); why != "" {
			out.fail(cfg, "traced service job: %s", why)
		} else {
			good = append(good, rec)
		}
	}
	serveLayer([]jobRecord{rec}, good, out.metrics)
	return nil
}

// traceComm measures the halo layer: a cold and a warm comm.New on one
// cache, comm.Driver.Run on the warm driver, and an instrumented driver
// for the kernel's share of the ranks' wall time.
func (w solveWorkload) traceComm(cfg runConfig, tr *tracer, p unsnap.Problem, o unsnap.Options, sd tracedSolve, ref []float64, tol float64, out *outcome) error {
	m := out.metrics
	cache := build.NewCache(0)
	builds0 := build.Builds()
	run := tr.newRun()
	id := tr.begin(layerBuild, "comm.New(cold)", run, -1)
	cold, err := newDriver(p, o, w.ranks, cache, false)
	m["build.cold_ms"] = ms(tr.end(id))
	if err != nil {
		return err
	}
	seen := map[*build.Artifact]bool{}
	artBytes := int64(0)
	for r := range cold.NumRanks() {
		if a := cold.Rank(r).Artifact(); !seen[a] {
			seen[a] = true
			artBytes += a.SizeBytes()
		}
	}
	cold.Close()
	m["build.artifact_mb"] = float64(artBytes) / (1 << 20)
	id = tr.begin(layerBuild, "comm.New(warm)", run, -1)
	d, err := newDriver(p, o, w.ranks, cache, false)
	m["build.warm_ms"] = ms(tr.end(id))
	if err != nil {
		return err
	}
	st := cache.Stats()
	m["build.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	m["build.builds"] = float64(build.Builds() - builds0)
	m["build.evictions"] = float64(st.Evictions)

	// Like the single-domain base, the measured runs are second runs on
	// their drivers: the first pays the ranks' lazy start-up. Resetting
	// every rank between runs is what the retry policy does between
	// attempts, so both runs start from the same zero iterate.
	defer d.Close()
	for i, name := range []string{"comm.Driver.Run(first)", "comm.Driver.Run"} {
		if i > 0 {
			resetRanks(d)
		}
		run := tr.newRun()
		id := tr.begin(layerComm, name, run, -1)
		res, err := d.Run()
		wall := tr.end(id)
		if err != nil {
			return err
		}
		out.attempted++
		ur := &unsnap.Result{Inners: res.Inners, Converged: res.Converged, Attempts: res.Attempts, Degraded: res.Degraded}
		if why := w.check(p, o, ur, fluxIntegrals(p.Groups, d.FluxIntegral), ref, tol); why != "" {
			out.fail(cfg, "traced %s: %s", name, why)
		}
		m["comm.extra_inners"] = float64(res.Inners - sd.res.Inners)
		m["comm.overhead_ratio"] = wall.Seconds() / sd.base.Seconds()
		m["comm.attempts"] = float64(res.Attempts)
	}

	di, err := newDriver(p, o, w.ranks, cache, true)
	if err != nil {
		return err
	}
	defer di.Close()
	if _, err := di.Run(); err != nil {
		return err
	}
	resetRanks(di)
	t0 := time.Now()
	if _, err := di.Run(); err != nil {
		return err
	}
	iwall := time.Since(t0)
	var kernel time.Duration
	for r := range di.NumRanks() {
		a, s := di.Rank(r).PhaseTimes()
		kernel += a + s
	}
	m["comm.kernel_share"] = kernel.Seconds() / (float64(di.NumRanks()*o.Threads) * iwall.Seconds())
	return nil
}

// resetRanks returns every rank to the zero iterate with cleared phase
// timers.
func resetRanks(d *comm.Driver) {
	for r := range d.NumRanks() {
		d.Rank(r).ResetState()
		d.Rank(r).ResetPhaseTimes()
	}
}

// newDriver builds the 1 x ranks driver exactly as unsnap.NewDistributed
// does, but keeps the comm.Driver so the trace can reach its ranks.
func newDriver(p unsnap.Problem, o unsnap.Options, ranks int, cache *build.Cache, instrument bool) (*comm.Driver, error) {
	m, err := mesh.New(meshConfig(p))
	if err != nil {
		return nil, err
	}
	q, err := quadrature.NewSNAP(p.AnglesPerOctant)
	if err != nil {
		return nil, err
	}
	lib, err := xs.NewLibrary(p.Groups)
	if err != nil {
		return nil, err
	}
	return comm.New(comm.Config{
		Mesh: m, PY: 1, PZ: ranks, Protocol: comm.Protocol(o.Protocol),
		Rank: core.Config{
			Order: p.Order, Quad: q, Lib: lib, Threads: o.Threads,
			Epsi: o.Epsi, MaxInners: o.MaxInners, MaxOuters: o.MaxOuters,
			AllowCycles: o.AllowCycles, CycleOrder: sweep.CycleOrder(o.CycleOrder),
			Accelerate: core.AccelMode(o.Accelerate), Instrument: instrument, Cache: cache,
		},
	})
}
