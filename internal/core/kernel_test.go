package core

import (
	"fmt"
	"testing"

	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

// TestBuildSigtRuns pins the equal-sigma_t run decomposition the batched
// kernel's factorisation sharing rests on.
func TestBuildSigtRuns(t *testing.T) {
	cases := []struct {
		name string
		row  []float64
		want []sigtRun
	}{
		{"ramp", []float64{1, 1.01, 1.02}, []sigtRun{{0, 1}, {1, 1}, {2, 1}}},
		{"flat", []float64{2, 2, 2, 2}, []sigtRun{{0, 4}}},
		{"mixed", []float64{1, 1, 3, 1, 1, 1}, []sigtRun{{0, 2}, {2, 1}, {3, 3}}},
		{"single", []float64{5}, []sigtRun{{0, 1}}},
		{"empty", nil, nil},
	}
	for _, tc := range cases {
		got := buildSigtRuns([][]float64{tc.row})[0]
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: run %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// runKernel runs one configuration on the batched kernel, or on the
// scalar-kernel oracle when scalar is set, and returns the
// layout-independent flux snapshots.
func runKernel(t *testing.T, cfg Config, scalar, reflect bool) (phi, psi []float64) {
	t.Helper()
	cfg.Scheme = SchemeEngine
	cfg.scalarKernel = scalar
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if reflect {
		dims := [3]bool{true, false, true}
		s.SetBoundary(ReflectiveBoundary(s, dims))
		s.SetBalanceSkip(ReflectiveSkip(s, dims))
	}
	if cfg.Time != nil {
		if _, err := s.RunTimeDependent(); err != nil {
			t.Fatal(err)
		}
	} else if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return snapshotSolver(s)
}

// TestKernelBatchedBitwise pins the batched kernel's core contract: on
// every boundary-condition variant of the existing test matrix it must
// produce flux bitwise identical to the scalar per-group kernel — the
// batching reorders work across independent groups, never the
// floating-point operation sequence within one.
func TestKernelBatchedBitwise(t *testing.T) {
	variants := []struct {
		name    string
		cfg     func(t *testing.T) Config
		threads int
		reflect bool
	}{
		{"vacuum/t1", engineProblem, 1, false},
		{"vacuum/t4", engineProblem, 4, false},
		{"reflective/t4", engineProblem, 4, true},
		{"cyclic/t4", cyclicProblem, 4, false},
		{"timedep/t2", func(t *testing.T) Config {
			cfg := engineProblem(t)
			cfg.MaxInners, cfg.MaxOuters = 2, 1
			cfg.Time = &TimeConfig{Steps: 2, Dt: 0.5,
				Velocity: DefaultVelocities(cfg.Lib.NumGroups)}
			return cfg
		}, 2, false},
		{"p1/t2", func(t *testing.T) Config {
			cfg := engineProblem(t)
			lib, err := xs.NewLibraryP1(cfg.Lib.NumGroups)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Lib = lib
			cfg.ScatOrder = 1
			return cfg
		}, 2, false},
		// Lockstep group pairs (la.SolveGE2 / la.SolveFactored2), through
		// the factor cache and around it: an odd ramp leaves an unpaired
		// tail run; the mixed library interleaves pairs, multi-group runs
		// and a tail.
		{"ramp5/t2", runsProblem([]int{0, 1, 2, 3, 4}, false), 2, false},
		{"ramp5-uncached/t2", runsProblem([]int{0, 1, 2, 3, 4}, true), 2, false},
		{"mixedruns/t2", runsProblem(mixedRuns, false), 2, false},
		{"mixedruns-uncached/t2", runsProblem(mixedRuns, true), 2, false},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg(t)
			cfg.Threads = v.threads
			refPhi, refPsi := runKernel(t, v.cfg(t), true, v.reflect)
			phi, psi := runKernel(t, cfg, false, v.reflect)
			for i := range refPhi {
				if phi[i] != refPhi[i] {
					t.Fatalf("phi[%d]: batched %v vs scalar %v (not bitwise)", i, phi[i], refPhi[i])
				}
			}
			for i := range refPsi {
				if psi[i] != refPsi[i] {
					t.Fatalf("psi[%d]: batched %v vs scalar %v (not bitwise)", i, psi[i], refPsi[i])
				}
			}
		})
	}
}

// mixedRuns maps each of 10 groups to the ramp group whose sigma_t it
// takes, giving sigma_t runs of lengths 1,1,2,1,1,3,1: two pairs, two
// multi-group runs between them and an unpaired tail.
var mixedRuns = []int{0, 1, 2, 2, 4, 5, 6, 6, 6, 9}

// runsProblem returns engineProblem's mesh and quadrature with a
// len(pattern)-group ramped library in which group g takes the sigma_t
// of group pattern[g] (pattern[g] = g keeps the ramp: every run has
// length one). noCache turns the factor cache off, so every task forms
// and eliminates its own matrices.
func runsProblem(pattern []int, noCache bool) func(t *testing.T) Config {
	return func(t *testing.T) Config {
		t.Helper()
		m, q, lib := testProblem(t, 4, len(pattern), 3, 0.004)
		for mat := range lib.Total {
			ramp := append([]float64(nil), lib.Total[mat]...)
			for g, src := range pattern {
				lib.Total[mat][g] = ramp[src]
			}
		}
		return Config{
			Mesh: m, Order: 1, Quad: q, Lib: lib,
			MaxInners: 3, MaxOuters: 2, ForceIterations: true,
			noFactorCache: noCache,
		}
	}
}

// TestRunsProblemLayout pins the run decompositions the pair variants
// of TestKernelBatchedBitwise rely on.
func TestRunsProblemLayout(t *testing.T) {
	for _, tc := range []struct {
		pattern []int
		want    []sigtRun
	}{
		{[]int{0, 1, 2, 3, 4}, []sigtRun{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}}},
		{mixedRuns, []sigtRun{{0, 1}, {1, 1}, {2, 2}, {4, 1}, {5, 1}, {6, 3}, {9, 1}}},
	} {
		cfg := runsProblem(tc.pattern, false)(t)
		for mat, runs := range buildSigtRuns(cfg.Lib.Total) {
			if fmt.Sprint(runs) != fmt.Sprint(tc.want) {
				t.Fatalf("pattern %v material %d: runs %v, want %v", tc.pattern, mat, runs, tc.want)
			}
		}
	}
}

// flatSigtConfig builds a vacuum engine problem whose library has a flat
// per-material sigma_t across groups, so each material decomposes into a
// single run and every task costs exactly one factorisation.
func flatSigtConfig(t *testing.T, groups int) Config {
	t.Helper()
	m, err := mesh.New(mesh.Config{NX: 4, NY: 4, NZ: 4, LX: 1, LY: 1, LZ: 1,
		MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere})
	if err != nil {
		t.Fatal(err)
	}
	q, err := quadrature.NewSNAP(3)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := xs.NewLibrary(groups)
	if err != nil {
		t.Fatal(err)
	}
	for mat := range lib.Total {
		for g := range lib.Total[mat] {
			lib.Total[mat][g] = lib.Total[mat][0]
		}
	}
	return Config{
		Mesh: m, Order: 1, Quad: q, Lib: lib,
		MaxInners: 3, MaxOuters: 2, ForceIterations: true,
	}
}

// TestKernelFlatSigtSingleRun checks the full-amortisation regime: a flat
// sigma_t library collapses each material to one run spanning all groups,
// and the batched kernel still matches the scalar kernel bit for bit.
func TestKernelFlatSigtSingleRun(t *testing.T) {
	cfg := flatSigtConfig(t, 4)
	cfg.Scheme = SchemeEngine
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m, runs := range s.sigtRuns {
		if len(runs) != 1 || runs[0] != (sigtRun{0, int32(s.nG)}) {
			t.Fatalf("material %d: runs %v, want one run over all %d groups", m, runs, s.nG)
		}
	}
	s.Close()

	refPhi, refPsi := runKernel(t, flatSigtConfig(t, 4), true, false)
	cfg2 := flatSigtConfig(t, 4)
	cfg2.Threads = 4
	phi, psi := runKernel(t, cfg2, false, false)
	for i := range refPhi {
		if phi[i] != refPhi[i] {
			t.Fatalf("phi[%d]: batched %v vs scalar %v (not bitwise)", i, phi[i], refPhi[i])
		}
	}
	for i := range refPsi {
		if psi[i] != refPsi[i] {
			t.Fatalf("psi[%d]: batched %v vs scalar %v (not bitwise)", i, psi[i], refPsi[i])
		}
	}
}

// TestKernelDGESVBatchedBitwise covers the factor+multi-solve branch
// (SolverDGESV) of the batched kernel, which TestKernelBatchedBitwise's
// default-SolverGE variants never reach.
func TestKernelDGESVBatchedBitwise(t *testing.T) {
	mk := func(scalar bool) ([]float64, []float64) {
		cfg := flatSigtConfig(t, 4)
		cfg.Solver = SolverDGESV
		cfg.Threads = 2
		return runKernel(t, cfg, scalar, false)
	}
	refPhi, refPsi := mk(true)
	phi, psi := mk(false)
	for i := range refPhi {
		if phi[i] != refPhi[i] {
			t.Fatalf("phi[%d]: batched %v vs scalar %v (not bitwise)", i, phi[i], refPhi[i])
		}
	}
	for i := range refPsi {
		if psi[i] != refPsi[i] {
			t.Fatalf("psi[%d]: batched %v vs scalar %v (not bitwise)", i, psi[i], refPsi[i])
		}
	}
}

// TestSweepTaskAllocFree pins the tentpole's zero-allocation property:
// after warm-up, a full engine sweep — every task body included — must
// allocate nothing. AllocsPerRun forces GOMAXPROCS(1), so the pin runs
// the single-threaded engine (inline execution, no pool goroutines); the
// task body is the same code the pooled workers run.
func TestSweepTaskAllocFree(t *testing.T) {
	cfg := engineProblem(t)
	cfg.Scheme = SchemeEngine
	cfg.Threads = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ComputeOuterSource()
	s.PrepareInner()
	if err := s.SweepAllAngles(); err != nil { // warm-up: builds the engine
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		s.PrepareInner()
		if err := s.SweepAllAngles(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state sweep allocates %.1f objects per sweep, want 0", avg)
	}
}
