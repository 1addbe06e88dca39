package core

import (
	"math"
	"testing"

	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

// TestAccelFactorCacheBitwise pins the factor cache's core contract: the
// cached batched kernel produces flux bitwise identical to the uncached
// batched kernel on every solver kind and mesh family — the cache only
// moves where the identical factorisation happens.
func TestAccelFactorCacheBitwise(t *testing.T) {
	variants := []struct {
		name   string
		cfg    func(t *testing.T) Config
		solver SolverKind
	}{
		{"engine/ge", engineProblem, SolverGE},
		{"engine/dgesv", engineProblem, SolverDGESV},
		{"flat/ge", func(t *testing.T) Config { return flatSigtConfig(t, 4) }, SolverGE},
		{"flat/dgesv", func(t *testing.T) Config { return flatSigtConfig(t, 4) }, SolverDGESV},
		{"cyclic/ge", cyclicProblem, SolverGE},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			mk := func(noCache bool) ([]float64, []float64) {
				cfg := v.cfg(t)
				cfg.Solver = v.solver
				cfg.Threads = 4
				cfg.noFactorCache = noCache
				return runKernel(t, cfg, false, false)
			}
			refPhi, refPsi := mk(true)
			phi, psi := mk(false)
			for i := range refPhi {
				if phi[i] != refPhi[i] {
					t.Fatalf("phi[%d]: cached %v vs uncached %v (not bitwise)", i, phi[i], refPhi[i])
				}
			}
			for i := range refPsi {
				if psi[i] != refPsi[i] {
					t.Fatalf("psi[%d]: cached %v vs uncached %v (not bitwise)", i, psi[i], refPsi[i])
				}
			}
		})
	}
}

// TestAccelFactorCacheSharing pins the sharing structure the cache's win
// rests on: an untwisted uniform grid collapses to one geometry class, so
// the whole mesh shares nA x materials factor sets.
func TestAccelFactorCacheSharing(t *testing.T) {
	cfg := flatSigtConfig(t, 4)
	cfg.Scheme = SchemeEngine
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.art.GeomClasses != 1 {
		t.Fatalf("uniform grid has %d geometry classes, want 1", s.art.GeomClasses)
	}
	if s.fc == nil {
		t.Fatal("factor cache disabled on a uniform grid")
	}
	if s.fc.nSlots != xs.NumMaterials {
		t.Fatalf("cache has %d slots, want %d (one per occurring class x material)", s.fc.nSlots, xs.NumMaterials)
	}
}

// dsaProblem builds a scattering-dominated (ratio c) convergence problem.
func dsaProblem(t *testing.T, c float64, cyclic bool) Config {
	t.Helper()
	// Optically thick domain (~10 mean free paths across, about one
	// mean free path per cell): thin domains are leakage-dominated and
	// converge fast regardless of c, leaving no diffusive mode for DSA
	// to remove. One group keeps the within-group scattering ratio at
	// exactly c (multigroup libraries split part of it off-diagonal).
	mc := mesh.Config{NX: 10, NY: 10, NZ: 10, LX: 10, LY: 10, LZ: 10,
		MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere}
	if cyclic {
		mc.NX, mc.NY, mc.NZ = 6, 6, 6
		mc.LX, mc.LY, mc.LZ = 6, 6, 6
		mc.Twist, mc.TwistPeriods = 0.8, 3
	}
	m, err := mesh.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quadrature.NewSNAP(3)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := xs.NewLibraryRatio(1, c)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeEngine, Threads: 2,
		Epsi: 1e-6, MaxInners: 400, MaxOuters: 1,
		AllowCycles: cyclic,
	}
}

// TestAccelDSAFewerInners is the acceptance pin for the tentpole: on
// scattering-dominated problems AccelDSA must converge to the same flux
// (to solver epsilon) in at least 1.5x fewer inners, on both the plain
// and the cyclic (oscillating-twist) mesh.
func TestAccelDSAFewerInners(t *testing.T) {
	for _, cyclic := range []bool{false, true} {
		name := "plain"
		if cyclic {
			name = "cyclic"
		}
		t.Run(name, func(t *testing.T) {
			run := func(mode AccelMode) (int, []float64) {
				cfg := dsaProblem(t, 0.95, cyclic)
				cfg.Accelerate = mode
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.FinalDF >= cfg.Epsi {
					t.Fatalf("%v: not converged in %d inners (df %g)", mode, res.Inners, res.FinalDF)
				}
				phi, _ := snapshotSolver(s)
				return res.Inners, phi
			}
			innersOff, phiOff := run(AccelNone)
			innersOn, phiOn := run(AccelDSA)
			t.Logf("inners: %d unaccelerated, %d with DSA", innersOff, innersOn)
			if float64(innersOff) < 1.5*float64(innersOn) {
				t.Fatalf("DSA speedup %d/%d = %.2fx, want >= 1.5x",
					innersOff, innersOn, float64(innersOff)/float64(innersOn))
			}
			for i := range phiOff {
				denom := math.Abs(phiOff[i])
				if denom < convergenceFloor {
					denom = 1
				}
				if d := math.Abs(phiOn[i]-phiOff[i]) / denom; d > 1e-4 {
					t.Fatalf("phi[%d]: DSA %v vs plain %v (rel diff %g)", i, phiOn[i], phiOff[i], d)
				}
			}
		})
	}
}

// TestAccelDSAValidation pins the core-level rejection matrix: DSA is
// steady-state, isotropic only, and unknown modes are structured errors.
func TestAccelDSAValidation(t *testing.T) {
	base := func() Config { return dsaProblem(t, 0.9, false) }

	cfg := base()
	cfg.Accelerate = AccelMode(7)
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown AccelMode accepted")
	}

	cfg = base()
	cfg.Accelerate = AccelDSA
	cfg.Time = &TimeConfig{Steps: 1, Dt: 0.5, Velocity: DefaultVelocities(1)}
	if _, err := New(cfg); err == nil {
		t.Fatal("AccelDSA with time-dependent mode accepted")
	}

	cfg = base()
	lib, err := xs.NewLibraryP1(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Lib = lib
	cfg.ScatOrder = 1
	cfg.Accelerate = AccelDSA
	if _, err := New(cfg); err == nil {
		t.Fatal("AccelDSA with P1 scattering accepted")
	}
}
