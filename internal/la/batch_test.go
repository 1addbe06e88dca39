package la

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomSystem builds a well-conditioned (diagonally dominated) n x n
// matrix and k right-hand sides from a fixed seed.
func randomSystem(t *testing.T, rng *rand.Rand, n, k int) (*Matrix, []float64) {
	t.Helper()
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		a.Add(i, i, float64(n)) // dominate the diagonal
	}
	bs := make([]float64, k*n)
	for i := range bs {
		bs[i] = rng.NormFloat64()
	}
	return a, bs
}

// TestSolveFactoredMultiBitwise: every column of a batched factored solve
// must match a scalar SolveFactored of that column exactly — the sweep
// engine's bitwise-reproducibility pins rest on this.
func TestSolveFactoredMultiBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 8, 27, 64} {
		for _, k := range []int{1, 2, 3, 8} {
			a, bs := randomSystem(t, rng, n, k)
			piv := make([]int, n)
			if err := FactorBlocked(a, piv, DefaultBlockSize); err != nil {
				t.Fatalf("n=%d: factor: %v", n, err)
			}
			want := append([]float64(nil), bs...)
			for r := 0; r < k; r++ {
				SolveFactored(a, piv, want[r*n:(r+1)*n])
			}
			SolveFactoredMulti(a, piv, bs, k)
			for i := range bs {
				if bs[i] != want[i] {
					t.Fatalf("n=%d k=%d: batched[%d]=%v, scalar=%v (not bitwise)", n, k, i, bs[i], want[i])
				}
			}
		}
	}
}

// TestSolveGEMultiBitwise: every column of a batched GE solve must match
// a scalar SolveGE on a fresh copy of the matrix exactly.
func TestSolveGEMultiBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 8, 27, 64} {
		for _, k := range []int{1, 2, 3, 8} {
			a, bs := randomSystem(t, rng, n, k)
			want := make([]float64, k*n)
			for r := 0; r < k; r++ {
				ac := NewMatrix(n)
				ac.CopyFrom(a)
				b := append([]float64(nil), bs[r*n:(r+1)*n]...)
				if err := SolveGE(ac, b, want[r*n:(r+1)*n]); err != nil {
					t.Fatalf("n=%d: scalar GE: %v", n, err)
				}
			}
			if err := SolveGEMulti(a, bs, k); err != nil {
				t.Fatalf("n=%d k=%d: batched GE: %v", n, k, err)
			}
			for i := range bs {
				if bs[i] != want[i] {
					t.Fatalf("n=%d k=%d: batched[%d]=%v, scalar=%v (not bitwise)", n, k, i, bs[i], want[i])
				}
			}
		}
	}
}

// TestSolveMultiResidual: batched solutions actually solve the systems.
func TestSolveMultiResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, k := 27, 5
	a, bs := randomSystem(t, rng, n, k)
	orig := NewMatrix(n)
	orig.CopyFrom(a)
	want := append([]float64(nil), bs...)
	if err := SolveGEMulti(a, bs, k); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < k; r++ {
		if res := Residual(orig, bs[r*n:(r+1)*n], want[r*n:(r+1)*n]); res > 1e-10 {
			t.Fatalf("column %d residual %g", r, res)
		}
	}
}

// TestSolveGEMultiSingular: a singular matrix reports ErrSingular, like
// the scalar path.
func TestSolveGEMultiSingular(t *testing.T) {
	a := NewMatrix(3) // all zeros
	bs := make([]float64, 6)
	if err := SolveGEMulti(a, bs, 2); err != ErrSingular {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

// TestAbsMatchesMath: the local pivot-search abs must agree with math.Abs
// on every class of input the search can see.
func TestAbsMatchesMath(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1.5, -1.5, math.Inf(1), math.Inf(-1)} {
		got, want := abs(v), math.Abs(v)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("abs(%v) = %v, math.Abs = %v", v, got, want)
		}
	}
}

// pairMatrix builds an n x n matrix for the pair-kernel tests. A
// "swapping" matrix has plain normal entries, so partial pivoting
// interchanges rows; roughly a quarter of its entries are zero, so the
// elimination also takes the f == 0 skip. Otherwise the diagonal
// dominates (no interchanges, like the sweep's local matrices).
func pairMatrix(rng *rand.Rand, n int, swapping bool) *Matrix {
	a := NewMatrix(n)
	for i := range a.Data {
		if !swapping || rng.Intn(4) > 0 {
			a.Data[i] = rng.NormFloat64()
		}
	}
	if !swapping {
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
	}
	return a
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func cloneMatrix(a *Matrix) *Matrix {
	c := NewMatrix(a.N)
	c.CopyFrom(a)
	return c
}

// requireBitwise fails unless got and want are equal bit for bit.
func requireBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, single-system routine gives %v (not bitwise)", what, i, got[i], want[i])
		}
	}
}

// geAlone runs SolveGE on copies of (a, b) and returns the eliminated
// matrix, the solution (or partial right-hand side) and the error.
func geAlone(a *Matrix, b []float64) (*Matrix, []float64, error) {
	ac := cloneMatrix(a)
	bc := append([]float64(nil), b...)
	err := SolveGE(ac, bc, bc)
	return ac, bc, err
}

// TestSolveGE2Bitwise: each member of a lockstep pair must end with
// exactly the matrix and solution SolveGE produces on it alone, whether
// the pair pivots alike, differently, or not at all.
func TestSolveGE2Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 8, 27, 64} {
		for _, sw := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			for rep := 0; rep < 4; rep++ {
				a0, a1 := pairMatrix(rng, n, sw[0]), pairMatrix(rng, n, sw[1])
				b0, b1 := randVec(rng, n), randVec(rng, n)
				wa0, wb0, werr0 := geAlone(a0, b0)
				wa1, wb1, werr1 := geAlone(a1, b1)
				if werr0 != nil || werr1 != nil {
					continue // a random draw that is singular; covered below
				}
				err0, err1 := SolveGE2(a0, b0, a1, b1)
				if err0 != nil || err1 != nil {
					t.Fatalf("n=%d swap=%v: pair errors %v, %v; alone both solve", n, sw, err0, err1)
				}
				requireBitwise(t, "x0", b0, wb0)
				requireBitwise(t, "x1", b1, wb1)
				requireBitwise(t, "A0", a0.Data, wa0.Data)
				requireBitwise(t, "A1", a1.Data, wa1.Data)
			}
		}
	}
}

// TestSolveGE2OneSingular: when exactly one member has a zero pivot, it
// reports ErrSingular and stops in SolveGE's partial state, while the
// healthy member still runs to SolveGE's bitwise solution — in either
// slot and at any failing step.
func TestSolveGE2OneSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{2, 8, 27} {
		for _, col := range []int{0, n / 2, n - 1} {
			for slot := 0; slot < 2; slot++ {
				bad := pairMatrix(rng, n, true)
				for i := 0; i < n; i++ {
					bad.Set(i, col, 0) // a zero column: the pivot at step col is 0
				}
				bb, bg := randVec(rng, n), randVec(rng, n)
				wbad, wbb, werrB := geAlone(bad, bb)
				if !errors.Is(werrB, ErrSingular) {
					t.Fatalf("setup: zero-column matrix solved alone: %v", werrB)
				}
				// Redraw the healthy member until it is nonsingular.
				good := pairMatrix(rng, n, true)
				wgood, wbg, werrG := geAlone(good, bg)
				for werrG != nil {
					good = pairMatrix(rng, n, true)
					wgood, wbg, werrG = geAlone(good, bg)
				}
				var errBad, errGood error
				if slot == 0 {
					errBad, errGood = SolveGE2(bad, bb, good, bg)
				} else {
					errGood, errBad = SolveGE2(good, bg, bad, bb)
				}
				if !errors.Is(errBad, ErrSingular) {
					t.Fatalf("n=%d col=%d slot=%d: singular member error %v, want ErrSingular", n, col, slot, errBad)
				}
				if errGood != nil {
					t.Fatalf("n=%d col=%d slot=%d: healthy member error %v", n, col, slot, errGood)
				}
				requireBitwise(t, "healthy x", bg, wbg)
				requireBitwise(t, "healthy A", good.Data, wgood.Data)
				requireBitwise(t, "singular b", bb, wbb)
				requireBitwise(t, "singular A", bad.Data, wbad.Data)
			}
		}
	}
	// Both singular: both report it.
	a0, a1 := NewMatrix(3), NewMatrix(3)
	if err0, err1 := SolveGE2(a0, make([]float64, 3), a1, make([]float64, 3)); !errors.Is(err0, ErrSingular) || !errors.Is(err1, ErrSingular) {
		t.Fatalf("zero pair: errors %v, %v, want ErrSingular twice", err0, err1)
	}
}

// TestSolveFactored2Bitwise: each member of a lockstep factored pair must
// match SolveFactored on it alone, for both factorisations the sweep
// uses and for pivot sequences that differ between the members.
func TestSolveFactored2Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 8, 27, 64} {
		for _, blocked := range []bool{false, true} {
			for _, sw := range [][2]bool{{false, false}, {true, false}, {true, true}} {
				var a [2]*Matrix
				var piv [2][]int
				for m := range a {
					a[m] = pairMatrix(rng, n, sw[m])
					piv[m] = make([]int, n)
					var err error
					if blocked {
						err = FactorBlocked(a[m], piv[m], 4)
					} else {
						err = Factor(a[m], piv[m])
					}
					if err != nil {
						t.Fatalf("n=%d: factor: %v", n, err)
					}
				}
				b0, b1 := randVec(rng, n), randVec(rng, n)
				w0 := append([]float64(nil), b0...)
				w1 := append([]float64(nil), b1...)
				SolveFactored(a[0], piv[0], w0)
				SolveFactored(a[1], piv[1], w1)
				SolveFactored2(a[0], piv[0], b0, a[1], piv[1], b1)
				requireBitwise(t, "x0", b0, w0)
				requireBitwise(t, "x1", b1, w1)
			}
		}
	}
}

// BenchmarkLocalSolve times the raw dense solvers at the paper's Table I
// matrix sizes, isolating the GE-vs-blocked-LU crossover from the sweep.
func BenchmarkLocalSolve(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"n8", 8}, {"n27", 27}, {"n64", 64}, {"n125", 125}, {"n216", 216}}
	rng := rand.New(rand.NewSource(42))
	for _, sz := range sizes {
		a0 := NewMatrix(sz.n)
		for i := 0; i < sz.n; i++ {
			rowSum := 0.0
			for j := 0; j < sz.n; j++ {
				v := rng.Float64()*2 - 1
				a0.Set(i, j, v)
				if v < 0 {
					rowSum -= v
				} else {
					rowSum += v
				}
			}
			a0.Add(i, i, rowSum+1)
		}
		b.Run("GE/"+sz.name, func(b *testing.B) {
			ws := NewWorkspace(sz.n)
			for i := 0; i < b.N; i++ {
				ws.A.CopyFrom(a0)
				for j := range ws.B {
					ws.B[j] = 1
				}
				if err := SolveGE(ws.A, ws.B, ws.X); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("DGESV/"+sz.name, func(b *testing.B) {
			ws := NewWorkspace(sz.n)
			for i := 0; i < b.N; i++ {
				ws.A.CopyFrom(a0)
				for j := range ws.B {
					ws.B[j] = 1
				}
				if err := SolveDGESV(ws.A, ws.B, ws.Piv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPairSolve times two independent diagonally dominated systems
// solved one after the other against the lockstep pair kernels, at the
// order-1 and order-2 element sizes.
func BenchmarkPairSolve(b *testing.B) {
	for _, n := range []int{8, 27} {
		rng := rand.New(rand.NewSource(5))
		src := [2]*Matrix{pairMatrix(rng, n, false), pairMatrix(rng, n, false)}
		var a [2]*Matrix
		var piv [2][]int
		for m := range a {
			a[m] = cloneMatrix(src[m])
			piv[m] = make([]int, n)
			if err := Factor(a[m], piv[m]); err != nil {
				b.Fatal(err)
			}
		}
		ws := [2]*Workspace{NewWorkspace(n), NewWorkspace(n)}
		// Every iteration restarts from the same inputs; re-solving the
		// previous solution would drift into subnormal values.
		resetB := func() {
			for m := range ws {
				for j := range ws[m].B {
					ws[m].B[j] = 1
				}
			}
		}
		reset := func() {
			ws[0].A.CopyFrom(src[0])
			ws[1].A.CopyFrom(src[1])
			resetB()
		}
		b.Run(fmt.Sprintf("GE/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reset()
				_ = SolveGE(ws[0].A, ws[0].B, ws[0].B)
				_ = SolveGE(ws[1].A, ws[1].B, ws[1].B)
			}
		})
		b.Run(fmt.Sprintf("GE2/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reset()
				_, _ = SolveGE2(ws[0].A, ws[0].B, ws[1].A, ws[1].B)
			}
		})
		b.Run(fmt.Sprintf("Factored/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resetB()
				SolveFactored(a[0], piv[0], ws[0].B)
				SolveFactored(a[1], piv[1], ws[1].B)
			}
		})
		b.Run(fmt.Sprintf("Factored2/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resetB()
				SolveFactored2(a[0], piv[0], ws[0].B, a[1], piv[1], ws[1].B)
			}
		})
	}
}
