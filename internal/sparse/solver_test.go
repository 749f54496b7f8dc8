package sparse

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// buildLaplacian3D assembles the 7-point finite-volume stencil on an
// nx×ny×nz box with unit conductances and a unit diagonal shift — the
// same structure the FVM layer produces.
func buildLaplacian3D(nx, ny, nz int) *CSR {
	n := nx * ny * nz
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	a := NewCOO(n)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				c := idx(i, j, k)
				deg := 0.0
				add := func(o int) {
					a.Add(c, o, -1)
					deg++
				}
				if i > 0 {
					add(idx(i-1, j, k))
				}
				if i < nx-1 {
					add(idx(i+1, j, k))
				}
				if j > 0 {
					add(idx(i, j-1, k))
				}
				if j < ny-1 {
					add(idx(i, j+1, k))
				}
				if k > 0 {
					add(idx(i, j, k-1))
				}
				if k < nz-1 {
					add(idx(i, j, k+1))
				}
				// Small diagonal shift stands in for the boundary
				// conductance that makes FVM systems non-singular.
				a.Add(c, c, deg+0.01)
			}
		}
	}
	return a.ToCSR()
}

func rhsFor(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// relDiff returns max_i |x_i − y_i| / max_i |y_i|.
func relDiff(x, y []float64) float64 {
	var maxD, maxY float64
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > maxD {
			maxD = d
		}
		if a := math.Abs(y[i]); a > maxY {
			maxY = a
		}
	}
	if maxY == 0 {
		return maxD
	}
	return maxD / maxY
}

// TestWorkspaceReuse: back-to-back solves on one solver instance (the
// allocation-free hot path) must match fresh-instance solves, including
// across matrices of different sizes and after the solver has cached a
// preconditioner for another matrix.
func TestWorkspaceReuse(t *testing.T) {
	systems := []*CSR{
		buildLaplacian3D(10, 9, 7),
		buildLaplacian3D(6, 5, 4),
		buildLaplacian3D(10, 9, 7),
	}
	reused := &CG{}
	for si, m := range systems {
		b := rhsFor(m.N(), int64(100+si))
		xr := make([]float64, m.N())
		if _, err := reused.Solve(m, b, xr); err != nil {
			t.Fatalf("reused solve %d: %v", si, err)
		}
		xf := make([]float64, m.N())
		if _, err := (&CG{}).Solve(m, b, xf); err != nil {
			t.Fatalf("fresh solve %d: %v", si, err)
		}
		if d := relDiff(xr, xf); d > 1e-12 {
			t.Errorf("solve %d: workspace reuse changed the solution (rel diff %.2e)", si, d)
		}
	}
}

// TestSharedWorkspaceAcrossBackends: a workspace shared between CG and
// the PCG engine mg-cg runs its V-cycle inside must not leak CG's cached
// Jacobi diagonal into the other solve, or the other solve's vectors
// into CG: interleaved solves reproduce fresh ones bit for bit.
func TestSharedWorkspaceAcrossBackends(t *testing.T) {
	m := buildLaplacian3D(8, 8, 6)
	b := rhsFor(m.N(), 3)
	identity := func(z, r []float64) { copy(z, r) }
	want := make([]float64, m.N())
	if _, err := (&CG{}).Solve(m, b, want); err != nil {
		t.Fatal(err)
	}
	wantPlain := make([]float64, m.N())
	if _, err := PCG(m, b, wantPlain, nil, identity, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(m.N())
	cg := &CG{Workspace: ws}
	for pass := 0; pass < 2; pass++ {
		x := make([]float64, m.N())
		if _, err := cg.Solve(m, b, x); err != nil {
			t.Fatal(err)
		}
		x2 := make([]float64, m.N())
		if _, err := PCG(m, b, x2, ws, identity, 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i] != want[i] || x2[i] != wantPlain[i] {
				t.Fatalf("pass %d: shared-workspace solves differ from fresh ones at %d", pass, i)
			}
		}
	}
}

// TestSolverWarmStart: seeding x with the solution must converge
// (nearly) immediately.
func TestSolverWarmStart(t *testing.T) {
	m := buildLaplacian3D(10, 10, 6)
	b := rhsFor(m.N(), 11)
	s := &CG{}
	x := make([]float64, m.N())
	cold, err := s.Solve(m, b, x)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(m, b, x) // x now holds the solution
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations/2+2 {
		t.Errorf("warm start took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
}

// TestSolveBestIterateOnNonConvergence: with a tiny iteration budget the
// solver must return its best iterate and a populated result, not
// discard the work.
func TestSolveBestIterateOnNonConvergence(t *testing.T) {
	m := buildLaplacian3D(12, 12, 6)
	b := rhsFor(m.N(), 5)
	x := make([]float64, m.N())
	res, err := (&CG{MaxIterations: 3, Tolerance: 1e-14}).Solve(m, b, x)
	if err == nil {
		t.Fatal("expected non-convergence error")
	}
	if res.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", res.Iterations)
	}
	var moved bool
	for _, v := range x {
		if v != 0 {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("best iterate not written back")
	}
	if res.Residual <= 0 || res.Residual >= 1 {
		t.Errorf("residual %.2e should lie in (0, 1) after 3 iterations", res.Residual)
	}
	// The SolveCG wrapper must expose the same behaviour.
	x, res, err = SolveCG(m, b, CGOptions{MaxIterations: 3, Tolerance: 1e-14})
	if err == nil {
		t.Fatal("SolveCG: expected non-convergence error")
	}
	if x == nil {
		t.Fatal("SolveCG: best iterate is nil on non-convergence")
	}
	if res.Iterations != 3 {
		t.Errorf("SolveCG iterations = %d, want 3", res.Iterations)
	}
}

// TestConfigErrors: malformed solves — a right-hand side or solution of
// the wrong length, a matrix with a negative diagonal — must return an
// error, not panic or iterate.
func TestConfigErrors(t *testing.T) {
	m := buildLaplacian1D(4)
	s := &CG{}
	if _, err := s.Solve(m, make([]float64, 3), make([]float64, 4)); err == nil {
		t.Error("wrong rhs length should error")
	}
	if _, err := s.Solve(m, make([]float64, 4), make([]float64, 3)); err == nil {
		t.Error("wrong solution length should error")
	}
	bad := NewCOO(2)
	bad.Add(0, 0, -1)
	bad.Add(1, 1, 1)
	if _, err := s.Solve(bad.ToCSR(), []float64{1, 1}, make([]float64, 2)); err == nil {
		t.Error("negative diagonal should error")
	}
}

func TestSolverZeroRHS(t *testing.T) {
	m := buildLaplacian1D(10)
	x := rhsFor(10, 9) // non-zero warm start must still yield x = 0
	res, err := (&CG{}).Solve(m, make([]float64, 10), x)
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs: %v", err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs should give zero solution")
		}
	}
}

// TestSolverNonFiniteRHS: a right-hand side whose norm is not finite — an
// Inf or NaN entry, or finite entries whose squares overflow — can never
// meet a relative tolerance, so PCG (and CG on top of it) must refuse it
// before the first iteration instead of running to the iteration cap.
func TestSolverNonFiniteRHS(t *testing.T) {
	m := buildLaplacian1D(10)
	identity := func(z, r []float64) { copy(z, r) }
	for _, tc := range []struct {
		name string
		b    func() []float64
	}{
		{"Inf entry", func() []float64 { b := rhsFor(10, 3); b[4] = math.Inf(1); return b }},
		{"NaN entry", func() []float64 { b := rhsFor(10, 3); b[7] = math.NaN(); return b }},
		{"overflowing norm", func() []float64 {
			b := make([]float64, 10)
			for i := range b {
				b[i] = 1e200
			}
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := PCG(m, tc.b(), make([]float64, 10), nil, identity, 1e-9, 0, 1)
			if err == nil || !strings.Contains(err.Error(), "not finite") {
				t.Fatalf("PCG: err = %v, want a non-finite right-hand side error", err)
			}
			if res.Iterations != 0 || res.Converged {
				t.Fatalf("PCG: %d iterations, converged %v; want 0, false", res.Iterations, res.Converged)
			}
			res, err = (&CG{}).Solve(m, tc.b(), make([]float64, 10))
			if err == nil || res.Iterations != 0 {
				t.Fatalf("CG: err = %v after %d iterations, want an error after 0", err, res.Iterations)
			}
		})
	}
}

// TestMulVecNMatchesSerial: every worker count must produce the serial
// product bit-for-bit (each row is computed by exactly one goroutine).
func TestMulVecNMatchesSerial(t *testing.T) {
	m := buildLaplacian1D(9000) // above the parallel threshold
	x := rhsFor(m.N(), 21)
	want := make([]float64, m.N())
	mulRange(m, m.values, want, x, 0, m.N())
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		got := make([]float64, m.N())
		m.MulVecN(got, x, workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: row %d differs: %g vs %g", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMulVecNConcurrent hammers a shared matrix from many goroutines with
// per-goroutine destinations — the pattern batched solves rely on. Run
// under -race this doubles as the MulVec data-race check.
func TestMulVecNConcurrent(t *testing.T) {
	m := buildLaplacian1D(8192)
	x := rhsFor(m.N(), 33)
	want := make([]float64, m.N())
	mulRange(m, m.values, want, x, 0, m.N())
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, m.N())
			for rep := 0; rep < 4; rep++ {
				m.MulVecN(dst, x, 4)
				for i := range dst {
					if dst[i] != want[i] {
						errs <- "concurrent MulVecN produced a wrong entry"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
