package sparse

import (
	"math"
	"math/rand"
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

// TestBackendsAgree: both production backends must land on the same
// solution of an FVM-structured system to well below 1e-6 relative.
func TestBackendsAgree(t *testing.T) {
	m := buildLaplacian3D(12, 10, 8)
	b := rhsFor(m.N(), 42)
	sols := map[string][]float64{}
	for _, backend := range Backends() {
		s, err := NewSolver(backend)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, m.N())
		res, err := s.Solve(m, b, x)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if !res.Converged {
			t.Fatalf("%s did not converge", backend)
		}
		sols[backend] = x
	}
	if d := relDiff(sols[BackendJacobiCG], sols[BackendSSORCG]); d > 1e-6 {
		t.Errorf("backends disagree: relative difference %.2e > 1e-6", d)
	}
}

// TestSSORReducesIterations: the SSOR preconditioner must cut the
// iteration count of Jacobi-CG substantially on the 3D stencil — the
// property the backend exists for.
func TestSSORReducesIterations(t *testing.T) {
	m := buildLaplacian3D(16, 16, 8)
	b := rhsFor(m.N(), 7)
	iters := map[string]int{}
	for _, backend := range Backends() {
		s, err := NewSolver(backend)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, m.N())
		res, err := s.Solve(m, b, x)
		if err != nil {
			t.Fatal(err)
		}
		iters[backend] = res.Iterations
	}
	if iters[BackendSSORCG] >= iters[BackendJacobiCG] {
		t.Errorf("SSOR-CG took %d iterations, Jacobi-CG %d — no preconditioning advantage",
			iters[BackendSSORCG], iters[BackendJacobiCG])
	}
}

// TestWorkspaceReuse: back-to-back solves on one solver instance (the
// allocation-free hot path) must match fresh-instance solves, including
// across matrices of different sizes and after a backend has cached a
// preconditioner for another matrix.
func TestWorkspaceReuse(t *testing.T) {
	systems := []*CSR{
		buildLaplacian3D(10, 9, 7),
		buildLaplacian3D(6, 5, 4),
		buildLaplacian3D(10, 9, 7),
	}
	for _, backend := range Backends() {
		reused, err := NewSolver(backend)
		if err != nil {
			t.Fatal(err)
		}
		for si, m := range systems {
			b := rhsFor(m.N(), int64(100+si))
			xr := make([]float64, m.N())
			if _, err := reused.Solve(m, b, xr); err != nil {
				t.Fatalf("%s reused solve %d: %v", backend, si, err)
			}
			fresh, err := NewSolver(backend)
			if err != nil {
				t.Fatal(err)
			}
			xf := make([]float64, m.N())
			if _, err := fresh.Solve(m, b, xf); err != nil {
				t.Fatalf("%s fresh solve %d: %v", backend, si, err)
			}
			if d := relDiff(xr, xf); d > 1e-12 {
				t.Errorf("%s solve %d: workspace reuse changed the solution (rel diff %.2e)", backend, si, d)
			}
		}
	}
}

// TestSharedWorkspaceAcrossBackends: a workspace shared between a Jacobi
// and an SSOR solver must not leak one backend's preconditioner into the
// other.
func TestSharedWorkspaceAcrossBackends(t *testing.T) {
	m := buildLaplacian3D(8, 8, 6)
	b := rhsFor(m.N(), 3)
	ws := NewWorkspace(m.N())
	cg := &CG{Workspace: ws}
	ssor := &SSORCG{Workspace: ws}

	want := make([]float64, m.N())
	if _, err := (&CG{}).Solve(m, b, want); err != nil {
		t.Fatal(err)
	}
	// Interleave: CG, SSOR, CG again on the same matrix.
	for pass := 0; pass < 2; pass++ {
		x := make([]float64, m.N())
		if _, err := cg.Solve(m, b, x); err != nil {
			t.Fatal(err)
		}
		if d := relDiff(x, want); d > 1e-9 {
			t.Fatalf("pass %d: shared-workspace CG diverged (rel diff %.2e)", pass, d)
		}
		x2 := make([]float64, m.N())
		if _, err := ssor.Solve(m, b, x2); err != nil {
			t.Fatal(err)
		}
		if d := relDiff(x2, want); d > 1e-6 {
			t.Fatalf("pass %d: shared-workspace SSOR diverged (rel diff %.2e)", pass, d)
		}
	}
}

// TestSolverWarmStart: seeding x with the solution must converge
// (nearly) immediately for both backends.
func TestSolverWarmStart(t *testing.T) {
	m := buildLaplacian3D(10, 10, 6)
	b := rhsFor(m.N(), 11)
	for _, backend := range Backends() {
		s, err := NewSolver(backend)
		if err != nil {
			t.Fatal(err)
		}
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
			t.Errorf("%s: warm start took %d iterations vs cold %d",
				backend, warm.Iterations, cold.Iterations)
		}
	}
}

// TestSolveBestIterateOnNonConvergence: with a tiny iteration budget the
// solvers must return their best iterate and a populated result, not
// discard the work.
func TestSolveBestIterateOnNonConvergence(t *testing.T) {
	m := buildLaplacian3D(12, 12, 6)
	b := rhsFor(m.N(), 5)
	for _, backend := range Backends() {
		s, err := Config{Backend: backend, MaxIterations: 3, Tolerance: 1e-14}.New()
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, m.N())
		res, err := s.Solve(m, b, x)
		if err == nil {
			t.Fatalf("%s: expected non-convergence error", backend)
		}
		if res.Iterations != 3 {
			t.Errorf("%s: iterations = %d, want 3", backend, res.Iterations)
		}
		var moved bool
		for _, v := range x {
			if v != 0 {
				moved = true
				break
			}
		}
		if !moved {
			t.Errorf("%s: best iterate not written back", backend)
		}
		if res.Residual <= 0 || res.Residual >= 1 {
			t.Errorf("%s: residual %.2e should lie in (0, 1) after 3 iterations", backend, res.Residual)
		}
	}
	// The SolveCG wrapper must expose the same behaviour.
	x, res, err := SolveCG(m, b, CGOptions{MaxIterations: 3, Tolerance: 1e-14})
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

func TestConfigErrors(t *testing.T) {
	if _, err := NewSolver("multigrid"); err == nil {
		t.Error("unknown backend should error")
	}
	if _, err := (Config{Backend: BackendSSORCG, Omega: 2.5}).New(); err == nil {
		t.Error("omega outside (0,2) should error")
	}
	s := &SSORCG{Omega: -1}
	m := buildLaplacian1D(4)
	if _, err := s.Solve(m, make([]float64, 4), make([]float64, 4)); err == nil {
		t.Error("negative omega should error at solve time")
	}
	for _, backend := range Backends() {
		sv, err := NewSolver(backend)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sv.Solve(m, make([]float64, 3), make([]float64, 4)); err == nil {
			t.Errorf("%s: wrong rhs length should error", backend)
		}
		if _, err := sv.Solve(m, make([]float64, 4), make([]float64, 3)); err == nil {
			t.Errorf("%s: wrong solution length should error", backend)
		}
		bad := NewCOO(2)
		bad.Add(0, 0, -1)
		bad.Add(1, 1, 1)
		if _, err := sv.Solve(bad.ToCSR(), []float64{1, 1}, make([]float64, 2)); err == nil {
			t.Errorf("%s: negative diagonal should error", backend)
		}
	}
}

func TestSolverZeroRHS(t *testing.T) {
	m := buildLaplacian1D(10)
	for _, backend := range Backends() {
		s, err := NewSolver(backend)
		if err != nil {
			t.Fatal(err)
		}
		x := rhsFor(10, 9) // non-zero warm start must still yield x = 0
		res, err := s.Solve(m, make([]float64, 10), x)
		if err != nil || !res.Converged {
			t.Fatalf("%s zero rhs: %v", backend, err)
		}
		for _, v := range x {
			if v != 0 {
				t.Fatalf("%s: zero rhs should give zero solution", backend)
			}
		}
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
