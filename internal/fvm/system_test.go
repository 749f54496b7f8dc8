package fvm

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"vcselnoc/internal/mg"
	"vcselnoc/internal/sparse"
)

// benchProblem builds a modest 3D conduction problem with convection top
// and bottom — the same boundary structure the thermal layer produces.
func systemProblem(t testing.TB, nx, ny, nz int) *Problem {
	g := uniformGrid(t, nx, ny, nz, 1e-2, 1e-2, 1e-3)
	n := g.NumCells()
	power := make([]float64, n)
	// A few point sources at varying depths.
	power[g.Index(nx/2, ny/2, nz-1)] = 0.5
	power[g.Index(nx/4, ny/4, nz/2)] = 0.25
	power[g.Index(3*nx/4, ny/3, 0)] = 0.1
	return &Problem{
		Grid:         g,
		Conductivity: fill(n, 120),
		Power:        power,
		HeatCapacity: fill(n, 1.6e6),
		ZMin:         Boundary{Type: Convection, H: 15, Value: 25},
		ZMax:         Boundary{Type: Convection, H: 800, Value: 25},
	}
}

// TestBackendsAgreeOnFVMSystem is the acceptance check for the solver:
// mg-cg, which builds its hierarchy from the System's grid geometry,
// must agree on a finite-volume temperature field to within 1e-6
// relative of the Jacobi-preconditioned CG reference.
func TestBackendsAgreeOnFVMSystem(t *testing.T) {
	p := systemProblem(t, 20, 18, 6)
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sys.SolveSteady(p.Power, SolveOptions{Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Converged {
		t.Fatal("mg-cg did not converge")
	}
	rhs := make([]float64, sys.N())
	for i, q := range p.Power {
		rhs[i] = sys.rhsBoundary[i] + q
	}
	ref := make([]float64, sys.N())
	if _, err := (&sparse.CG{Tolerance: 1e-10}).Solve(sys.Matrix(), rhs, ref); err != nil {
		t.Fatal(err)
	}
	var maxT, maxD float64
	for i := range ref {
		maxT = math.Max(maxT, math.Abs(ref[i]))
		maxD = math.Max(maxD, math.Abs(ref[i]-sol.T[i]))
	}
	if maxD/maxT > 1e-6 {
		t.Errorf("mg-cg disagrees with jacobi-cg on temperature field: rel diff %.2e > 1e-6", maxD/maxT)
	}
}

// TestSolveSteadyBlockMatchesIndividual: every column of a block of
// independent power vectors is its own SolveSteady, bit for bit and with
// the same Stats, whether the columns run concurrently (Workers 0 and 3)
// or one after another (Workers 1). Run under -race this doubles as the
// data-race smoke of the concurrent column solves.
func TestSolveSteadyBlockMatchesIndividual(t *testing.T) {
	p := systemProblem(t, 16, 14, 6)
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.N()
	powers := make([][]float64, 4)
	for i := range powers {
		pw := make([]float64, n)
		pw[(i*131)%n] = 0.4 + 0.05*float64(i)
		pw[(i*577+23)%n] = 0.1
		powers[i] = pw
	}
	checkBlockMatchesIndividual(t, sys, powers)
	// Error surface: bad lengths still rejected through the block path.
	if _, err := sys.SolveSteadyBlock(nil, SolveOptions{}); err == nil {
		t.Error("empty block should error")
	}
	if _, err := sys.SolveSteadyBlock([][]float64{make([]float64, 2)}, SolveOptions{}); err == nil {
		t.Error("bad block entry should error")
	}
}

// TestSolveSteadyBlockBreakdownMatchesIndividual: a block of dependent
// columns (a, 2a, a) is rank-deficient, which breaks any solver that
// shares search directions across the block. Each column must still be
// bit-identical to its own SolveSteady at every worker count.
func TestSolveSteadyBlockBreakdownMatchesIndividual(t *testing.T) {
	p := systemProblem(t, 14, 12, 5)
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	double := make([]float64, len(p.Power))
	for i, q := range p.Power {
		double[i] = 2 * q
	}
	checkBlockMatchesIndividual(t, sys, [][]float64{p.Power, double, p.Power})
}

// checkBlockMatchesIndividual solves powers as one block at Workers 0, 1
// and 3 and compares each column, bit for bit and Stats for Stats, with
// its own SolveSteady at the same options.
func checkBlockMatchesIndividual(t *testing.T, sys *System, powers [][]float64) {
	t.Helper()
	for _, workers := range []int{0, 1, 3} {
		opts := SolveOptions{Tolerance: 1e-10, Workers: workers}
		got, err := sys.SolveSteadyBlock(powers, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, pw := range powers {
			want, err := sys.SolveSteady(pw, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got[i].Stats.Converged || got[i].Stats != want.Stats {
				t.Errorf("workers=%d column %d: stats %+v, individual %+v", workers, i, got[i].Stats, want.Stats)
			}
			for c := range want.T {
				if math.Float64bits(got[i].T[c]) != math.Float64bits(want.T[c]) {
					t.Fatalf("workers=%d column %d cell %d: block %g vs individual %g",
						workers, i, c, got[i].T[c], want.T[c])
				}
			}
			if e := got[i].EnergyBalanceError(); e > 1e-6 {
				t.Errorf("workers=%d column %d: energy balance error %g", workers, i, e)
			}
		}
	}
}

// TestSystemMatchesSolveSteady: the cached-operator path must reproduce
// the one-shot SolveSteady result exactly.
func TestSystemMatchesSolveSteady(t *testing.T) {
	p := systemProblem(t, 16, 14, 5)
	direct, err := SolveSteady(p, SolveOptions{Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := sys.SolveSteady(p.Power, SolveOptions{Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.T {
		if direct.T[i] != cached.T[i] {
			t.Fatalf("cell %d: direct %g vs cached %g", i, direct.T[i], cached.T[i])
		}
	}
	if math.Abs(direct.BoundaryHeatFlow()-cached.BoundaryHeatFlow()) > 1e-12 {
		t.Error("boundary heat flow differs between paths")
	}
}

// TestSystemTransientMatchesProblemLevel: the System transient path must
// reproduce the package-level SolveTransient.
func TestSystemTransientMatchesProblemLevel(t *testing.T) {
	p := systemProblem(t, 10, 10, 4)
	opts := TransientOptions{TimeStep: 0.01, Steps: 5, InitialUniform: 25, Tolerance: 1e-10}
	direct, err := SolveTransient(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := sys.SolveTransient(p.Power, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.T {
		if math.Abs(direct.T[i]-cached.T[i]) > 1e-9 {
			t.Fatalf("cell %d: direct %g vs cached %g", i, direct.T[i], cached.T[i])
		}
	}
}

func TestSystemErrors(t *testing.T) {
	p := systemProblem(t, 8, 8, 3)
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SolveSteady(make([]float64, 3), SolveOptions{}); err == nil {
		t.Error("wrong power length should error")
	}
	if _, err := sys.SolveSteady(p.Power, SolveOptions{InitialGuess: make([]float64, 2)}); err == nil {
		t.Error("bad initial guess length should error")
	}
	if _, err := sys.SolveTransient(make([]float64, 2), TransientOptions{TimeStep: 1, Steps: 1}); err == nil {
		t.Error("wrong transient power length should error")
	}
	// All-adiabatic steady problems remain rejected through the System path.
	g := uniformGrid(t, 4, 4, 2, 1e-3, 1e-3, 1e-4)
	bad := &Problem{
		Grid:         g,
		Conductivity: fill(g.NumCells(), 100),
		Power:        fill(g.NumCells(), 0.01),
	}
	badSys, err := NewSystem(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := badSys.SolveSteady(bad.Power, SolveOptions{}); err == nil {
		t.Error("all-adiabatic steady solve should error")
	}
}

// TestSteadySolverReuse: a warm System's steady solve takes the idle
// solver the previous solve left instead of allocating a new V-cycle and
// outer CG workspace, so it allocates its returned field and its
// right-hand side and little else; and the reused solver's field is the
// one a fresh solver computes, bit for bit. One worker keeps the worker
// pool's per-sweep bookkeeping out of the count, and 6 144 cells make
// each vector a whole number of the allocator's 8 KiB pages. The idle
// list holds its solvers weakly, so the test keeps the idle solver
// reachable itself, as a caller's recent solve does until the next
// garbage collection.
func TestSteadySolverReuse(t *testing.T) {
	p := systemProblem(t, 32, 32, 6)
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := SolveOptions{Tolerance: 1e-10, Workers: 1}
	if _, err := sys.SolveSteady(p.Power, opts); err != nil { // builds the hierarchy, the factor and a solver
		t.Fatal(err)
	}
	if len(sys.idle) != 1 || sys.idle[0].Value() == nil {
		t.Fatalf("after one solve the idle list holds %d solvers, want the one it used", len(sys.idle))
	}
	idle := sys.idle[0].Value()
	h, err := sys.hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	fresh := mg.New(h, solverOptions(opts.Tolerance, opts.Workers))
	ref, err := sys.solveSteadyWith(p.Power, opts, fresh)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sol, err := sys.SolveSteady(p.Power, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.idle) != 1 || sys.idle[0].Value() != idle {
		t.Fatal("the warm solve did not hand back the idle solver it took")
	}
	// The race detector's instrumentation allocates on its own account.
	vectors := uint64(2 * 8 * sys.N()) // the returned field and the right-hand side
	if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got > vectors+1024 {
		t.Fatalf("warm SolveSteady allocated %d bytes, want at most the %d of its field and right-hand side (+1 KiB)", got, vectors)
	}
	for i := range ref.T {
		if math.Float64bits(sol.T[i]) != math.Float64bits(ref.T[i]) {
			t.Fatalf("cell %d: reused solver gives %v, a fresh one %v", i, sol.T[i], ref.T[i])
		}
	}
	// A caller asking for other options gets a solver of its own, and a
	// garbage collection frees every idle solver.
	other, err := sys.takeSolver(SolveOptions{Tolerance: 1e-6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if other == idle || other.opts.Tolerance != 1e-6 {
		t.Fatalf("takeSolver with tolerance 1e-6 returned a solver built for %g", other.opts.Tolerance)
	}
	sys.putSolver(other)
	idle, other = nil, nil
	runtime.GC()
	for i, wp := range sys.idle {
		if wp.Value() != nil {
			t.Fatalf("idle solver %d survived a garbage collection", i)
		}
	}
}

// TestConcurrentSteadySolves: steady solves racing on one System, each
// taking and handing back idle solvers, never share one: every field is
// the bits of a solve run alone (run under -race in CI).
func TestConcurrentSteadySolves(t *testing.T) {
	p := systemProblem(t, 16, 14, 4)
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := SolveOptions{Tolerance: 1e-10, Workers: 1}
	ref, err := sys.SolveSteady(p.Power, opts)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, solves = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range solves {
				sol, err := sys.SolveSteady(p.Power, opts)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range ref.T {
					if math.Float64bits(sol.T[i]) != math.Float64bits(ref.T[i]) {
						t.Errorf("cell %d: %v under concurrency, %v alone", i, sol.T[i], ref.T[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
