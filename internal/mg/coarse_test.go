package mg

import (
	"math"
	"strings"
	"sync"
	"testing"

	"vcselnoc/internal/sparse"
)

// factorize analyses a under perm within maxEntries and factors it on
// one goroutine.
func factorize(a *sparse.CSR, perm []int32, maxEntries int) (*sparse.SparseCholesky, error) {
	an, err := sparse.AnalyzeCholesky(a, perm, maxEntries)
	if err != nil {
		return nil, err
	}
	return an.Factor(a, 1)
}

// fillOf returns the entry count of a's Cholesky factor under perm, or
// the analysis's ErrFactorTooLarge past maxEntries.
func fillOf(a *sparse.CSR, perm []int32, maxEntries int) (int, error) {
	an, err := sparse.AnalyzeCholesky(a, perm, maxEntries)
	if err != nil {
		return 0, err
	}
	return an.Nnz(), nil
}

// cholSolve overwrites b with A⁻¹·b through sparse.CholeskySolve on one
// goroutine, with fresh scratch.
func cholSolve(c *sparse.SparseCholesky, b []float64) {
	sparse.CholeskySolve(c, c.Values(), b, sparse.NewCholeskyScratch[float64](c, 1))
}

// TestCoarseSolverAgreement checks the coarse solve on a graded
// floorplan mesh: the sparse Cholesky factor and a tightly converged
// iterative reference must agree on the coarsest-level solution.
func TestCoarseSolverAgreement(t *testing.T) {
	h, _, _ := testHierarchy(t)
	lv := h.levels[len(h.levels)-1]
	b := randRHS(lv.n(), 41)

	sp, err := factorize(lv.a, coarseNDOrder(lv), defaultCoarseBudget)
	if err != nil {
		t.Fatal(err)
	}
	xs := append([]float64(nil), b...)
	cholSolve(sp, xs)

	ref := make([]float64, lv.n())
	cg := &sparse.CG{Tolerance: 1e-13, MaxIterations: 100 * lv.n()}
	if _, err := cg.Solve(lv.a, b, ref); err != nil {
		t.Fatal(err)
	}
	if rd := relDiff(xs, ref); rd > 1e-8 {
		t.Fatalf("sparse and iterative coarse solutions differ: rel diff %g", rd)
	}
}

// TestCoarseOrderingRoundTrip validates the nested-dissection ordering:
// a genuine permutation of the line-major coarsest level that keeps each
// z-line's cells consecutive and bottom to top, whose factorisation
// solves back in original cell order.
func TestCoarseOrderingRoundTrip(t *testing.T) {
	h, _, _ := testHierarchy(t)
	lv := h.levels[len(h.levels)-1]
	if lv.layerMajor {
		t.Fatal("the coarsest level of a multi-level hierarchy is numbered layer-major")
	}
	perm := h.CoarseOrdering()
	seen := make([]bool, lv.n())
	if len(perm) != lv.n() {
		t.Fatalf("ordering has %d entries, want %d", len(perm), lv.n())
	}
	for q, o := range perm {
		if o < 0 || int(o) >= lv.n() || seen[o] {
			t.Fatalf("ordering is not a permutation (entry %d)", o)
		}
		seen[o] = true
		if k := q % lv.nz; int(o)%lv.nz != k || int(o)-k != int(perm[q-k]) {
			t.Fatalf("ordering splits a z-line: position %d holds cell %d, its line starts at cell %d", q, o, perm[q-k])
		}
	}
	ident := make([]int32, lv.n())
	for i := range ident {
		ident[i] = int32(i)
	}
	nd, err := factorize(lv.a, perm, 0)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := factorize(lv.a, ident, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(lv.n(), 43)
	xnd := append([]float64(nil), b...)
	xnat := append([]float64(nil), b...)
	cholSolve(nd, xnd)
	cholSolve(nat, xnat)
	if rd := relDiff(xnd, xnat); rd > 1e-9 {
		t.Fatalf("ND-ordered and naturally ordered solutions differ: rel diff %g", rd)
	}
}

// TestCoarseNDOrderingReducesFill pins the point of the fill-reducing
// ordering: on a realistically sized coarse level (large lateral plane,
// short z) nested dissection must produce strictly less fill than the
// natural z-major ordering. (On tiny lateral planes the natural band
// ordering can win — that is fine; the factor fits either way.)
func TestCoarseNDOrderingReducesFill(t *testing.T) {
	xl := uniformLines(48, 2)
	yl := uniformLines(40, 2)
	zl := uniformLines(9, 3)
	a, hint := buildHeatSystem(t, xl, yl, zl)
	h, err := BuildHierarchy(a, hint, Options{levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	lv := h.levels[len(h.levels)-1]
	perm := coarseNDOrder(lv)
	ndFill, err := fillOf(lv.a, perm, 0)
	if err != nil {
		t.Fatal(err)
	}
	ident := make([]int32, lv.n())
	for i := range ident {
		ident[i] = int32(i)
	}
	natFill, err := fillOf(lv.a, ident, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("coarse level n=%d: ND fill %d vs natural fill %d", lv.n(), ndFill, natFill)
	if ndFill >= natFill {
		t.Fatalf("nested-dissection fill %d does not beat natural-ordering fill %d on a %d-cell coarse level", ndFill, natFill, lv.n())
	}
}

// TestCoarseFactorSharedOnce hammers the factorisation latch: many
// goroutines racing coarseFactor on one hierarchy must all observe the
// same single factorisation (run under -race in CI).
func TestCoarseFactorSharedOnce(t *testing.T) {
	h, _, _ := testHierarchy(t)
	const goroutines = 16
	factors := make([]*sparse.SparseCholesky, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			factors[g], errs[g] = h.coarseFactor()
		}(g)
	}
	wg.Wait()
	if errs[0] != nil || factors[0] == nil {
		t.Fatalf("coarse factorisation unexpectedly unavailable: %v", errs[0])
	}
	for g := 1; g < goroutines; g++ {
		if factors[g] != factors[0] || errs[g] != nil {
			t.Fatalf("goroutine %d saw a different factorisation", g)
		}
	}
}

// TestCoarseSolversShareFactorisation runs concurrent full solves
// against one shared hierarchy and checks they all land on identical
// solutions (the -race hammer for the solver-facing path).
func TestCoarseSolversShareFactorisation(t *testing.T) {
	h, a, _ := testHierarchy(t)
	b := randRHS(a.N(), 47)
	const goroutines = 8
	sols := make([][]float64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := New(h, Options{Workers: 2})
			x := make([]float64, a.N())
			_, errs[g] = s.Solve(a, b, x)
			sols[g] = x
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
	}
	for g := 1; g < goroutines; g++ {
		if rd := relDiff(sols[g], sols[0]); rd > 1e-7 {
			t.Fatalf("goroutine %d solution differs: rel diff %g", g, rd)
		}
	}
}

// TestCoarseBudgetKnob pins the budget test hook: the default budget
// leaves the graded test hierarchy as the size-adaptive coarsening built
// it, while a 10-entry budget makes BuildHierarchy rebalance all the way
// down to a single lateral cell — and that level still factors and
// preconditions, because the budget only decides how far to coarsen.
func TestCoarseBudgetKnob(t *testing.T) {
	h, a, hint := testHierarchy(t)
	unlimited, err := BuildHierarchy(a, hint, Options{budget: math.MaxInt})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != unlimited.Depth() {
		t.Fatalf("default budget rebalanced the test hierarchy (depth %d vs %d)", h.Depth(), unlimited.Depth())
	}
	tiny, err := BuildHierarchy(a, hint, Options{budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	lv := tiny.levels[len(tiny.levels)-1]
	if tiny.Depth() <= h.Depth() || lv.nx*lv.ny != 1 {
		t.Fatalf("10-entry budget: depth %d (default %d), coarsest lateral plane %d×%d, want one cell",
			tiny.Depth(), h.Depth(), lv.nx, lv.ny)
	}
	s := New(tiny, Options{})
	x := make([]float64, a.N())
	res, err := s.Solve(a, randRHS(a.N(), 57), x)
	if err != nil || !res.Converged {
		t.Fatalf("solve on the fully rebalanced hierarchy: %+v, %v", res, err)
	}
}

// TestCoarseRebalance pins the automatic rebalance: with a budget too
// small for the regular coarsest level, BuildHierarchy must append
// aggressively merged levels until the factorisation fits, and the solve
// must still converge quickly to the right answer.
func TestCoarseRebalance(t *testing.T) {
	base, a, hint := testHierarchy(t)
	lv := base.levels[len(base.levels)-1]
	fill, err := fillOf(lv.a, coarseNDOrder(lv), 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := fill / 2 // too small for the regular coarsest level
	opts := Options{budget: budget}
	reb, err := BuildHierarchy(a, hint, opts)
	if err != nil {
		t.Fatal(err)
	}
	if reb.Depth() <= base.Depth() {
		t.Fatalf("rebalance did not deepen the hierarchy (depth %d vs %d)", reb.Depth(), base.Depth())
	}
	rlv := reb.levels[len(reb.levels)-1]
	if _, err := fillOf(rlv.a, coarseNDOrder(rlv), budget); err != nil {
		t.Fatalf("rebalanced coarsest level still over budget: %v", err)
	}
	// The rebalanced hierarchy must still precondition well.
	b := randRHS(a.N(), 59)
	s := New(reb, opts)
	x := make([]float64, a.N())
	res, err := s.Solve(a, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("rebalanced solve did not converge")
	}
	sRef := newSolver(t, a, hint, Options{})
	xRef := make([]float64, a.N())
	resRef, err := sRef.Solve(a, b, xRef)
	if err != nil {
		t.Fatal(err)
	}
	if rd := relDiff(x, xRef); rd > 1e-7 {
		t.Fatalf("rebalanced solution differs: rel diff %g", rd)
	}
	if res.Iterations > 2*resRef.Iterations+2 {
		t.Fatalf("rebalanced solve needs %d iterations vs %d baseline — coarse level too weak", res.Iterations, resRef.Iterations)
	}
}

// TestRebalancedDeterminism is the paper-shaped determinism check: with
// the budget below the graded mesh's coarsest-level fill, BuildHierarchy
// must rebalance (as the paper tier does), and for each V-cycle precision
// two independently built hierarchies solved with 1, 2 and 4 workers must
// give bit-identical solutions. Nothing in the cycle may depend on
// timing, worker count or which solver built a shared factor first: the
// first solver of each build, which factors its coarsest level, runs
// with a different worker count.
func TestRebalancedDeterminism(t *testing.T) {
	base, a, hint := testHierarchy(t)
	lv := base.levels[len(base.levels)-1]
	fill, err := fillOf(lv.a, coarseNDOrder(lv), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{budget: fill / 2}
	b := randRHS(a.N(), 67)
	for _, prec := range []string{precisionFloat64, precisionFloat32} {
		var ref []float64
		for build, workerOrder := range [][]int{{1, 2, 4}, {4, 2, 1}} {
			h, err := BuildHierarchy(a, hint, opts)
			if err != nil {
				t.Fatal(err)
			}
			if h.Depth() <= base.Depth() {
				t.Fatalf("budget %d did not force a rebalance", opts.budget)
			}
			for _, workers := range workerOrder {
				s := New(h, Options{precision: prec, Workers: workers})
				x := make([]float64, a.N())
				if _, err := s.Solve(a, b, x); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = x
					continue
				}
				for i := range x {
					if x[i] != ref[i] {
						t.Fatalf("%s, hierarchy %d, %d workers: cell %d differs (%g vs %g)",
							prec, build, workers, i, x[i], ref[i])
					}
				}
			}
		}
	}
}

// TestCoarseFactorChargedOnce: the Factor phase holds the coarsest
// level's factorisation time, charged by the first solve that needs the
// factor and never again, whichever solver asks later; the V-cycle Total
// leaves it out.
func TestCoarseFactorChargedOnce(t *testing.T) {
	h, a, _ := testHierarchy(t)
	if f := h.PhaseStats().Factor; f != 0 {
		t.Fatalf("fresh hierarchy charged %v to Factor before any solve", f)
	}
	b := randRHS(a.N(), 73)
	solve := func(workers int) {
		s := New(h, Options{Workers: workers})
		if _, err := s.Solve(a, b, make([]float64, a.N())); err != nil {
			t.Fatal(err)
		}
	}
	solve(1)
	first := h.PhaseStats()
	if first.Factor <= 0 {
		t.Fatalf("Factor = %v after the first solve, want the factorisation time", first.Factor)
	}
	if first.Total() != first.Smooth+first.Restrict+first.Prolong+first.Coarse {
		t.Fatal("Total includes the Factor phase")
	}
	solve(1)
	solve(2)
	if again := h.PhaseStats(); again.Factor != first.Factor {
		t.Fatalf("Factor moved from %v to %v on later solves; the factor is built once", first.Factor, again.Factor)
	}
}

// TestCoarseFactorErrorReachesCaller: with one coarse tier there is no
// fallback, so a coarsest operator that cannot be factored must fail
// preconditioner and Solve with the factorisation's error instead of
// producing a silently broken V-cycle.
func TestCoarseFactorErrorReachesCaller(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(8, 1), uniformLines(8, 1), uniformLines(4, 0.1))
	h, err := BuildHierarchy(a, hint, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Make the coarsest operator indefinite after the line smoothers were
	// built, so only the (lazy) factorisation sees it.
	lv := h.levels[len(h.levels)-1]
	cols, vals := lv.a.Row(0)
	for p, c := range cols {
		if c == 0 {
			vals[p] = -vals[p]
		}
	}
	s := New(h, Options{})
	if _, err := s.preconditioner(a); err == nil || !strings.Contains(err.Error(), "pivot") {
		t.Fatalf("preconditioner error = %v, want the factorisation's pivot error", err)
	}
	x := make([]float64, a.N())
	if _, err := s.Solve(a, randRHS(a.N(), 71), x); err == nil {
		t.Fatal("Solve on an unfactorable coarsest level should error")
	}
}
