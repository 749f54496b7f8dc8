package mg

import (
	"math"
	"math/rand"
	"testing"

	"vcselnoc/internal/sparse"
)

// uniformLines returns n+1 evenly spaced grid lines over [0, span].
func uniformLines(n int, span float64) []float64 {
	lines := make([]float64, n+1)
	for i := range lines {
		lines[i] = span * float64(i) / float64(n)
	}
	return lines
}

// buildHeatSystem assembles the 7-point FVM conduction operator on the
// given grid lines with a high-conductivity slab in the middle z layers
// (exercising the material discontinuities Galerkin coarsening must
// carry) and Robin-like diagonal shifts on the z faces to pin the
// temperature level — the same structure fvm.Problem.assemble produces.
func buildHeatSystem(t testing.TB, xl, yl, zl []float64) (*sparse.CSR, sparse.GridHint) {
	t.Helper()
	nx, ny, nz := len(xl)-1, len(yl)-1, len(zl)-1
	n := nx * ny * nz
	cond := func(k int) float64 {
		if k >= nz/3 && k < 2*nz/3 {
			return 120 // copper-like slab
		}
		return 1.2 // BCB-like background
	}
	cx, cy, cz := centersOf(xl), centersOf(yl), centersOf(zl)
	_ = cx
	_ = cy
	dx := func(i int) float64 { return xl[i+1] - xl[i] }
	dy := func(j int) float64 { return yl[j+1] - yl[j] }
	dz := func(k int) float64 { return zl[k+1] - zl[k] }
	_ = cz
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	face := func(d1, k1, d2, k2, area float64) float64 {
		return area / (0.5*d1/k1 + 0.5*d2/k2)
	}
	a := sparse.NewCOO(n)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				c := idx(i, j, k)
				kc := cond(k)
				diag := 0.0
				couple := func(o int, g float64) {
					a.Add(c, o, -g)
					diag += g
				}
				if i > 0 {
					couple(idx(i-1, j, k), face(dx(i), kc, dx(i-1), kc, dy(j)*dz(k)))
				}
				if i < nx-1 {
					couple(idx(i+1, j, k), face(dx(i), kc, dx(i+1), kc, dy(j)*dz(k)))
				}
				if j > 0 {
					couple(idx(i, j-1, k), face(dy(j), kc, dy(j-1), kc, dx(i)*dz(k)))
				}
				if j < ny-1 {
					couple(idx(i, j+1, k), face(dy(j), kc, dy(j+1), kc, dx(i)*dz(k)))
				}
				if k > 0 {
					couple(idx(i, j, k-1), face(dz(k), kc, dz(k-1), cond(k-1), dx(i)*dy(j)))
				}
				if k < nz-1 {
					couple(idx(i, j, k+1), face(dz(k), kc, dz(k+1), cond(k+1), dx(i)*dy(j)))
				}
				if k == 0 || k == nz-1 {
					diag += 15 * dx(i) * dy(j) // convection-like pinning
				}
				a.Add(c, c, diag)
			}
		}
	}
	return a.ToCSR(), sparse.GridHint{X: xl, Y: yl, Z: zl}
}

func randRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

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

// TestRegistered: linking this package must make mg-cg listable and
// constructible through the sparse registry with the right name.
func TestRegistered(t *testing.T) {
	found := false
	for _, b := range sparse.Backends() {
		if b == sparse.BackendMGCG {
			found = true
		}
	}
	if !found {
		t.Fatal("mg-cg missing from sparse.Backends()")
	}
	for _, backend := range sparse.Backends() {
		s, err := sparse.NewSolver(backend)
		if err != nil {
			t.Errorf("backend %s failed to construct: %v", backend, err)
			continue
		}
		if s.Name() != backend {
			t.Errorf("backend %s constructs solver named %s", backend, s.Name())
		}
	}
}

// TestHierarchyInvariants: semicoarsening must shrink the lateral grid
// geometrically, keep z intact, and keep every Galerkin operator
// symmetric with positive diagonals.
func TestHierarchyInvariants(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(24, 1), uniformLines(20, 1), uniformLines(7, 0.1))
	h, err := BuildHierarchy(a, hint, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() < 3 {
		t.Fatalf("depth %d, want ≥ 3 on a 24×20×7 grid", h.Depth())
	}
	if h.Fine() != a {
		t.Error("Fine() must return the input matrix")
	}
	for l, lv := range h.levels {
		if lv.nz != 7 {
			t.Errorf("level %d: z coarsened to %d layers", l, lv.nz)
		}
		if !lv.a.IsSymmetric(1e-9 * lv.a.At(0, 0)) {
			t.Errorf("level %d operator is not symmetric", l)
		}
		for i := 0; i < lv.a.N(); i++ {
			if lv.a.At(i, i) <= 0 {
				t.Fatalf("level %d: non-positive diagonal at %d", l, i)
			}
		}
		if l > 0 {
			prev := h.levels[l-1]
			if lv.n() >= prev.n() {
				t.Errorf("level %d did not shrink: %d vs %d", l, lv.n(), prev.n())
			}
		}
	}
}

// TestGalerkinMatchesExplicitTripleProduct verifies A_c = Pᵀ·A·P entry by
// entry on a small grid, with P materialised densely from the axis maps.
func TestGalerkinMatchesExplicitTripleProduct(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(6, 1), uniformLines(5, 1), uniformLines(3, 0.1))
	h, err := BuildHierarchy(a, hint, Options{levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 2 {
		t.Fatalf("depth %d, want 2", h.Depth())
	}
	lv := h.levels[0]
	nf, nc := lv.n(), h.levels[1].n()
	nxc, nyc := lv.ix.nc, lv.iy.nc
	// Dense P from the tensor maps.
	p := make([][]float64, nf)
	for fk := 0; fk < lv.nz; fk++ {
		for fj := 0; fj < lv.ny; fj++ {
			for fi := 0; fi < lv.nx; fi++ {
				f := (fk*lv.ny+fj)*lv.nx + fi
				p[f] = make([]float64, nc)
				addX := func(zj, yj int, wzy float64) {
					p[f][(zj*nyc+yj)*nxc+int(lv.ix.lo[fi])] += wzy * lv.ix.wlo[fi]
					if lv.ix.whi[fi] != 0 {
						p[f][(zj*nyc+yj)*nxc+int(lv.ix.hi[fi])] += wzy * lv.ix.whi[fi]
					}
				}
				addY := func(zj int, wz float64) {
					addX(zj, int(lv.iy.lo[fj]), wz*lv.iy.wlo[fj])
					if lv.iy.whi[fj] != 0 {
						addX(zj, int(lv.iy.hi[fj]), wz*lv.iy.whi[fj])
					}
				}
				addY(int(lv.iz.lo[fk]), lv.iz.wlo[fk])
				if lv.iz.whi[fk] != 0 {
					addY(int(lv.iz.hi[fk]), lv.iz.whi[fk])
				}
			}
		}
	}
	// Dense Pᵀ·A·P.
	want := make([][]float64, nc)
	for i := range want {
		want[i] = make([]float64, nc)
	}
	for r := 0; r < nf; r++ {
		rc, rv := a.Row(r)
		for p1, w1 := range p[r] {
			if w1 == 0 {
				continue
			}
			for e := range rc {
				for p2, w2 := range p[int(rc[e])] {
					if w2 != 0 {
						want[p1][p2] += w1 * rv[e] * w2
					}
				}
			}
		}
	}
	got := h.levels[1].a
	var scale float64
	for i := 0; i < nc; i++ {
		if v := math.Abs(want[i][i]); v > scale {
			scale = v
		}
	}
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			if d := math.Abs(got.At(i, j) - want[i][j]); d > 1e-12*scale {
				t.Fatalf("A_c(%d,%d) = %g, want %g", i, j, got.At(i, j), want[i][j])
			}
		}
	}
}

// TestTransferAdjoint: restriction must be the exact transpose of
// prolongation — ⟨P·xc, r⟩ = ⟨xc, Pᵀ·r⟩ — or the V-cycle loses symmetry
// and CG its convergence guarantee.
func TestTransferAdjoint(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(11, 1), uniformLines(9, 1), uniformLines(4, 0.1))
	h, err := BuildHierarchy(a, hint, Options{levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	lv := h.levels[0]
	w := withTransfer(&levelArrays[float64]{}, lv)
	nf, nc := lv.n(), h.levels[1].n()
	xc := randRHS(nc, 1)
	r := randRHS(nf, 2)
	px := make([]float64, nf)
	prolongAdd(lv, w, px, xc)
	ptr := make([]float64, nc)
	restrict(lv, w, ptr, r)
	lhs := sparse.Dot(px, r)
	rhs := sparse.Dot(xc, ptr)
	if math.Abs(lhs-rhs) > 1e-10*math.Max(math.Abs(lhs), 1) {
		t.Fatalf("transfer operators are not adjoint: %g vs %g", lhs, rhs)
	}
}

// TestMGCGMatchesJacobiCG: the new backend must land on the same solution
// as the reference backend on a discontinuous-material system.
func TestMGCGMatchesJacobiCG(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(20, 1), uniformLines(18, 1), uniformLines(6, 0.1))
	b := randRHS(a.N(), 42)
	ref, _, err := sparse.SolveCG(a, b, sparse.CGOptions{Tolerance: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Tolerance: 1e-10})
	s.SetGridHint(hint)
	x := make([]float64, a.N())
	res, err := s.Solve(a, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("mg-cg did not converge")
	}
	if d := relDiff(x, ref); d > 1e-6 {
		t.Errorf("mg-cg vs jacobi-cg rel diff %.2e > 1e-6", d)
	}
}

// TestMGIterationsMeshIndependent is the property the backend exists for:
// doubling the lateral resolution twice must leave the CG iteration count
// within a narrow band, while unpreconditioned-in-h backends degrade.
func TestMGIterationsMeshIndependent(t *testing.T) {
	sizes := []int{16, 32, 64}
	var iters []int
	for _, nxy := range sizes {
		a, hint := buildHeatSystem(t, uniformLines(nxy, 1), uniformLines(nxy, 1), uniformLines(6, 0.1))
		s := New(Options{Tolerance: 1e-9})
		s.SetGridHint(hint)
		x := make([]float64, a.N())
		res, err := s.Solve(a, randRHS(a.N(), 9), x)
		if err != nil {
			t.Fatalf("n=%d: %v", nxy, err)
		}
		iters = append(iters, res.Iterations)
	}
	t.Logf("mg-cg iterations across %v lateral cells: %v", sizes, iters)
	for i := 1; i < len(iters); i++ {
		if float64(iters[i]) > 1.5*float64(iters[0])+2 {
			t.Errorf("iteration count grew from %d to %d between refinements — not mesh independent",
				iters[0], iters[i])
		}
	}
}

// TestSharedHierarchy: two solver instances sharing one hierarchy must
// reproduce the fresh-build solution exactly — the contract batched and
// blocked multi-RHS solves rely on.
func TestSharedHierarchy(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(14, 1), uniformLines(12, 1), uniformLines(5, 0.1))
	b := randRHS(a.N(), 4)
	h, err := BuildHierarchy(a, hint, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{})
	fresh.SetGridHint(hint)
	want := make([]float64, a.N())
	if _, err := fresh.Solve(a, b, want); err != nil {
		t.Fatal(err)
	}
	for inst := 0; inst < 2; inst++ {
		s := New(Options{})
		s.SetHierarchy(h) // no grid hint at all: the hierarchy is enough
		got := make([]float64, a.N())
		if _, err := s.Solve(a, b, got); err != nil {
			t.Fatalf("instance %d: %v", inst, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("instance %d: shared hierarchy changed the solution at %d", inst, i)
			}
		}
	}
}

// TestConfigKnobs: the registry factory must thread the mg-cg knobs
// (precision, workers) through, and each must still converge to the
// right answer.
func TestConfigKnobs(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(16, 1), uniformLines(16, 1), uniformLines(5, 0.1))
	b := randRHS(a.N(), 11)
	ref, _, err := sparse.SolveCG(a, b, sparse.CGOptions{Tolerance: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []sparse.Config{
		{Backend: sparse.BackendMGCG},
		{Backend: sparse.BackendMGCG, MGPrecision: "float64"},
		{Backend: sparse.BackendMGCG, MGPrecision: "float32", Workers: 3},
	} {
		solver, err := cfg.New()
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		gs, ok := solver.(sparse.GridSolver)
		if !ok {
			t.Fatal("mg-cg must implement sparse.GridSolver")
		}
		gs.SetGridHint(hint)
		x := make([]float64, a.N())
		if _, err := solver.Solve(a, b, x); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if d := relDiff(x, ref); d > 1e-6 {
			t.Errorf("%+v: rel diff %.2e", cfg, d)
		}
	}
}

// TestErrors: solving without geometry, or with geometry that does not
// match the matrix, must fail with a descriptive error.
func TestErrors(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(8, 1), uniformLines(8, 1), uniformLines(4, 0.1))
	s := New(Options{})
	x := make([]float64, a.N())
	if _, err := s.Solve(a, randRHS(a.N(), 1), x); err == nil {
		t.Error("solve without a grid hint should error")
	}
	s.SetGridHint(sparse.GridHint{X: hint.X, Y: hint.Y, Z: uniformLines(5, 0.1)})
	if _, err := s.Solve(a, randRHS(a.N(), 1), x); err == nil {
		t.Error("mismatched grid hint should error")
	}
	if _, err := BuildHierarchy(a, sparse.GridHint{}, Options{}); err == nil {
		t.Error("empty hint should error")
	}
}

// TestWarmStart: seeding x with the solution must converge immediately.
func TestWarmStart(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(12, 1), uniformLines(12, 1), uniformLines(5, 0.1))
	b := randRHS(a.N(), 13)
	s := New(Options{})
	s.SetGridHint(hint)
	x := make([]float64, a.N())
	cold, err := s.Solve(a, b, x)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(a, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations/2+1 {
		t.Errorf("warm start took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
}
