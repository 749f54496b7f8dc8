package mg

import (
	"math"
	"math/rand"
	"strings"
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

// newSolver builds an mg-cg solver on a fresh hierarchy of a.
func newSolver(t testing.TB, a *sparse.CSR, hint sparse.GridHint, opts Options) *Solver {
	t.Helper()
	h, err := BuildHierarchy(a, hint, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(opts)
	s.SetHierarchy(h)
	return s
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

// numbering returns the row of cell (lateral line l, layer k) in level
// depth's operator, as the hierarchy documents it: the finest (the
// caller's matrix) layer-major, every coarser level z-line-major.
func numbering(lv *level, depth int) func(l, k int) int {
	if depth == 0 {
		return func(l, k int) int { return k*lv.nx*lv.ny + l }
	}
	return func(l, k int) int { return l*lv.nz + k }
}

// denseP materialises the interpolation from level depth+1 to level depth
// of h as a dense matrix, rows and columns in the two operators'
// numberings, from the lateral axis maps (z is never coarsened).
func denseP(h *Hierarchy, depth int) [][]float64 {
	lv, coarse := h.levels[depth], h.levels[depth+1]
	fine, crs := numbering(lv, depth), numbering(coarse, depth+1)
	nxc := lv.ix.nc
	p := make([][]float64, lv.n())
	for fj := 0; fj < lv.ny; fj++ {
		for fi := 0; fi < lv.nx; fi++ {
			for k := 0; k < lv.nz; k++ {
				row := make([]float64, coarse.n())
				addX := func(cj int, wy float64) {
					row[crs(cj*nxc+int(lv.ix.lo[fi]), k)] += wy * lv.ix.wlo[fi]
					if lv.ix.whi[fi] != 0 {
						row[crs(cj*nxc+int(lv.ix.hi[fi]), k)] += wy * lv.ix.whi[fi]
					}
				}
				addX(int(lv.iy.lo[fj]), lv.iy.wlo[fj])
				if lv.iy.whi[fj] != 0 {
					addX(int(lv.iy.hi[fj]), lv.iy.whi[fj])
				}
				p[fine(fj*lv.nx+fi, k)] = row
			}
		}
	}
	return p
}

// TestGalerkinMatchesExplicitTripleProduct verifies A_c = Pᵀ·A·P entry by
// entry on a small grid, with P materialised densely from the axis maps,
// for the layer-major finest level and a line-major one below it; and
// that each line-major coarse row stores its entries in ascending
// layer-major column order, the order a layer-major coarse operator sums
// them in.
func TestGalerkinMatchesExplicitTripleProduct(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(12, 1), uniformLines(10, 1), uniformLines(3, 0.1))
	h, err := BuildHierarchy(a, hint, Options{levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 3 {
		t.Fatalf("depth %d, want 3", h.Depth())
	}
	for depth := 0; depth < 2; depth++ {
		fineA, got := h.levels[depth].a, h.levels[depth+1].a
		nf, nc := fineA.N(), got.N()
		p := denseP(h, depth)
		// Dense Pᵀ·A·P.
		want := make([][]float64, nc)
		for i := range want {
			want[i] = make([]float64, nc)
		}
		for r := 0; r < nf; r++ {
			rc, rv := fineA.Row(r)
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
		var scale float64
		for i := 0; i < nc; i++ {
			if v := math.Abs(want[i][i]); v > scale {
				scale = v
			}
		}
		for i := 0; i < nc; i++ {
			for j := 0; j < nc; j++ {
				if d := math.Abs(got.At(i, j) - want[i][j]); d > 1e-12*scale {
					t.Fatalf("level %d: A_c(%d,%d) = %g, want %g", depth+1, i, j, got.At(i, j), want[i][j])
				}
			}
		}
		coarse := h.levels[depth+1]
		lines := coarse.nx * coarse.ny
		for i := 0; i < nc; i++ {
			cols, _ := got.Row(i)
			for q := 1; q < len(cols); q++ {
				prev, cur := int(cols[q-1]), int(cols[q])
				if prev%coarse.nz*lines+prev/coarse.nz >= cur%coarse.nz*lines+cur/coarse.nz {
					t.Fatalf("level %d row %d: columns %d, %d not in ascending layer-major order", depth+1, i, prev, cur)
				}
			}
		}
	}
}

// TestTransferAdjoint: prolongation must be the interpolation P the
// Galerkin product uses, in the line-major numbering of the V-cycle's
// vectors, and restriction its exact transpose — ⟨P·xc, r⟩ = ⟨xc, Pᵀ·r⟩
// — or the V-cycle loses symmetry and CG its convergence guarantee.
func TestTransferAdjoint(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(11, 1), uniformLines(9, 1), uniformLines(4, 0.1))
	h, err := BuildHierarchy(a, hint, Options{levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 3 {
		t.Fatalf("depth %d, want 3", h.Depth())
	}
	for depth := 0; depth < 2; depth++ {
		lv := h.levels[depth]
		w := withTransfer(&levelArrays[float64]{}, lv)
		nf, nc := lv.n(), h.levels[depth+1].n()
		xc := randRHS(nc, 1)
		r := randRHS(nf, 2)
		px := make([]float64, nf)
		prolongAdd(lv, w, px, xc)
		// The dense P in the operators' numberings, renumbered to the
		// vectors' line-major one (the finest level is layer-major).
		p := denseP(h, depth)
		fine := numbering(lv, depth)
		for fl := 0; fl < lv.nx*lv.ny; fl++ {
			for k := 0; k < lv.nz; k++ {
				want := sparse.Dot(p[fine(fl, k)], xc)
				if d := math.Abs(px[fl*lv.nz+k] - want); d > 1e-14*math.Max(math.Abs(want), 1) {
					t.Fatalf("level %d: (P·xc) at line %d layer %d = %g, want %g", depth, fl, k, px[fl*lv.nz+k], want)
				}
			}
		}
		ptr := make([]float64, nc)
		restrict(lv, w, ptr, r)
		lhs := sparse.Dot(px, r)
		rhs := sparse.Dot(xc, ptr)
		if math.Abs(lhs-rhs) > 1e-10*math.Max(math.Abs(lhs), 1) {
			t.Fatalf("level %d: transfer operators are not adjoint: %g vs %g", depth, lhs, rhs)
		}
	}
}

// TestMGCGMatchesJacobiCG: the new backend must land on the same solution
// as the reference backend on a discontinuous-material system.
func TestMGCGMatchesJacobiCG(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(20, 1), uniformLines(18, 1), uniformLines(6, 0.1))
	b := randRHS(a.N(), 42)
	ref := make([]float64, a.N())
	if _, err := (&sparse.CG{Tolerance: 1e-11}).Solve(a, b, ref); err != nil {
		t.Fatal(err)
	}
	s := newSolver(t, a, hint, Options{Tolerance: 1e-10})
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
		s := newSolver(t, a, hint, Options{Tolerance: 1e-9})
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
	fresh := newSolver(t, a, hint, Options{})
	want := make([]float64, a.N())
	if _, err := fresh.Solve(a, b, want); err != nil {
		t.Fatal(err)
	}
	for inst := 0; inst < 2; inst++ {
		s := New(Options{})
		s.SetHierarchy(h)
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

// TestConfigKnobs: every setting of the mg-cg knobs (precision,
// workers) must still converge to the right answer.
func TestConfigKnobs(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(16, 1), uniformLines(16, 1), uniformLines(5, 0.1))
	b := randRHS(a.N(), 11)
	ref := make([]float64, a.N())
	if _, err := (&sparse.CG{Tolerance: 1e-11}).Solve(a, b, ref); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Options{
		{},
		{Precision: PrecisionFloat64},
		{Precision: PrecisionFloat32, Workers: 3},
	} {
		solver := newSolver(t, a, hint, cfg)
		x := make([]float64, a.N())
		if _, err := solver.Solve(a, b, x); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if d := relDiff(x, ref); d > 1e-6 {
			t.Errorf("%+v: rel diff %.2e", cfg, d)
		}
	}
}

// TestErrors: solving without a hierarchy, on another matrix's
// hierarchy, or building one from geometry that does not match the
// matrix, must fail with a descriptive error, as must an unknown
// precision.
func TestErrors(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(8, 1), uniformLines(8, 1), uniformLines(4, 0.1))
	s := New(Options{})
	x := make([]float64, a.N())
	if _, err := s.Solve(a, randRHS(a.N(), 1), x); err == nil {
		t.Error("solve without a hierarchy should error")
	}
	other, otherHint := buildHeatSystem(t, uniformLines(8, 1), uniformLines(8, 1), uniformLines(4, 0.1))
	s.SetHierarchy(newSolver(t, other, otherHint, Options{}).hier)
	if _, err := s.Solve(a, randRHS(a.N(), 1), x); err == nil {
		t.Error("solve on another matrix's hierarchy should error")
	}
	if _, err := BuildHierarchy(a, sparse.GridHint{X: hint.X, Y: hint.Y, Z: uniformLines(5, 0.1)}, Options{}); err == nil {
		t.Error("mismatched grid hint should error")
	}
	if _, err := BuildHierarchy(a, sparse.GridHint{}, Options{}); err == nil {
		t.Error("empty hint should error")
	}
	bad := newSolver(t, a, hint, Options{Precision: "float16"})
	if _, err := bad.Solve(a, randRHS(a.N(), 1), x); err == nil || !strings.Contains(err.Error(), "float16") {
		t.Errorf("unknown precision: %v", err)
	}
	// The z-line smoother and the finest residual need every coupling to
	// reach one layer at most: couple layer 0 of one line to layer 2 of
	// the next (symmetric, diagonally dominant, so only the reach is
	// wrong).
	wide := sparse.NewCOO(a.N())
	for i := 0; i < a.N(); i++ {
		cols, vals := a.Row(i)
		for p, c := range cols {
			wide.Add(i, int(c), vals[p])
		}
	}
	far := 2*64 + 1
	wide.Add(0, far, -1)
	wide.Add(far, 0, -1)
	wide.Add(0, 0, 1)
	wide.Add(far, far, 1)
	if _, err := BuildHierarchy(wide.ToCSR(), hint, Options{}); err == nil || !strings.Contains(err.Error(), "more than one apart") {
		t.Errorf("a coupling two layers apart: %v", err)
	}
}

// TestWarmStart: seeding x with the solution must converge immediately.
func TestWarmStart(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(12, 1), uniformLines(12, 1), uniformLines(5, 0.1))
	b := randRHS(a.N(), 13)
	s := newSolver(t, a, hint, Options{})
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
