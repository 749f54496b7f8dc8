package mg

import (
	"math"
	"testing"

	"vcselnoc/internal/sparse"
)

// shiftVector builds a positive diagonal shift shaped like an
// implicit-Euler capacity term C/dt: proportional to cell volume with a
// material contrast in the middle z band.
func shiftVector(xl, yl, zl []float64) []float64 {
	nx, ny, nz := len(xl)-1, len(yl)-1, len(zl)-1
	d := make([]float64, nx*ny*nz)
	for k := 0; k < nz; k++ {
		rc := 1.6e6
		if k >= nz/3 && k < 2*nz/3 {
			rc = 3.4e6
		}
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				vol := (xl[i+1] - xl[i]) * (yl[j+1] - yl[j]) * (zl[k+1] - zl[k])
				// A long dt keeps the shift comparable to the conduction
				// couplings, so the V-cycle still has real work to do.
				d[(k*ny+j)*nx+i] = rc * vol / 5e4
			}
		}
	}
	return d
}

// TestShiftedHierarchyInvariants: a shifted hierarchy must share the
// steady hierarchy's transfer operators and geometry, keep every level
// symmetric with positive diagonals, and carry the exact shifted fine
// matrix at level 0 when one is supplied.
func TestShiftedHierarchyInvariants(t *testing.T) {
	xl, yl, zl := uniformLines(24, 1), uniformLines(20, 1), uniformLines(7, 0.1)
	a, hint := buildHeatSystem(t, xl, yl, zl)
	steady, err := BuildHierarchy(a, hint, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shift := shiftVector(xl, yl, zl)
	fine := sparse.AddDiagonal(a, shift)
	sh, err := steady.Shifted(fine, shift)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Depth() != steady.Depth() {
		t.Fatalf("shifted depth %d != steady depth %d", sh.Depth(), steady.Depth())
	}
	if sh.Fine() != fine {
		t.Error("Shifted must adopt the supplied fine matrix")
	}
	for l, lv := range sh.levels {
		st := steady.levels[l]
		if lv.ix != st.ix || lv.iy != st.iy || lv.iz != st.iz {
			t.Errorf("level %d: transfer operators not shared with the steady hierarchy", l)
		}
		if lv.nx != st.nx || lv.ny != st.ny || lv.nz != st.nz {
			t.Errorf("level %d: geometry changed", l)
		}
		if !lv.a.IsSymmetric(1e-9 * lv.a.At(0, 0)) {
			t.Errorf("level %d: shifted operator not symmetric", l)
		}
		for i := 0; i < lv.a.N(); i++ {
			if lv.a.At(i, i) <= st.a.At(i, i) {
				t.Fatalf("level %d row %d: shifted diagonal %g not above steady %g",
					l, i, lv.a.At(i, i), st.a.At(i, i))
			}
		}
	}
}

// TestShiftedHierarchySolves: CG preconditioned by the shifted V-cycle
// must land on the reference solution of A + diag(shift) and converge in
// about as few iterations as a hierarchy rebuilt from scratch for the
// shifted matrix — the property that lets transient steps reuse the
// steady Galerkin setup.
func TestShiftedHierarchySolves(t *testing.T) {
	xl, yl, zl := uniformLines(32, 1), uniformLines(28, 1), uniformLines(6, 0.1)
	a, hint := buildHeatSystem(t, xl, yl, zl)
	shift := shiftVector(xl, yl, zl)
	fine := sparse.AddDiagonal(a, shift)
	b := randRHS(a.N(), 17)
	ref, _, err := sparse.SolveCG(fine, b, sparse.CGOptions{Tolerance: 1e-11})
	if err != nil {
		t.Fatal(err)
	}

	steady, err := BuildHierarchy(a, hint, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := steady.Shifted(fine, shift)
	if err != nil {
		t.Fatal(err)
	}
	shared := New(Options{Tolerance: 1e-10})
	shared.SetHierarchy(sh)
	got := make([]float64, a.N())
	res, err := shared.Solve(fine, b, got)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("shifted mg-cg did not converge")
	}
	if d := relDiff(got, ref); d > 1e-6 {
		t.Errorf("shifted mg-cg vs jacobi-cg rel diff %.2e > 1e-6", d)
	}

	rebuilt := New(Options{Tolerance: 1e-10})
	rebuilt.SetGridHint(hint)
	x := make([]float64, a.N())
	full, err := rebuilt.Solve(fine, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > full.Iterations+2 {
		t.Errorf("shifted hierarchy took %d iterations vs %d for a full rebuild",
			res.Iterations, full.Iterations)
	}
	t.Logf("shifted %d iterations, full rebuild %d", res.Iterations, full.Iterations)
}

// TestShiftedErrors: bad shift vectors and size mismatches must refuse.
func TestShiftedErrors(t *testing.T) {
	a, hint := buildHeatSystem(t, uniformLines(8, 1), uniformLines(8, 1), uniformLines(4, 0.1))
	h, err := BuildHierarchy(a, hint, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Shifted(nil, make([]float64, 3)); err == nil {
		t.Error("wrong shift length should error")
	}
	bad := make([]float64, a.N())
	bad[5] = -1
	if _, err := h.Shifted(nil, bad); err == nil {
		t.Error("negative shift should error")
	}
	bad[5] = math.NaN()
	if _, err := h.Shifted(nil, bad); err == nil {
		t.Error("NaN shift should error")
	}
	bad[5] = math.Inf(1) // C/dt of a subnormal dt
	if _, err := h.Shifted(nil, bad); err == nil {
		t.Error("infinite shift should error")
	}
	if _, err := h.Shifted(sparse.NewCOO(3).ToCSR(), make([]float64, a.N())); err == nil {
		t.Error("mismatched fine matrix should error")
	}
}
