package mg

import (
	"math"
	"slices"
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
// steady hierarchy's transfer operators and geometry, keep each level's
// numbering (layer-major finest, line-major below) and sparsity, keep
// every level symmetric with positive diagonals, carry the exact shifted
// fine matrix at level 0 when one is supplied, and raise each coarser
// diagonal by the restricted shift of its cell.
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
	// The shift carried down by restriction, in each level's line-major
	// numbering, computed cell by cell from the axis maps.
	lumped := make([]float64, len(shift))
	for k := 0; k < len(zl)-1; k++ {
		lines := (len(xl) - 1) * (len(yl) - 1)
		for l := 0; l < lines; l++ {
			lumped[l*(len(zl)-1)+k] = shift[k*lines+l]
		}
	}
	for l, lv := range sh.levels {
		st := steady.levels[l]
		if lv.ix != st.ix || lv.iy != st.iy {
			t.Errorf("level %d: transfer operators not shared with the steady hierarchy", l)
		}
		if lv.nx != st.nx || lv.ny != st.ny || lv.nz != st.nz {
			t.Errorf("level %d: geometry changed", l)
		}
		if lv.layerMajor != (l == 0) || st.layerMajor != (l == 0) {
			t.Errorf("level %d: layer-major %v (steady %v), want only the finest", l, lv.layerMajor, st.layerMajor)
		}
		for i := 0; i < lv.a.N(); i++ {
			got, _ := lv.a.Row(i)
			want, _ := st.a.Row(i)
			if !slices.Equal(got, want) {
				t.Fatalf("level %d row %d: columns %v, steady %v", l, i, got, want)
			}
		}
		if l > 0 {
			prev := sh.levels[l-1]
			next := make([]float64, lv.n())
			for fj := 0; fj < prev.ny; fj++ {
				for fi := 0; fi < prev.nx; fi++ {
					for k := 0; k < prev.nz; k++ {
						v := lumped[(fj*prev.nx+fi)*prev.nz+k]
						for yi, wy := range []float64{prev.iy.wlo[fj], prev.iy.whi[fj]} {
							cj := []int32{prev.iy.lo[fj], prev.iy.hi[fj]}[yi]
							for xi, wx := range []float64{prev.ix.wlo[fi], prev.ix.whi[fi]} {
								ci := []int32{prev.ix.lo[fi], prev.ix.hi[fi]}[xi]
								next[(int(cj)*prev.ix.nc+int(ci))*prev.nz+k] += v * wy * wx
							}
						}
					}
				}
			}
			lumped = next
			for i := 0; i < lv.a.N(); i++ {
				want := st.a.At(i, i) + lumped[i]
				if d := math.Abs(lv.a.At(i, i) - want); d > 1e-12*want {
					t.Fatalf("level %d row %d: shifted diagonal %g, want steady plus lumped shift %g", l, i, lv.a.At(i, i), want)
				}
			}
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
	ref := make([]float64, a.N())
	if _, err := (&sparse.CG{Tolerance: 1e-11}).Solve(fine, b, ref); err != nil {
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

	rebuilt := newSolver(t, fine, hint, Options{Tolerance: 1e-10})
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
