package sparse_test

import (
	"testing"

	"vcselnoc/internal/fvm"
	"vcselnoc/internal/mesh"
	"vcselnoc/internal/sparse"
	"vcselnoc/internal/thermal"
)

// TestSparseCholeskyGradedCoarseLevel factors the operator the factor
// exists for — the coarsest level mg-cg builds for an fvm conduction
// system on a laterally graded mesh with a high-conductivity slab, a
// Galerkin operator under the hierarchy's nested-dissection ordering —
// and checks it against the up-looking reference, and its solve against
// the column sweep.
func TestSparseCholeskyGradedCoarseLevel(t *testing.T) {
	// A cluster of 0.5-wide cells in a plane of 10-wide ones: the
	// cluster merges up to one 2-wide cell, which no 10-wide neighbour
	// may then join, so the lateral coarsening stalls at 17×13 cells as
	// it does on the device-graded thermal meshes.
	graded := func(wide int) []float64 {
		lines := []float64{0, 0.5, 1, 1.5, 2}
		for i := 1; i <= wide; i++ {
			lines = append(lines, 2+10*float64(i))
		}
		return lines
	}
	xl, yl := graded(16), graded(12)
	zl := make([]float64, 10)
	for k := range zl {
		zl[k] = 0.3 * float64(k)
	}
	g, err := mesh.NewGrid(xl, yl, zl)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumCells()
	cond := make([]float64, n)
	for c := range cond {
		cond[c] = 1.2
		if k := c / ((len(xl) - 1) * (len(yl) - 1)); k >= 3 && k < 6 {
			cond[c] = 120
		}
	}
	film := fvm.Boundary{Type: fvm.Convection, H: 15, Value: 25}
	sys, err := fvm.NewSystem(&fvm.Problem{Grid: g, Conductivity: cond, Power: make([]float64, n), ZMin: film, ZMax: film})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	a := h.CoarseOperator()
	t.Logf("fine %d cells, %d levels, coarsest %d cells", n, h.Depth(), a.N())
	sparse.AssertMatchesUpLooking(t, a, h.CoarseOrdering())
	sparse.AssertSolveMatchesColumnSweep(t, a, h.CoarseOrdering())
}

// TestCholeskySolvePreviewCoarseLevel checks the supernodal solve
// against the column sweep, bit for bit, on the coarsest level of the
// preview thermal model, the factor every preview V-cycle solves with.
func TestCholeskySolvePreviewCoarseLevel(t *testing.T) {
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.PreviewResolution()
	m, err := thermal.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.System().Hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	sparse.AssertSolveMatchesColumnSweep(t, h.CoarseOperator(), h.CoarseOrdering())
}
