package mg

import (
	"fmt"
	"math"
	"slices"

	"vcselnoc/internal/sparse"
)

// galerkinReference is the per-row scatter product the per-line product
// replaced, kept as its reference: each coarse row (cl, k), in turn,
// scatters ((rw·a)·yw)·xw for every entry a of its fine rows — the fine
// rows in the order the adjoint stencils list them, each row's entries
// in stored order, the targets y-major — into a dense buffer keyed by
// layer-major coarse index (Gustavson's algorithm), then gathers the
// touched columns in ascending layer-major order, numbered line-major.
// It reads lv's operator and transfers alone, not its stencil.
func galerkinReference(lv *level) (*sparse.CSR, error) {
	ix, iy := lv.ix, lv.iy
	nxf, nz := lv.nx, lv.nz
	nxc := ix.nc
	lines := nxc * iy.nc
	nc := lines * nz
	scratch := make([]float64, nc)
	marked := make([]bool, nc)
	var touched []int32
	rowPtr := make([]int, 1, nc+1)
	var cols []int32
	var vals []float64

	// scatter adds w·a into the coarse columns derived from fine column c.
	scatter := func(c int, w float64) {
		fl, fk := lv.lineOf(c)
		fi, fj := fl%nxf, fl/nxf
		xw := [2]float64{ix.wlo[fi], ix.whi[fi]}
		xj := [2]int32{ix.lo[fi], ix.hi[fi]}
		yw := [2]float64{iy.wlo[fj], iy.whi[fj]}
		yj := [2]int32{iy.lo[fj], iy.hi[fj]}
		for yi := 0; yi < 2; yi++ {
			if yw[yi] == 0 {
				continue
			}
			for xi := 0; xi < 2; xi++ {
				if xw[xi] == 0 {
					continue
				}
				J := (fk*iy.nc+int(yj[yi]))*nxc + int(xj[xi])
				if !marked[J] {
					marked[J] = true
					touched = append(touched, int32(J))
				}
				scratch[J] += w * yw[yi] * xw[xi]
			}
		}
	}

	for cl := 0; cl < lines; cl++ {
		ci, cj := cl%nxc, cl/nxc
		for k := 0; k < nz; k++ {
			touched = touched[:0]
			for yi, fj := range iy.rev[cj] {
				wy := iy.revW[cj][yi]
				for xi, fi := range ix.rev[ci] {
					rw := ix.revW[ci][xi] * wy
					rc, rv := lv.a.Row(lv.cell(int(fj)*nxf+int(fi), k))
					for p := range rc {
						scatter(int(rc[p]), rw*rv[p])
					}
				}
			}
			slices.Sort(touched)
			for _, J := range touched {
				cols = append(cols, int32(int(J)%lines*nz+int(J)/lines))
				vals = append(vals, scratch[J])
				scratch[J] = 0
				marked[J] = false
			}
			rowPtr = append(rowPtr, len(cols))
		}
	}
	return sparse.NewCSRInRowOrder(nc, rowPtr, cols, vals)
}

// checkGalerkin compares every coarse operator of h, a hierarchy
// BuildHierarchy built, with galerkinReference of the level above it,
// bit for bit: row pointers, columns in stored order and values. It
// returns the first difference.
func checkGalerkin(h *Hierarchy) error {
	for l := 1; l < len(h.levels); l++ {
		want, err := galerkinReference(h.levels[l-1])
		if err != nil {
			return fmt.Errorf("level %d: reference product: %w", l, err)
		}
		got := h.levels[l].a
		if !slices.Equal(got.RowPtr(), want.RowPtr()) {
			return fmt.Errorf("level %d: row pointers differ from the reference product's", l)
		}
		if !slices.Equal(got.ColIdx(), want.ColIdx()) {
			return fmt.Errorf("level %d: columns differ from the reference product's", l)
		}
		gv := got.Values()
		for i, v := range want.Values() {
			if math.Float64bits(gv[i]) != math.Float64bits(v) {
				return fmt.Errorf("level %d: entry %d is %v, the reference product's %v", l, i, gv[i], v)
			}
		}
	}
	return nil
}
