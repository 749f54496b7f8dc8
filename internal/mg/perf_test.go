package mg

// Tests for the perf tier of the V-cycle: red-black line colouring,
// concurrent sweeps, mixed precision and the exact coarse solve.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"vcselnoc/internal/sparse"
)

// gradedLines builds a strongly graded axis: runs of fine cells separated
// by a coarse gap, the floorplan-style grading that stalls semicoarsening.
func gradedLines(fine int, fineW, gapW float64) []float64 {
	lines := []float64{0}
	at := 0.0
	for i := 0; i < fine; i++ {
		at += fineW
		lines = append(lines, at)
	}
	at += gapW
	lines = append(lines, at)
	for i := 0; i < fine; i++ {
		at += fineW
		lines = append(lines, at)
	}
	return lines
}

func testHierarchy(t testing.TB) (*Hierarchy, *sparse.CSR, sparse.GridHint) {
	t.Helper()
	xl := gradedLines(8, 1, 9)
	yl := uniformLines(12, 20)
	zl := uniformLines(9, 3)
	a, hint := buildHeatSystem(t, xl, yl, zl)
	h, err := BuildHierarchy(a, hint, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h, a, hint
}

// TestLineColoringValid checks, on every level, the defining property of
// the colour classes — no two same-colour lines share a matrix coupling —
// directly against the assembled operator, and that the finest level's
// 5-point lateral stencil gets the classic two colours.
func TestLineColoringValid(t *testing.T) {
	h, _, _ := testHierarchy(t)
	for li, lv := range h.levels {
		ls := lv.ls
		colorOf := make([]int, ls.lines)
		total := 0
		for c, lines := range ls.colors {
			for _, l := range lines {
				colorOf[l] = c
				total++
			}
		}
		if total != ls.lines {
			t.Fatalf("level %d: colour classes cover %d of %d lines", li, total, ls.lines)
		}
		n := lv.n()
		for idx := 0; idx < n; idx++ {
			line, _ := lv.lineOf(idx)
			cols, _ := lv.a.Row(idx)
			for _, c := range cols {
				other, _ := lv.lineOf(int(c))
				if other != line && colorOf[other] == colorOf[line] {
					t.Fatalf("level %d: coupled lines %d and %d share colour %d", li, line, other, colorOf[line])
				}
			}
		}
		if li == 0 && len(ls.colors) != 2 {
			t.Errorf("finest level got %d colours, want 2 for the 5-point lateral stencil", len(ls.colors))
		}
		t.Logf("level %d: %d lines in %d colours", li, ls.lines, len(ls.colors))
	}
}

// TestColoredSweepMatchesSerial hammers the shared smoothers of every
// level with many concurrent multi-worker sweeps (the -race target) and
// requires every result to be bit-identical to the single-worker sweep:
// same-colour lines share no coupling and each line writes only its own
// contiguous cells — its Thomas scratch included — so parallel
// relaxation must be deterministic, not merely close. The sweeps read the
// hierarchy's float64 cycle arrays, as a float64 V-cycle does.
func TestColoredSweepMatchesSerial(t *testing.T) {
	h, _, _ := testHierarchy(t)
	factor, err := h.coarseFactor()
	if err != nil {
		t.Fatal(err)
	}
	ca := newCycleArrays(h, factor, &h.family.f64)
	for li, lv := range h.levels {
		ls := lv.ls
		n := lv.n()
		b := randRHS(n, 7)

		arr := &ca.levels[li]
		sweep := func(x []float64, workers int) {
			sweepColored(ls, arr, x, b, workers, false)
			sweepColored(ls, arr, x, b, workers, true)
			sweepColored(ls, arr, x, b, workers, false)
		}
		ref := make([]float64, n)
		sweep(ref, 1)

		const hammers = 8
		var wg sync.WaitGroup
		errs := make([]int, hammers)
		for g := 0; g < hammers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				x := make([]float64, n)
				sweep(x, 4)
				for i := range x {
					if x[i] != ref[i] {
						errs[g]++
					}
				}
			}(g)
		}
		wg.Wait()
		for g, e := range errs {
			if e > 0 {
				t.Fatalf("level %d, hammer %d: %d cells differ from the serial sweep", li, g, e)
			}
		}
	}
}

// applyPrecond builds a fresh mg-cg preconditioner and applies it.
func applyPrecond(t *testing.T, a *sparse.CSR, hint sparse.GridHint, opts Options, r []float64) []float64 {
	t.Helper()
	s := newSolver(t, a, hint, opts)
	precond, err := s.preconditioner(a)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, len(r))
	precond(z, r)
	return z
}

// TestPreconditionerSPD checks the property the outer CG depends on: the
// V-cycle application is a symmetric operator, ⟨M⁻¹r₁, r₂⟩ = ⟨r₁, M⁻¹r₂⟩,
// for the red-black float64 cycle (exactly, up to roundoff) and for the
// float32 cycle (up to single-precision rounding).
func TestPreconditionerSPD(t *testing.T) {
	_, a, hint := testHierarchy(t)
	n := a.N()
	r1, r2 := randRHS(n, 11), randRHS(n, 13)
	for _, tc := range []struct {
		name string
		prec string
		tol  float64
	}{
		{"float64", precisionFloat64, 1e-12},
		{"float32", precisionFloat32, 1e-5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{precision: tc.prec, Workers: 4}
			z1 := applyPrecond(t, a, hint, opts, r1)
			z2 := applyPrecond(t, a, hint, opts, r2)
			d1 := sparse.Dot(z1, r2)
			d2 := sparse.Dot(r1, z2)
			denom := math.Max(math.Abs(d1), math.Abs(d2))
			if asym := math.Abs(d1-d2) / denom; asym > tc.tol {
				t.Fatalf("asymmetry ⟨M⁻¹r₁,r₂⟩ vs ⟨r₁,M⁻¹r₂⟩ = %g, want ≤ %g", asym, tc.tol)
			}
			if sparse.Dot(z1, r1) <= 0 {
				t.Fatal("⟨M⁻¹r, r⟩ ≤ 0: preconditioner not positive definite")
			}
		})
	}
}

// solveWith runs one converged mg-cg solve of h's matrix from a zero
// start and returns the result.
func solveWith(t *testing.T, h *Hierarchy, opts Options, b []float64) (sparse.Result, []float64) {
	t.Helper()
	a := h.Fine()
	x := make([]float64, a.N())
	res, err := New(h, opts).Solve(a, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("solve did not converge: %+v", res)
	}
	return res, x
}

// TestOrderingIterationPin pins the outer CG iteration counts of the
// red-black ordering to the lexicographic reference within ±1: the
// colour order changes the smoother slightly but must not degrade the
// preconditioner.
func TestOrderingIterationPin(t *testing.T) {
	h, a, _ := testHierarchy(t)
	b := randRHS(a.N(), 17)
	lex, xl := solveWith(t, h, Options{lex: true, precision: precisionFloat64, Tolerance: 1e-10}, b)
	rb, xr := solveWith(t, h, Options{precision: precisionFloat64, Tolerance: 1e-10, Workers: 4}, b)
	if d := rb.Iterations - lex.Iterations; d < -1 || d > 1 {
		t.Fatalf("red-black iterations %d vs lex %d: outside ±1", rb.Iterations, lex.Iterations)
	}
	if rd := relDiff(xr, xl); rd > 1e-8 {
		t.Fatalf("solutions diverge between orderings: rel diff %g", rd)
	}
}

// TestPrecisionIterationPin pins the float32 V-cycle's outer iteration
// count within +1 of the float64 baseline on the synthetic heat system
// and on the shifted (transient) hierarchy derived from it, and the two
// precisions' solutions within 1e-6 of each other. The thermal-model pin
// at preview and bench resolution lives in precision_pin_test.go.
func TestPrecisionIterationPin(t *testing.T) {
	h, a, hint := testHierarchy(t)
	sh, err := h.Shifted(shiftVector(hint.X, hint.Y, hint.Z))
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(a.N(), 19)
	for _, tc := range []struct {
		name string
		h    *Hierarchy
	}{{"steady", h}, {"shifted", sh}} {
		t.Run(tc.name, func(t *testing.T) {
			f64, x64 := solveWith(t, tc.h, Options{precision: precisionFloat64, Tolerance: 1e-8, Workers: 2}, b)
			f32, x32 := solveWith(t, tc.h, Options{precision: precisionFloat32, Tolerance: 1e-8, Workers: 2}, b)
			if f32.Iterations > f64.Iterations+1 {
				t.Fatalf("float32 iterations %d vs float64 %d: more than +1", f32.Iterations, f64.Iterations)
			}
			if rd := relDiff(x32, x64); rd > 1e-6 {
				t.Fatalf("solutions diverge between precisions: rel diff %g", rd)
			}
		})
	}
}

// TestPrecisionAuto pins the precision rule: loose outer tolerances on
// small-to-mid systems run the float32 cycle; tight tolerances and huge
// systems stay float64. The test hook overrides it either way.
func TestPrecisionAuto(t *testing.T) {
	const small = 1 << 10
	for _, tc := range []struct {
		opts Options
		n    int
		want string
	}{
		{Options{}, small, precisionFloat32},                            // default tol 1e-9
		{Options{Tolerance: 1e-8}, small, precisionFloat32},             // practical tol
		{Options{Tolerance: 1e-11}, small, precisionFloat64},            // near roundoff
		{Options{precision: precisionFloat64}, small, precisionFloat64}, // the hook wins
		{Options{Tolerance: 1e-11, precision: precisionFloat32}, small, precisionFloat32},
		{Options{Tolerance: 1e-8}, autoFloat32MaxCells, precisionFloat32},     // at the cap
		{Options{Tolerance: 1e-8}, autoFloat32MaxCells + 1, precisionFloat64}, // past the cap
		{Options{Tolerance: 1e-8, precision: precisionFloat32}, autoFloat32MaxCells + 1, precisionFloat32},
	} {
		if got := tc.opts.Precision(tc.n); got != tc.want {
			t.Errorf("Precision(%+v, n=%d) = %s, want %s", tc.opts, tc.n, got, tc.want)
		}
	}
}

// TestCoarseWorkersPlumbed pins the worker plumbing of the V-cycle
// workspace: Options.Workers must reach the residual products and, by
// their rule, each level's sweeps.
func TestCoarseWorkersPlumbed(t *testing.T) {
	h, _, _ := testHierarchy(t)
	factor, err := h.coarseFactor()
	if err != nil {
		t.Fatal(err)
	}
	ws := newWorkspace(h, newCycleArrays(h, factor, &h.family.f64), Options{Workers: 3})
	if ws.workers != 3 {
		t.Fatalf("workspace workers = %d, want 3", ws.workers)
	}
	for l, lv := range h.levels {
		if want := sparse.MulVecWorkers(lv.n(), 3); ws.sweepWorkers[l] != want {
			t.Fatalf("level %d sweeps on %d workers, want %d", l, ws.sweepWorkers[l], want)
		}
	}
}

// TestCoarseCholeskyMatchesIterative checks the exact coarse solve
// against an iterative reference on the coarsest-level operator.
func TestCoarseCholeskyMatchesIterative(t *testing.T) {
	h, _, _ := testHierarchy(t)
	lv := h.levels[len(h.levels)-1]
	chol, err := h.coarseFactor()
	if err != nil {
		t.Fatalf("coarsest level (n=%d) did not factor: %v", lv.n(), err)
	}
	b := randRHS(lv.n(), 23)
	x := append([]float64(nil), b...)
	cholSolve(chol, x)
	ref := make([]float64, lv.n())
	cg := &sparse.CG{Tolerance: 1e-13, MaxIterations: 100 * lv.n()}
	if _, err := cg.Solve(lv.a, b, ref); err != nil {
		t.Fatal(err)
	}
	if rd := relDiff(x, ref); rd > 1e-8 {
		t.Fatalf("direct and iterative coarse solutions differ: rel diff %g", rd)
	}
}

// workersTestSystem is the graded heat system the set-up's worker tests
// build on: a cluster of 0.5-wide cells among 10-wide ones, on which the
// lateral coarsening stalls once the cluster has merged into one 2-wide
// cell, leaving a large coarsest level, as on the thermal meshes. It is
// sized so that 4 workers split the finest smoother and the first
// Galerkin product.
func workersTestSystem(t testing.TB) (*sparse.CSR, sparse.GridHint) {
	graded := func(wide int) []float64 {
		lines := []float64{0, 0.5, 1, 1.5, 2}
		for i := 1; i <= wide; i++ {
			lines = append(lines, 2+10*float64(i))
		}
		return lines
	}
	return buildHeatSystem(t, graded(32), graded(28), uniformLines(9, 3))
}

// TestSetupWorkersBitIdentical builds one graded hierarchy and its coarse
// factor on 1, 2, 3 and 4 workers and requires the same bits from each:
// every level's operator arrays, line-smoother arrays, colour classes and
// packed off-line couplings in both precisions, those of the shifted
// hierarchy derived from it, and the factor's values. The mesh is sized
// so that every parallel path really splits: the finest smoother and the
// first Galerkin product run on all the workers.
func TestSetupWorkersBitIdentical(t *testing.T) {
	a, hint := workersTestSystem(t)
	shift := shiftVector(hint.X, hint.Y, hint.Z)
	type build struct {
		h, sh  *Hierarchy
		factor *sparse.SparseCholesky
	}
	builds := make([]build, 4)
	for w := range builds {
		workers := w + 1
		h, err := BuildHierarchy(a, hint, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := h.Shifted(shift)
		if err != nil {
			t.Fatal(err)
		}
		factor, err := h.coarseFactor()
		if err != nil {
			t.Fatal(err)
		}
		for _, hh := range []*Hierarchy{h, sh} {
			for _, prec := range []string{precisionFloat64, precisionFloat32} {
				if _, err := New(hh, Options{precision: prec}).preconditioner(hh.Fine()); err != nil {
					t.Fatal(err)
				}
			}
		}
		builds[w] = build{h, sh, factor}
		smooth, product := sparse.MulVecWorkers(h.levels[0].n(), workers), sparse.MulVecWorkers(h.levels[1].n(), workers)
		if smooth != workers || product != workers {
			t.Fatalf("%d workers: finest smoother on %d, first Galerkin product on %d", workers, smooth, product)
		}
		if h.PhaseStats().Hierarchy <= 0 || sh.PhaseStats().Hierarchy <= 0 {
			t.Fatalf("%d workers: Hierarchy phase %v, shifted %v; want the build times", workers, h.PhaseStats().Hierarchy, sh.PhaseStats().Hierarchy)
		}
	}
	ref := builds[0]
	t.Logf("%d levels, coarsest %d cells, factor %d entries", ref.h.Depth(), ref.h.CoarseOperator().N(), ref.factor.Nnz())
	for w, b := range builds[1:] {
		workers := w + 2
		for _, pair := range [][2]*Hierarchy{{ref.h, b.h}, {ref.sh, b.sh}} {
			if len(pair[0].levels) != len(pair[1].levels) {
				t.Fatalf("%d workers: %d levels, want %d", workers, len(pair[1].levels), len(pair[0].levels))
			}
			for l, want := range pair[0].levels {
				got := pair[1].levels[l]
				where := fmt.Sprintf("%d workers, level %d", workers, l)
				sameBits(t, where+" rowPtr", want.a.RowPtr(), got.a.RowPtr())
				sameBits(t, where+" colIdx", want.a.ColIdx(), got.a.ColIdx())
				sameBits(t, where+" values", want.a.Values(), got.a.Values())
				sameBits(t, where+" subL", want.ls.subL, got.ls.subL)
				sameBits(t, where+" cpL", want.ls.cpL, got.ls.cpL)
				sameBits(t, where+" invL", want.ls.invL, got.ls.invL)
				sameBits(t, where+" offPtr", want.ls.offPtr, got.ls.offPtr)
				sameBits(t, where+" offCol", want.ls.offCol, got.ls.offCol)
				sameBits(t, where+" float64 off", pair[0].f64.levels[l].off, pair[1].f64.levels[l].off)
				sameBits(t, where+" float32 off", pair[0].f32.levels[l].off, pair[1].f32.levels[l].off)
				if len(want.ls.colors) != len(got.ls.colors) {
					t.Fatalf("%s: %d colours, want %d", where, len(got.ls.colors), len(want.ls.colors))
				}
				for c := range want.ls.colors {
					sameBits(t, fmt.Sprintf("%s colour %d", where, c), want.ls.colors[c], got.ls.colors[c])
				}
			}
		}
		sameBits(t, fmt.Sprintf("%d workers: factor values", workers), ref.factor.Values(), b.factor.Values())
	}
}

// sameBits fails t unless got holds exactly the bits of want.
func sameBits[T int | int32 | float32 | float64](t *testing.T, what string, want, got []T) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	bits := func(v T) uint64 {
		switch f := any(v).(type) {
		case float64:
			return math.Float64bits(f)
		case float32:
			return uint64(math.Float32bits(f))
		}
		return uint64(v)
	}
	for i := range want {
		if bits(want[i]) != bits(got[i]) {
			t.Fatalf("%s: entry %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestPackedCouplingsMatchOperator: every precision's packed store holds,
// at each slot of a level's smoother, the operator entry that couples
// the slot's cell to the cell offCol names there, rounded to the
// precision, and the float64 cycle reads the operator values and Thomas
// coefficients in place.
func TestPackedCouplingsMatchOperator(t *testing.T) {
	h, a, _ := testHierarchy(t)
	b := randRHS(a.N(), 31)
	for _, prec := range []string{precisionFloat64, precisionFloat32} {
		if _, err := New(h, Options{precision: prec}).Solve(a, b, make([]float64, a.N())); err != nil {
			t.Fatal(err)
		}
	}
	for l, lv := range h.levels {
		ls := lv.ls
		off64, off32 := h.f64.levels[l].off, h.f32.levels[l].off
		if len(off64) != len(ls.offCol) || len(off32) != len(ls.offCol) {
			t.Fatalf("level %d: %d float64 and %d float32 packed values for %d couplings", l, len(off64), len(off32), len(ls.offCol))
		}
		for j := 0; j < lv.n(); j++ {
			row := lv.cell(j/ls.nz, j%ls.nz)
			for q := ls.offPtr[j]; q < ls.offPtr[j+1]; q++ {
				col := lv.cell(int(ls.offCol[q])/ls.nz, int(ls.offCol[q])%ls.nz)
				want := lv.a.At(row, col)
				if want == 0 || off64[q] != want || off32[q] != float32(want) {
					t.Fatalf("level %d cell %d slot %d: packed %g / %g, operator entry (%d, %d) %g",
						l, j, q, off64[q], off32[q], row, col, want)
				}
			}
		}
		f64 := h.f64.levels[l]
		if !sameArray(f64.a, lv.a.Values()) || !sameArray(f64.sub, ls.subL) || !sameArray(f64.cp, ls.cpL) || !sameArray(f64.inv, ls.invL) {
			t.Errorf("level %d: the float64 cycle copies the hierarchy's values", l)
		}
	}
}

// TestCycleArraysBuiltOnce: each precision's cycle arrays, the packed
// couplings included, are built once per hierarchy by its first solve of
// that precision and shared by every later solver of it, and a
// hierarchy that solved in float32 alone holds no float64 packed
// couplings.
func TestCycleArraysBuiltOnce(t *testing.T) {
	h, a, _ := testHierarchy(t)
	b := randRHS(a.N(), 37)
	solve := func(prec string) {
		t.Helper()
		if _, err := New(h, Options{precision: prec, Workers: 2}).Solve(a, b, make([]float64, a.N())); err != nil {
			t.Fatal(err)
		}
	}
	if fp := FootprintOf(h); fp.Packed64 != 0 || fp.Packed32 != 0 || fp.Float32 != 0 || h.PhaseStats().CycleArrays != 0 {
		t.Fatalf("fresh hierarchy: footprint %+v, CycleArrays %v; want no cycle arrays", fp, h.PhaseStats().CycleArrays)
	}
	solve(precisionFloat32)
	solve(precisionFloat32)
	fp32 := FootprintOf(h)
	if h.family.f64.levels != nil || h.f64 != nil || fp32.Packed64 != 0 {
		t.Fatalf("float32 solves left float64 packed couplings (%d bytes)", fp32.Packed64)
	}
	if fp32.Packed32 <= 0 || fp32.Float32 <= 0 || h.PhaseStats().CycleArrays <= 0 {
		t.Fatalf("after float32 solves: footprint %+v, CycleArrays %v", fp32, h.PhaseStats().CycleArrays)
	}
	solve(precisionFloat64)
	arr, packed, fp := h.f64, h.family.f64.levels, FootprintOf(h)
	charged := h.PhaseStats().CycleArrays
	var offBytes int64
	for _, lv := range h.levels {
		offBytes += 8 * int64(len(lv.ls.offCol))
	}
	if fp.Packed64 != offBytes || fp.Float32 != fp32.Float32 || fp.Values != fp32.Values {
		t.Fatalf("after a float64 solve: footprint %+v, want %d packed float64 bytes and nothing else new (was %+v)", fp, offBytes, fp32)
	}
	solve(precisionFloat64)
	if h.f64 != arr || &h.family.f64.levels[0] != &packed[0] || FootprintOf(h) != fp || h.PhaseStats().CycleArrays != charged {
		t.Fatal("a second float64 solver rebuilt the cycle arrays")
	}
	if s := h.PhaseStats(); s.Total() != s.Smooth+s.Restrict+s.Prolong+s.Coarse {
		t.Fatal("Total includes the CycleArrays phase")
	}
}

// sameArray reports whether a and b are one backing array.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
