package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// buildLaplacian2D assembles the 5-point Laplacian on an nx×ny grid with a
// unit diagonal shift — SPD with bandwidth nx, the shape of a coarsest
// multigrid level.
func buildLaplacian2D(nx, ny int) *CSR {
	a := NewCOO(nx * ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			idx := j*nx + i
			a.Add(idx, idx, 5)
			if i > 0 {
				a.Add(idx, idx-1, -1)
			}
			if i < nx-1 {
				a.Add(idx, idx+1, -1)
			}
			if j > 0 {
				a.Add(idx, idx-nx, -1)
			}
			if j < ny-1 {
				a.Add(idx, idx+nx, -1)
			}
		}
	}
	return a.ToCSR()
}

// factorize analyses a under perm within maxEntries and factors it,
// returning the first error of either step.
func factorize(a *CSR, perm []int32, maxEntries int) (*SparseCholesky, error) {
	an, err := AnalyzeCholesky(a, perm, maxEntries)
	if err != nil {
		return nil, err
	}
	return an.Factor(a)
}

// relResidual returns ‖A·x − b‖/‖b‖.
func relResidual(a *CSR, x, b []float64) float64 {
	ax := make([]float64, a.N())
	a.MulVec(ax, x)
	num, den := 0.0, 0.0
	for i := range b {
		num += (ax[i] - b[i]) * (ax[i] - b[i])
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

// cholSolve overwrites b with A⁻¹·b through CholeskySolve, with fresh
// scratch.
func cholSolve(c *SparseCholesky, b []float64) {
	CholeskySolve(c, c.Values(), b, NewCholeskyScratch[float64](c))
}

func TestSparseCholeskySolve(t *testing.T) {
	a := buildLaplacian2D(9, 7)
	n := a.N()
	chol, err := factorize(a, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if chol.N() != n {
		t.Fatalf("N() = %d, want %d", chol.N(), n)
	}
	rng := rand.New(rand.NewSource(31))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	cholSolve(chol, b)
	for i := range b {
		if e := math.Abs(b[i] - xTrue[i]); e > 1e-10 {
			t.Fatalf("direct solve error %g at %d, want ≤ 1e-10", e, i)
		}
	}
}

// TestSparseCholeskyMatchesBand checks the sparse factor against a
// tightly converged CG reference on a 3D grid, and pins the property that
// made a dense-band Cholesky redundant: under the fill-reducing ordering
// the factor stores no more entries than the matrix's packed lower band
// n·(bw+1) would.
func TestSparseCholeskyMatchesBand(t *testing.T) {
	a := buildLaplacian3D(11, 7, 5)
	n := a.N()
	sp, err := factorize(a, nil, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ref := make([]float64, n)
	if _, err := (&CG{Tolerance: 1e-13}).Solve(a, b, ref); err != nil {
		t.Fatal(err)
	}
	xs := append([]float64(nil), b...)
	cholSolve(sp, xs)
	for i := range xs {
		if e := math.Abs(xs[i] - ref[i]); e > 1e-9 {
			t.Fatalf("sparse and CG solutions differ by %g at %d", e, i)
		}
	}
	bw := 0
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		bw = max(bw, i-int(cols[0]))
	}
	if band := n * (bw + 1); sp.Nnz() > band {
		t.Fatalf("sparse factor has %d entries, more than the %d-entry band", sp.Nnz(), band)
	}
}

func TestSparseCholeskyRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 5; trial++ {
		a := randomSPD(rng, 40)
		chol, err := factorize(a, nil, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.N())
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := append([]float64(nil), b...)
		cholSolve(chol, x)
		if rel := relResidual(a, x, b); rel > 1e-10 {
			t.Fatalf("trial %d: relative residual %g", trial, rel)
		}
	}
}

// TestSparseCholeskyPermRoundTrip factors under explicit shuffled
// orderings: the permutation must round-trip — solutions come back in
// original index order regardless of the factor ordering — and the
// recorded Perm must reproduce the input.
func TestSparseCholeskyPermRoundTrip(t *testing.T) {
	a := buildLaplacian2D(8, 6)
	n := a.N()
	rng := rand.New(rand.NewSource(97))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ref := append([]float64(nil), b...)
	chol, err := factorize(a, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cholSolve(chol, ref)
	for trial := 0; trial < 4; trial++ {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		pc, err := factorize(a, perm, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got := pc.Perm()
		for i := range perm {
			if got[i] != perm[i] {
				t.Fatalf("trial %d: Perm()[%d] = %d, want %d", trial, i, got[i], perm[i])
			}
		}
		x := append([]float64(nil), b...)
		cholSolve(pc, x)
		for i := range x {
			if e := math.Abs(x[i] - ref[i]); e > 1e-9 {
				t.Fatalf("trial %d: permuted solve differs by %g at %d", trial, e, i)
			}
		}
	}
}

func TestSparseCholeskyBadOrdering(t *testing.T) {
	a := buildLaplacian1D(5)
	if _, err := factorize(a, []int32{0, 1, 2}, 0); err == nil {
		t.Fatal("short ordering should be rejected")
	}
	if _, err := factorize(a, []int32{0, 1, 2, 2, 4}, 0); err == nil {
		t.Fatal("duplicate ordering entry should be rejected")
	}
	if _, err := factorize(a, []int32{0, 1, 2, 9, 4}, 0); err == nil {
		t.Fatal("out-of-range ordering entry should be rejected")
	}
	// An analysis factors only matrices of its own pattern.
	an, err := AnalyzeCholesky(a, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	diag := NewCOO(5)
	for i := range 5 {
		diag.Add(i, i, 1)
	}
	for _, other := range []*CSR{buildLaplacian1D(6), buildLaplacian2D(2, 2), diag.ToCSR()} {
		if _, err := an.Factor(other); err == nil {
			t.Fatalf("%d-row matrix with %d entries factored from a 5-row analysis of %d entries", other.N(), len(other.colIdx), len(a.colIdx))
		}
	}
}

func TestSparseCholeskyEntryCap(t *testing.T) {
	a := buildLaplacian2D(20, 20)
	full, err := factorize(a, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := factorize(a, full.Perm(), full.Nnz()-1); !errors.Is(err, ErrFactorTooLarge) {
		t.Fatalf("err = %v, want ErrFactorTooLarge", err)
	}
	if _, err := factorize(a, full.Perm(), full.Nnz()); err != nil {
		t.Fatalf("cap exactly at size should factor, got %v", err)
	}
	an, err := AnalyzeCholesky(a, full.Perm(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if an.Nnz() != full.Nnz() {
		t.Fatalf("symbolic count %d != factor entries %d", an.Nnz(), full.Nnz())
	}
	if _, err := AnalyzeCholesky(a, full.Perm(), full.Nnz()-1); !errors.Is(err, ErrFactorTooLarge) {
		t.Fatalf("analysis err = %v, want ErrFactorTooLarge", err)
	}
}

func TestSparseCholeskyNotPositiveDefinite(t *testing.T) {
	a := NewCOO(2)
	a.Add(0, 0, 1)
	a.Add(0, 1, 2)
	a.Add(1, 0, 2)
	a.Add(1, 1, 1) // eigenvalues 3 and -1: symmetric but indefinite
	if _, err := factorize(a.ToCSR(), nil, 1<<20); err == nil {
		t.Fatal("factoring an indefinite matrix should fail")
	}
}

// TestSparseCholeskyNaNPivot: a NaN reaching a pivot is refused with the
// pivot error, not left to spread through the factor.
func TestSparseCholeskyNaNPivot(t *testing.T) {
	a := buildLaplacian2D(4, 4)
	cols, vals := a.Row(5)
	for p, c := range cols {
		if c == 5 {
			vals[p] = math.NaN()
		}
	}
	if _, err := factorize(a, nil, 0); err == nil || !strings.Contains(err.Error(), "pivot") {
		t.Fatalf("err = %v, want the pivot error", err)
	}
}

func TestSparseCholeskySingular(t *testing.T) {
	// Singular: graph Laplacian with no diagonal shift (constant null
	// space). The last pivot collapses to ~0 and must be refused.
	n := 6
	a := NewCOO(n)
	for i := 0; i < n; i++ {
		if i > 0 {
			a.Add(i, i-1, -1)
			a.Add(i, i, 1)
		}
		if i < n-1 {
			a.Add(i, i+1, -1)
			a.Add(i, i, 1)
		}
	}
	if _, err := factorize(a.ToCSR(), nil, 1<<20); err == nil {
		t.Fatal("factoring a singular matrix should fail")
	}
}

// TestSparseCholesky32Mirror solves with a float32 mirror of the factor
// values through the generic CholeskySolve — the multigrid float32
// V-cycle's coarse solve — and requires it to stay within single-precision
// rounding of the float64 instantiation over the factor's own values.
func TestSparseCholesky32Mirror(t *testing.T) {
	a := buildLaplacian2D(12, 9)
	n := a.N()
	chol, err := factorize(a, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	vals32 := make([]float32, len(chol.Values()))
	for i, v := range chol.Values() {
		vals32[i] = float32(v)
	}
	rng := rand.New(rand.NewSource(11))
	b := make([]float64, n)
	b32 := make([]float32, n)
	for i := range b {
		b[i] = rng.NormFloat64()
		b32[i] = float32(b[i])
	}
	cholSolve(chol, b)
	CholeskySolve(chol, vals32, b32, NewCholeskyScratch[float32](chol))
	num, den := 0.0, 0.0
	for i := range b {
		d := float64(b32[i]) - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-5 {
		t.Fatalf("float32 mirror deviates from float64 solve by %g, want ≤ 1e-5", rel)
	}
}

// upLookingFactor is the reference numeric phase the supernodal
// factorisation replaced: row k of L solves the triangular system
// L(0:k,0:k)·l = a_k over the elimination-tree reach of row k's entries,
// appended column-wise so every column keeps its diagonal first and its
// rows ascending. It returns the structural entries of L in CSC layout:
// column j's rows and values at colPtr[j]:colPtr[j+1].
func upLookingFactor(t testing.TB, a *CSR, perm []int32) (colPtr []int, rowIdx []int32, values []float64) {
	t.Helper()
	n := a.N()
	perm, iperm, err := ordering(n, perm)
	if err != nil {
		t.Fatal(err)
	}
	parent, colPtr, err := cholSymbolic(a, perm, iperm, 0)
	if err != nil {
		t.Fatal(err)
	}
	rowIdx = make([]int32, colPtr[n])
	values = make([]float64, colPtr[n])
	colNext := make([]int, n)
	copy(colNext, colPtr)
	x := make([]float64, n)     // dense accumulator, zero outside the reach
	marked := make([]int32, n)  // ereach visit stamps (row k stamps with k+1)
	stack := make([]int32, n)   // ereach output, pattern in s[top:]
	pathBuf := make([]int32, n) // ereach path scratch
	for k := 0; k < n; k++ {
		d := 0.0
		cols, vals := a.Row(int(perm[k]))
		for p, col := range cols {
			if j := iperm[col]; j < int32(k) {
				x[j] = vals[p]
			} else if j == int32(k) {
				d = vals[p]
			}
		}
		top := ereach(a, perm, iperm, parent, k, marked, stack, pathBuf)
		for p := top; p < n; p++ {
			j := stack[p]
			lkj := x[j] / values[colPtr[j]]
			x[j] = 0
			for q := colPtr[j] + 1; q < colNext[j]; q++ {
				x[rowIdx[q]] -= values[q] * lkj
			}
			d -= lkj * lkj
			q := colNext[j]
			colNext[j]++
			rowIdx[q] = int32(k)
			values[q] = lkj
		}
		if d <= 0 {
			t.Fatalf("reference factor: pivot %g at permuted row %d", d, k)
		}
		q := colNext[k]
		colNext[k]++
		rowIdx[q] = int32(k)
		values[q] = math.Sqrt(d)
	}
	return colPtr, rowIdx, values
}

// cscPattern returns the structural pattern of L in CSC layout, diagonal
// first and rows ascending: row k's entries are the elimination-tree
// reach of its entries of the permuted A, appended as k ascends.
func cscPattern(t testing.TB, a *CSR, perm []int32) (colPtr []int, rowIdx []int32) {
	t.Helper()
	n := a.N()
	perm, iperm, err := ordering(n, perm)
	if err != nil {
		t.Fatal(err)
	}
	parent, colPtr, err := cholSymbolic(a, perm, iperm, 0)
	if err != nil {
		t.Fatal(err)
	}
	rowIdx = make([]int32, colPtr[n])
	next := slices.Clone(colPtr[:n])
	marked, stack, pathBuf := make([]int32, n), make([]int32, n), make([]int32, n)
	for k := 0; k < n; k++ {
		rowIdx[next[k]] = int32(k)
		next[k]++
		top := ereach(a, perm, iperm, parent, k, marked, stack, pathBuf)
		for _, j := range stack[top:n] {
			rowIdx[next[j]] = int32(k)
			next[j]++
		}
	}
	return colPtr, rowIdx
}

// trapezoidSlot returns where entry (r, j), r ≥ j, of L sits in c's
// values, or −1 when column j's trapezoid has no slot for row r.
func trapezoidSlot(c *SparseCholesky, r, j int32) int {
	an := c.an
	s := an.colSuper[j]
	l := an.sn[s+1]
	if r < l {
		return an.valPtr[j] + int(r-j)
	}
	q, ok := slices.BinarySearch(an.belowRows(s), r)
	if !ok {
		return -1
	}
	return an.valPtr[j] + int(l-j) + q
}

// structuralValues reads c's trapezoids by (row, column) at the CSC
// pattern colPtr/rowIdx and returns those values in CSC layout. It fails
// t if the pattern has an entry no trapezoid holds, or if a slot the
// pattern lacks holds anything but an exact zero.
func structuralValues(t testing.TB, c *SparseCholesky, colPtr []int, rowIdx []int32) []float64 {
	t.Helper()
	if c.Nnz() != len(rowIdx) {
		t.Fatalf("factor counts %d structural entries, the pattern has %d", c.Nnz(), len(rowIdx))
	}
	values := make([]float64, len(rowIdx))
	structural := make([]bool, len(c.values))
	for j := range c.n {
		for q := colPtr[j]; q < colPtr[j+1]; q++ {
			at := trapezoidSlot(c, rowIdx[q], int32(j))
			if at < 0 {
				t.Fatalf("entry (%d, %d) of L has no slot in its trapezoid", rowIdx[q], j)
			}
			structural[at] = true
			values[q] = c.values[at]
		}
	}
	for q, v := range c.values {
		if !structural[q] && math.Float64bits(v) != 0 {
			t.Fatalf("trapezoid slot %d lies outside the pattern but holds %v, want an exact 0", q, v)
		}
	}
	return values
}

// assertMatchesUpLooking factors a under perm and requires every
// structural entry within 1e-12·max|L| of the up-looking reference, read
// from the trapezoids by (row, column), and every other trapezoid slot
// an exact zero.
func assertMatchesUpLooking(t *testing.T, a *CSR, perm []int32) *SparseCholesky {
	t.Helper()
	c, err := factorize(a, perm, 0)
	if err != nil {
		t.Fatal(err)
	}
	colPtr, rowIdx, values := upLookingFactor(t, a, perm)
	got := structuralValues(t, c, colPtr, rowIdx)
	scale, worst := 0.0, 0.0
	for q, v := range values {
		scale = max(scale, math.Abs(v))
		worst = max(worst, math.Abs(got[q]-v))
	}
	if worst > 1e-12*scale {
		t.Fatalf("factor entries differ from the up-looking reference by %g, want ≤ 1e-12·%g", worst, scale)
	}
	t.Logf("n=%d entries=%d stored=%d: worst entry difference %.3g·max|L|", a.N(), c.Nnz(), len(c.values), worst/scale)
	return c
}

// columnSweep is the triangular solve the supernodal sweep replaced:
// with L's structural entries in CSC layout (colPtr, rowIdx, vals), it
// overwrites b with A⁻¹·b by a forward sweep over the columns left to
// right and a backward sweep right to left on b permuted by perm.
func columnSweep[F Float](perm []int32, colPtr []int, rowIdx []int32, vals, b []F) {
	n := len(perm)
	y := make([]F, n)
	for k, o := range perm {
		y[k] = b[o]
	}
	for j := 0; j < n; j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		yj := y[j] / vals[lo]
		y[j] = yj
		for q := lo + 1; q < hi; q++ {
			y[rowIdx[q]] -= vals[q] * yj
		}
	}
	for j := n - 1; j >= 0; j-- {
		lo, hi := colPtr[j], colPtr[j+1]
		s := y[j]
		for q := lo + 1; q < hi; q++ {
			s -= vals[q] * y[rowIdx[q]]
		}
		y[j] = s / vals[lo]
	}
	for k, o := range perm {
		b[o] = y[k]
	}
}

// assertSolveMatchesColumnSweep factors a under perm and requires
// CholeskySolve to reproduce the column sweep over the same factor bit
// for bit, in float64 and in float32 over the rounded values.
func assertSolveMatchesColumnSweep(t *testing.T, a *CSR, perm []int32) {
	t.Helper()
	n := a.N()
	c, err := factorize(a, perm, 0)
	if err != nil {
		t.Fatal(err)
	}
	colPtr, rowIdx := cscPattern(t, a, perm)
	csc := structuralValues(t, c, colPtr, rowIdx)
	csc32 := make([]float32, len(csc))
	for q, v := range csc {
		csc32[q] = float32(v)
	}
	vals32 := make([]float32, len(c.Values()))
	for q, v := range c.Values() {
		vals32[q] = float32(v)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	b := make([]float64, n)
	b32 := make([]float32, n)
	for i := range b {
		b[i] = rng.NormFloat64()
		b32[i] = float32(b[i])
	}
	want, want32 := slices.Clone(b), slices.Clone(b32)
	columnSweep(c.an.perm, colPtr, rowIdx, csc, want)
	columnSweep(c.an.perm, colPtr, rowIdx, csc32, want32)
	got, got32 := slices.Clone(b), slices.Clone(b32)
	CholeskySolve(c, c.Values(), got, NewCholeskyScratch[float64](c))
	CholeskySolve(c, vals32, got32, NewCholeskyScratch[float32](c))
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float32bits(got32[i]) != math.Float32bits(want32[i]) {
			t.Fatalf("entry %d is %v / %v (float32), the column sweep gives %v / %v", i, got[i], got32[i], want[i], want32[i])
		}
	}
	t.Logf("n=%d: %d supernodes", n, len(c.an.sn)-1)
}

// forestMatrix is an SPD matrix whose elimination tree is a forest:
// three grid Laplacians of different shapes with no coupling between
// them, numbered interleaved, so every component's columns mix with the
// others'.
func forestMatrix() *CSR {
	parts := []*CSR{buildLaplacian2D(9, 7), buildLaplacian2D(12, 5), buildLaplacian3D(4, 4, 3)}
	total := 0
	for _, p := range parts {
		total += p.N()
	}
	// index[c][i] is the global row of row i of part c: rows are dealt
	// round-robin over the parts that still have rows left.
	index := make([][]int, len(parts))
	for g, i := 0, 0; g < total; i++ {
		for c, p := range parts {
			if i < p.N() {
				index[c] = append(index[c], g)
				g++
			}
		}
	}
	a := NewCOO(total)
	for c, p := range parts {
		for i := range p.N() {
			cols, vals := p.Row(i)
			for q, col := range cols {
				a.Add(index[c][i], index[c][col], vals[q])
			}
		}
	}
	return a.ToCSR()
}

// TestCholeskySolveMatchesColumnSweep checks the supernodal solve
// against the column sweep bit for bit on a random SPD matrix, a 3D grid
// Laplacian, a forest and a matrix with supernodes wider than
// maxSupernode.
func TestCholeskySolveMatchesColumnSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, tc := range []struct {
		name string
		a    *CSR
	}{
		{"random-spd", randomSPD(rng, 400)},
		{"laplacian3d", buildLaplacian3D(11, 7, 5)},
		{"forest", forestMatrix()},
		{"wide-supernodes", wideSupernodeMatrix()},
	} {
		t.Run(tc.name, func(t *testing.T) { assertSolveMatchesColumnSweep(t, tc.a, nil) })
	}
}

// TestCholeskySolveConcurrent solves with one factor from several
// goroutines at once, each on its own scratch, and requires every result
// to equal the lone solve bit for bit (run it under -race).
func TestCholeskySolveConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 400)
	c, err := factorize(a, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const solvers = 4
	rhs := make([][]float64, solvers)
	want := make([][]float64, solvers)
	for i := range rhs {
		rhs[i] = make([]float64, a.N())
		for k := range rhs[i] {
			rhs[i][k] = rng.NormFloat64()
		}
		want[i] = slices.Clone(rhs[i])
		cholSolve(c, want[i])
	}
	var wg sync.WaitGroup
	errs := make([]error, solvers)
	for i := range solvers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewCholeskyScratch[float64](c)
			for range 5 {
				x := slices.Clone(rhs[i])
				CholeskySolve(c, c.Values(), x, s)
				if !slices.Equal(x, want[i]) {
					errs[i] = fmt.Errorf("solver %d: concurrent solve differs from the serial one", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCholeskySolveAllocs pins that a warm solve allocates nothing, in
// float64 and in float32: the V-cycle runs one per coarse correction.
func TestCholeskySolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own account")
	}
	a := buildLaplacian3D(11, 7, 5)
	c, err := factorize(a, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	vals32 := make([]float32, len(c.Values()))
	for q, v := range c.Values() {
		vals32[q] = float32(v)
	}
	b, b32 := make([]float64, a.N()), make([]float32, a.N())
	for i := range b {
		b[i] = float64(1 + i%7)
		b32[i] = float32(b[i])
	}
	s, s32 := NewCholeskyScratch[float64](c), NewCholeskyScratch[float32](c)
	if allocs := testing.AllocsPerRun(20, func() { CholeskySolve(c, c.Values(), b, s) }); allocs != 0 {
		t.Errorf("warm float64 solve allocates %.0f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { CholeskySolve(c, vals32, b32, s32) }); allocs != 0 {
		t.Errorf("warm float32 solve allocates %.0f objects, want 0", allocs)
	}
}

// wideSupernodeMatrix is an SPD matrix whose factor has a supernode
// wider than 64 columns: a 100-node clique, each node coupled to one of
// the first ten nodes of a 20×10 grid Laplacian numbered after it, so
// the clique's columns share one trapezoid and update the grid as wide
// descendants.
func wideSupernodeMatrix() *CSR {
	const clique = 100
	grid := buildLaplacian2D(20, 10)
	a := NewCOO(clique + grid.N())
	for i := 0; i < clique; i++ {
		for j := 0; j < clique; j++ {
			if i != j {
				a.Add(i, j, -0.01*float64(1+(i*j)%7))
			}
		}
		a.Add(i, i, 10)
		a.Add(i, clique+i%10, -0.5)
		a.Add(clique+i%10, i, -0.5)
	}
	for i := 0; i < grid.N(); i++ {
		cols, vals := grid.Row(i)
		for p, c := range cols {
			a.Add(clique+i, clique+int(c), vals[p])
		}
		if i < 10 {
			a.Add(clique+i, clique+i, 5) // dominance over the clique couplings
		}
	}
	return a.ToCSR()
}

// TestSparseCholeskyMatchesUpLooking checks the supernodal factor
// against the up-looking reference: the same CSC pattern, every entry
// within 1e-12·max|L|, and bit-identical values when factored again from
// one analysis.
func TestSparseCholeskyMatchesUpLooking(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	shuffled := make([]int32, 20*20)
	for i := range shuffled {
		shuffled[i] = int32(i)
	}
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cases := []struct {
		name string
		a    *CSR
		perm []int32
	}{
		{"empty", NewCOO(0).ToCSR(), nil},
		{"laplacian2d", buildLaplacian2D(9, 7), nil},
		{"laplacian2d-shuffled", buildLaplacian2D(20, 20), shuffled},
		{"laplacian3d", buildLaplacian3D(11, 7, 5), nil},
		{"wide-supernodes", wideSupernodeMatrix(), nil},
	}
	for trial := 0; trial < 3; trial++ {
		cases = append(cases, struct {
			name string
			a    *CSR
			perm []int32
		}{fmt.Sprintf("random-spd-%d", trial), randomSPD(rng, 60), nil})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := assertMatchesUpLooking(t, tc.a, tc.perm)
			an, err := AnalyzeCholesky(tc.a, tc.perm, 0)
			if err != nil {
				t.Fatal(err)
			}
			again, err := an.Factor(tc.a)
			if err != nil {
				t.Fatal(err)
			}
			for q, v := range again.Values() {
				if math.Float64bits(v) != math.Float64bits(c.values[q]) {
					t.Fatalf("factorisation differs at entry %d: %v vs %v", q, v, c.values[q])
				}
			}
		})
	}
	// The wide case must really exercise panels wider than factorPanel's
	// column block and a clique split at maxSupernode, whose pieces update
	// one another as descendants.
	a := wideSupernodeMatrix()
	perm, iperm, err := ordering(a.N(), nil)
	if err != nil {
		t.Fatal(err)
	}
	parent, colPtr, err := cholSymbolic(a, perm, iperm, 0)
	if err != nil {
		t.Fatal(err)
	}
	sn := supernodes(parent, colPtr)
	if len(sn) < 3 || sn[1] != maxSupernode || sn[2] < 100 || maxSupernode <= panelBlock {
		t.Fatalf("clique columns 0..99 start supernodes %v, want a full %d-column piece (> the %d-column block) and the rest in one more",
			sn[:min(3, len(sn))], maxSupernode, panelBlock)
	}
}
