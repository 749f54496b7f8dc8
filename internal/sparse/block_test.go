package sparse

import (
	"errors"
	"math"
	"testing"
)

// TestMulVecBlockNMatchesColumns: the interleaved block product must equal
// per-column MulVec for every worker count.
func TestMulVecBlockNMatchesColumns(t *testing.T) {
	m := buildLaplacian3D(14, 11, 6)
	n := m.N()
	const s = 4
	x := make([]float64, n*s)
	cols := make([][]float64, s)
	for c := 0; c < s; c++ {
		cols[c] = rhsFor(n, int64(60+c))
		for i := 0; i < n; i++ {
			x[i*s+c] = cols[c][i]
		}
	}
	want := make([][]float64, s)
	for c := 0; c < s; c++ {
		want[c] = make([]float64, n)
		m.MulVecN(want[c], cols[c], 1)
	}
	for _, workers := range []int{0, 1, 3, 8} {
		dst := make([]float64, n*s)
		m.MulVecBlockN(dst, x, s, workers)
		for c := 0; c < s; c++ {
			for i := 0; i < n; i++ {
				if dst[i*s+c] != want[c][i] {
					t.Fatalf("workers=%d col %d row %d: block %g vs column %g",
						workers, c, i, dst[i*s+c], want[c][i])
				}
			}
		}
	}
}

// TestBlockCGMatchesCG: the block solve over several right-hand sides must
// land on the same solutions as independent preconditioned CG runs.
func TestBlockCGMatchesCG(t *testing.T) {
	m := buildLaplacian3D(12, 10, 7)
	n := m.N()
	bs := make([][]float64, 4)
	for c := range bs {
		bs[c] = rhsFor(n, int64(7*c+1))
	}
	precond, err := (&CG{}).Preconditioner(m)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, len(bs))
	for c := range xs {
		xs[c] = make([]float64, n)
	}
	results, err := BlockCG(m, bs, xs, []func(z, r []float64){precond}, 1e-10, 0, 1)
	if err != nil {
		t.Fatalf("block: %v", err)
	}
	for c := range bs {
		if !results[c].Converged {
			t.Fatalf("column %d did not converge", c)
		}
		want, _, err := SolveCG(m, bs[c], CGOptions{Tolerance: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(xs[c], want); d > 1e-7 {
			t.Errorf("column %d: block vs CG rel diff %.2e", c, d)
		}
	}
}

// TestBlockCGPerColumnPreconds: per-column preconditioners (applied
// concurrently) must reproduce the shared-preconditioner solve exactly —
// the contract the parallel multigrid block path relies on. Run under
// -race this is also the data-race check for the concurrent application.
func TestBlockCGPerColumnPreconds(t *testing.T) {
	m := buildLaplacian3D(11, 9, 6)
	n := m.N()
	bs := make([][]float64, 4)
	for c := range bs {
		bs[c] = rhsFor(n, int64(11*c+2))
	}
	shared, err := (&CG{}).Preconditioner(m)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(bs))
	for c := range want {
		want[c] = make([]float64, n)
	}
	wantRes, err := BlockCG(m, bs, want, []func(z, r []float64){shared}, 1e-10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	preconds := make([]func(z, r []float64), len(bs))
	for c := range preconds {
		if preconds[c], err = (&CG{}).Preconditioner(m); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]float64, len(bs))
	for c := range got {
		got[c] = make([]float64, n)
	}
	gotRes, err := BlockCG(m, bs, got, preconds, 1e-10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := range bs {
		if gotRes[c].Iterations != wantRes[c].Iterations {
			t.Errorf("column %d: %d iterations per-column vs %d shared", c, gotRes[c].Iterations, wantRes[c].Iterations)
		}
		for i := range got[c] {
			if got[c][i] != want[c][i] {
				t.Fatalf("column %d entry %d: per-column %g vs shared %g", c, i, got[c][i], want[c][i])
			}
		}
	}
	if _, err := BlockCG(m, bs, got, preconds[:2], 1e-10, 0, 1); err == nil {
		t.Error("mismatched preconditioner count should error")
	}
}

// TestBlockCGSharedDirections: identical right-hand sides are the worst
// case for rank — the solver must either solve them or report a breakdown
// the caller can fall back from, never return a wrong answer silently.
func TestBlockCGSharedDirections(t *testing.T) {
	m := buildLaplacian3D(8, 8, 5)
	n := m.N()
	b := rhsFor(n, 3)
	bs := [][]float64{b, append([]float64(nil), b...)}
	xs := [][]float64{make([]float64, n), make([]float64, n)}
	solver := &CG{}
	precond, err := solver.Preconditioner(m)
	if err != nil {
		t.Fatal(err)
	}
	results, err := BlockCG(m, bs, xs, []func(z, r []float64){precond}, 1e-10, 0, 1)
	if err != nil {
		if !errors.Is(err, ErrBlockBreakdown) {
			t.Fatalf("unexpected error kind: %v", err)
		}
		return // breakdown correctly reported
	}
	want, _, err := SolveCG(m, b, CGOptions{Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for c := range xs {
		if !results[c].Converged {
			t.Fatalf("column %d did not converge", c)
		}
		if d := relDiff(xs[c], want); d > 1e-7 {
			t.Errorf("column %d rel diff %.2e", c, d)
		}
	}
}

// TestBlockCGZeroColumn: a zero right-hand side must come back as x = 0
// without poisoning the other columns.
func TestBlockCGZeroColumn(t *testing.T) {
	m := buildLaplacian3D(9, 8, 4)
	n := m.N()
	bs := [][]float64{rhsFor(n, 5), make([]float64, n)}
	xs := [][]float64{make([]float64, n), rhsFor(n, 6)} // non-zero seed on the zero column
	solver := &CG{}
	precond, err := solver.Preconditioner(m)
	if err != nil {
		t.Fatal(err)
	}
	results, err := BlockCG(m, bs, xs, []func(z, r []float64){precond}, 1e-10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range xs[1] {
		if v != 0 {
			t.Fatalf("zero column entry %d = %g, want 0", i, v)
		}
	}
	if !results[0].Converged || !results[1].Converged {
		t.Error("both columns should converge")
	}
	want, _, err := SolveCG(m, bs[0], CGOptions{Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(xs[0], want); d > 1e-7 {
		t.Errorf("non-zero column rel diff %.2e", d)
	}
}

// TestBlockCGBestIterateOnNonConvergence mirrors the single-RHS contract:
// a starved iteration budget must leave the best iterates in place.
func TestBlockCGBestIterateOnNonConvergence(t *testing.T) {
	m := buildLaplacian3D(12, 12, 6)
	n := m.N()
	bs := [][]float64{rhsFor(n, 8), rhsFor(n, 9)}
	xs := [][]float64{make([]float64, n), make([]float64, n)}
	solver := &CG{}
	precond, err := solver.Preconditioner(m)
	if err != nil {
		t.Fatal(err)
	}
	results, err := BlockCG(m, bs, xs, []func(z, r []float64){precond}, 1e-14, 3, 1)
	if err == nil {
		t.Fatal("expected non-convergence error")
	}
	if errors.Is(err, ErrBlockBreakdown) {
		t.Fatalf("budget exhaustion misreported as breakdown: %v", err)
	}
	for c, res := range results {
		if res.Iterations != 3 {
			t.Errorf("column %d iterations = %d, want 3", c, res.Iterations)
		}
		if res.Residual <= 0 || res.Residual >= 1 {
			t.Errorf("column %d residual %.2e outside (0, 1)", c, res.Residual)
		}
	}
}

// TestPCGExportedMatchesSolve: the exported PCG engine with a Jacobi
// preconditioner must reproduce CG.Solve bit-for-bit.
func TestPCGExportedMatchesSolve(t *testing.T) {
	m := buildLaplacian3D(10, 9, 5)
	b := rhsFor(m.N(), 17)
	want := make([]float64, m.N())
	if _, err := (&CG{}).Solve(m, b, want); err != nil {
		t.Fatal(err)
	}
	solver := &CG{}
	precond, err := solver.Preconditioner(m)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, m.N())
	res, err := PCG(m, b, got, solver.Workspace, precond, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("PCG did not converge")
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("entry %d: PCG %g vs Solve %g", i, got[i], want[i])
		}
	}
}
