package sparse

import (
	"errors"
	"math"
	"math/rand"
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

func TestSparseCholeskySolve(t *testing.T) {
	a := buildLaplacian2D(9, 7)
	n := a.N()
	chol, err := NewSparseCholesky(a, nil, 1<<20)
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
	chol.SolveInPlace(b)
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
	sp, err := NewSparseCholesky(a, nil, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ref, _, err := SolveCG(a, b, CGOptions{Tolerance: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	xs := append([]float64(nil), b...)
	sp.SolveInPlace(xs)
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
		chol, err := NewSparseCholesky(a, nil, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.N())
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := append([]float64(nil), b...)
		chol.SolveInPlace(x)
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
	chol, err := NewSparseCholesky(a, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	chol.SolveInPlace(ref)
	for trial := 0; trial < 4; trial++ {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		pc, err := NewSparseCholesky(a, perm, 1<<20)
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
		pc.SolveInPlace(x)
		for i := range x {
			if e := math.Abs(x[i] - ref[i]); e > 1e-9 {
				t.Fatalf("trial %d: permuted solve differs by %g at %d", trial, e, i)
			}
		}
	}
}

func TestSparseCholeskyBadOrdering(t *testing.T) {
	a := buildLaplacian1D(5)
	if _, err := NewSparseCholesky(a, []int32{0, 1, 2}, 0); err == nil {
		t.Fatal("short ordering should be rejected")
	}
	if _, err := NewSparseCholesky(a, []int32{0, 1, 2, 2, 4}, 0); err == nil {
		t.Fatal("duplicate ordering entry should be rejected")
	}
	if _, err := NewSparseCholesky(a, []int32{0, 1, 2, 9, 4}, 0); err == nil {
		t.Fatal("out-of-range ordering entry should be rejected")
	}
}

func TestSparseCholeskyEntryCap(t *testing.T) {
	a := buildLaplacian2D(20, 20)
	full, err := NewSparseCholesky(a, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSparseCholesky(a, full.Perm(), full.Nnz()-1); !errors.Is(err, ErrFactorTooLarge) {
		t.Fatalf("err = %v, want ErrFactorTooLarge", err)
	}
	if _, err := NewSparseCholesky(a, full.Perm(), full.Nnz()); err != nil {
		t.Fatalf("cap exactly at size should factor, got %v", err)
	}
	count, err := SparseCholeskyCount(a, full.Perm(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if count != full.Nnz() {
		t.Fatalf("symbolic count %d != factor entries %d", count, full.Nnz())
	}
	if _, err := SparseCholeskyCount(a, full.Perm(), full.Nnz()-1); !errors.Is(err, ErrFactorTooLarge) {
		t.Fatalf("count err = %v, want ErrFactorTooLarge", err)
	}
}

func TestSparseCholeskyNotPositiveDefinite(t *testing.T) {
	a := NewCOO(2)
	a.Add(0, 0, 1)
	a.Add(0, 1, 2)
	a.Add(1, 0, 2)
	a.Add(1, 1, 1) // eigenvalues 3 and -1: symmetric but indefinite
	if _, err := NewSparseCholesky(a.ToCSR(), nil, 1<<20); err == nil {
		t.Fatal("factoring an indefinite matrix should fail")
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
	if _, err := NewSparseCholesky(a.ToCSR(), nil, 1<<20); err == nil {
		t.Fatal("factoring a singular matrix should fail")
	}
}

// TestSparseCholesky32Mirror solves with a float32 mirror of the factor
// values through the generic CholeskySolve — the multigrid float32
// V-cycle's coarse solve — and requires it to stay within single-precision
// rounding of the float64 solve, while the float64 instantiation over the
// factor's own values reproduces SolveInPlace bit for bit.
func TestSparseCholesky32Mirror(t *testing.T) {
	a := buildLaplacian2D(12, 9)
	n := a.N()
	chol, err := NewSparseCholesky(a, nil, 1<<20)
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
	b64 := append([]float64(nil), b...)
	CholeskySolve(chol, chol.Values(), b64, make([]float64, n))
	chol.SolveInPlace(b)
	CholeskySolve(chol, vals32, b32, make([]float32, n))
	num, den := 0.0, 0.0
	for i := range b {
		if b64[i] != b[i] {
			t.Fatalf("float64 CholeskySolve differs from SolveInPlace at %d", i)
		}
		d := float64(b32[i]) - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-5 {
		t.Fatalf("float32 mirror deviates from float64 solve by %g, want ≤ 1e-5", rel)
	}
}

func TestRCMOrderIsPermutation(t *testing.T) {
	for _, a := range []*CSR{buildLaplacian1D(17), buildLaplacian2D(13, 8), randomSPD(rand.New(rand.NewSource(3)), 30)} {
		perm := RCMOrder(a)
		if _, err := invertPerm(a.N(), perm); err != nil {
			t.Fatalf("RCM ordering invalid: %v", err)
		}
	}
}

// TestRCMOrderReducesFill sanity-checks that RCM is actually doing its
// job on a grid: its factor should carry no more fill than the identity
// ordering's.
func TestRCMOrderReducesFill(t *testing.T) {
	a := buildLaplacian2D(30, 4) // natural ordering has bandwidth 30
	ident := make([]int32, a.N())
	for i := range ident {
		ident[i] = int32(i)
	}
	nIdent, err := SparseCholeskyCount(a, ident, 0)
	if err != nil {
		t.Fatal(err)
	}
	nRCM, err := SparseCholeskyCount(a, RCMOrder(a), 0)
	if err != nil {
		t.Fatal(err)
	}
	if nRCM > nIdent {
		t.Fatalf("RCM fill %d exceeds natural-ordering fill %d", nRCM, nIdent)
	}
}
