package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildLaplacian1D(n int) *CSR {
	a := NewCOO(n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 2)
		if i > 0 {
			a.Add(i, i-1, -1)
		}
		if i < n-1 {
			a.Add(i, i+1, -1)
		}
	}
	return a.ToCSR()
}

func TestCOOAccumulation(t *testing.T) {
	a := NewCOO(3)
	a.Add(0, 0, 1)
	a.Add(0, 0, 2)
	a.Add(1, 2, -4)
	m := a.ToCSR()
	if got := m.At(0, 0); got != 3 {
		t.Errorf("accumulated (0,0) = %g, want 3", got)
	}
	if got := m.At(1, 2); got != -4 {
		t.Errorf("(1,2) = %g", got)
	}
	if got := m.At(2, 2); got != 0 {
		t.Errorf("missing diagonal should read 0, got %g", got)
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	NewCOO(2).Add(2, 0, 1)
}

func TestCSRDiagAlwaysPresent(t *testing.T) {
	a := NewCOO(4)
	a.Add(0, 1, 5) // no diagonal entries at all
	m := a.ToCSR()
	d := m.Diag()
	for i, v := range d {
		if v != 0 {
			t.Errorf("diag[%d] = %g, want 0", i, v)
		}
	}
	// Diagonal slots must exist so NNZ >= n.
	if m.NNZ() < 4 {
		t.Errorf("NNZ = %d, want >= 4 (diagonal slots)", m.NNZ())
	}
}

func TestMulVecIdentity(t *testing.T) {
	n := 17
	a := NewCOO(n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	m := a.ToCSR()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) - 3.5
	}
	y := make([]float64, n)
	m.MulVec(y, x)
	for i := range y {
		if y[i] != x[i] {
			t.Fatalf("identity MulVec differs at %d: %g vs %g", i, y[i], x[i])
		}
	}
}

func TestMulVecKnown(t *testing.T) {
	// [2 -1; -1 2] * [1; 2] = [0; 3]
	m := buildLaplacian1D(2)
	y := make([]float64, 2)
	m.MulVec(y, []float64{1, 2})
	if y[0] != 0 || y[1] != 3 {
		t.Errorf("MulVec = %v, want [0 3]", y)
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	m := buildLaplacian1D(3)
	m.MulVec(make([]float64, 2), make([]float64, 3))
}

func TestSolveCGLaplacian(t *testing.T) {
	n := 50
	m := buildLaplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res, err := (&CG{Tolerance: 1e-10}).Solve(m, b, x)
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	if !res.Converged {
		t.Fatal("CG did not converge")
	}
	// Verify A·x = b.
	ax := make([]float64, n)
	m.MulVec(ax, x)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-7 {
			t.Fatalf("residual too large at %d: %g", i, ax[i]-b[i])
		}
	}
	// Analytic solution of -u'' = 1 with u(0)=u(n+1)=0 discretized:
	// x_i = (i+1)(n-i)/2, peak at the middle.
	mid := x[n/2]
	if mid <= x[0] || mid <= x[n-1] {
		t.Error("solution should peak in the middle")
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	m := buildLaplacian1D(10)
	x := make([]float64, 10)
	res, err := (&CG{}).Solve(m, make([]float64, 10), x)
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs: %v", err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs should give zero solution")
		}
	}
}

func TestSolveCGInitialGuess(t *testing.T) {
	n := 30
	m := buildLaplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x := make([]float64, n)
	res1, err := (&CG{Tolerance: 1e-10}).Solve(m, b, x)
	if err != nil {
		t.Fatal(err)
	}
	// Re-solving seeded with the solution should converge immediately.
	res2, err := (&CG{Tolerance: 1e-10}).Solve(m, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Iterations > res1.Iterations/2+2 {
		t.Errorf("warm start took %d iterations vs cold %d", res2.Iterations, res1.Iterations)
	}
}

func TestSolveCGErrors(t *testing.T) {
	m := buildLaplacian1D(4)
	if _, err := (&CG{}).Solve(m, make([]float64, 3), make([]float64, 4)); err == nil {
		t.Error("wrong rhs length should error")
	}
	if _, err := (&CG{}).Solve(m, make([]float64, 4), make([]float64, 2)); err == nil {
		t.Error("wrong guess length should error")
	}
	// Indefinite matrix: negative diagonal.
	bad := NewCOO(2)
	bad.Add(0, 0, -1)
	bad.Add(1, 1, 1)
	if _, err := (&CG{}).Solve(bad.ToCSR(), []float64{1, 1}, make([]float64, 2)); err == nil {
		t.Error("negative diagonal should error")
	}
}

func TestSolveCGMaxIterations(t *testing.T) {
	n := 100
	m := buildLaplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	res, err := (&CG{MaxIterations: 2, Tolerance: 1e-14}).Solve(m, b, make([]float64, n))
	if err == nil {
		t.Error("expected non-convergence error with 2 iterations")
	}
	if res.Iterations != 2 {
		t.Errorf("iterations = %d, want 2", res.Iterations)
	}
}

func TestIsSymmetric(t *testing.T) {
	m := buildLaplacian1D(10)
	if !m.IsSymmetric(1e-12) {
		t.Error("Laplacian should be symmetric")
	}
	a := NewCOO(2)
	a.Add(0, 1, 1)
	a.Add(1, 0, 2)
	a.Add(0, 0, 1)
	a.Add(1, 1, 1)
	if a.ToCSR().IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

// randomSPD builds a random strictly diagonally dominant symmetric matrix,
// which is guaranteed SPD.
func randomSPD(rng *rand.Rand, n int) *CSR {
	a := NewCOO(n)
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := -rng.Float64()
			a.Add(i, j, v)
			a.Add(j, i, v)
			rowSum[i] += -v
			rowSum[j] += -v
		}
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, rowSum[i]+1+rng.Float64())
	}
	return a.ToCSR()
}

// Property: CG solves random SPD systems to the requested tolerance.
func TestQuickCGRandomSPD(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 5 + int(sz%60)
		rng := rand.New(rand.NewSource(seed))
		m := randomSPD(rng, n)
		if !m.IsSymmetric(1e-12) {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		res, err := (&CG{Tolerance: 1e-10}).Solve(m, b, x)
		if err != nil || !res.Converged {
			return false
		}
		ax := make([]float64, n)
		m.MulVec(ax, x)
		for i := range ax {
			ax[i] -= b[i]
		}
		return Norm2(ax) <= 1e-7*(1+Norm2(b))
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: MulVec is linear: A(ax+by) = a·Ax + b·Ay.
func TestQuickMulVecLinear(t *testing.T) {
	f := func(seed int64, alpha, beta float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			alpha = 1.5
		}
		if math.IsNaN(beta) || math.IsInf(beta, 0) || math.Abs(beta) > 1e6 {
			beta = -0.5
		}
		rng := rand.New(rand.NewSource(seed))
		n := 24
		m := randomSPD(rng, n)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		combo := make([]float64, n)
		for i := range combo {
			combo[i] = alpha*x[i] + beta*y[i]
		}
		mx := make([]float64, n)
		my := make([]float64, n)
		mc := make([]float64, n)
		m.MulVec(mx, x)
		m.MulVec(my, y)
		m.MulVec(mc, combo)
		for i := range mc {
			want := alpha*mx[i] + beta*my[i]
			if math.Abs(mc[i]-want) > 1e-8*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Error("Norm2 wrong")
	}
}

func BenchmarkMulVec100k(b *testing.B) {
	n := 100000
	m := buildLaplacian1D(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(y, x)
	}
}

func BenchmarkCG10k(b *testing.B) {
	n := 10000
	m := buildLaplacian1D(n)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(x)
		if _, err := (&CG{Tolerance: 1e-8}).Solve(m, rhs, x); err != nil {
			b.Fatal(err)
		}
	}
}
