package sparse

import (
	"math"
	"testing"
)

func TestNewCSRFromPartsValid(t *testing.T) {
	// 2x2: [2 -1; -1 2]
	m, err := NewCSRFromParts(2,
		[]int{0, 2, 4},
		[]int32{0, 1, 0, 1},
		[]float64{2, -1, -1, 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 2 || m.At(0, 1) != -1 || m.At(1, 0) != -1 || m.At(1, 1) != 2 {
		t.Error("entries wrong")
	}
	if !m.IsSymmetric(0) {
		t.Error("should be symmetric")
	}
	y := make([]float64, 2)
	m.MulVec(y, []float64{1, 1})
	if y[0] != 1 || y[1] != 1 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestNewCSRFromPartsErrors(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		rowPtr []int
		colIdx []int32
		values []float64
	}{
		{"short rowPtr", 2, []int{0, 2}, []int32{0, 1}, []float64{1, 1}},
		{"rowPtr[0] != 0", 1, []int{1, 1}, nil, nil},
		{"rowPtr[n] mismatch", 1, []int{0, 2}, []int32{0}, []float64{1}},
		{"len mismatch", 1, []int{0, 1}, []int32{0, 1}, []float64{1}},
		{"decreasing rowPtr", 2, []int{0, 2, 1}, []int32{0, 1}, []float64{1, 1}},
		{"column out of range", 1, []int{0, 1}, []int32{5}, []float64{1}},
		{"negative column", 1, []int{0, 1}, []int32{-1}, []float64{1}},
		{"unsorted columns", 1, []int{0, 2}, []int32{1, 0}, []float64{1, 1}},
		{"duplicate columns", 1, []int{0, 2}, []int32{0, 0}, []float64{1, 1}},
	}
	for _, c := range cases {
		if _, err := NewCSRFromParts(c.n, c.rowPtr, c.colIdx, c.values); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestAddDiagonal(t *testing.T) {
	m := buildLaplacian1D(4)
	d := []float64{1, 2, 3, 4}
	m2 := AddDiagonal(m, d)
	for i := 0; i < 4; i++ {
		want := 2 + d[i]
		if got := m2.At(i, i); math.Abs(got-want) > 1e-15 {
			t.Errorf("diag[%d] = %g, want %g", i, got, want)
		}
		// Original untouched.
		if m.At(i, i) != 2 {
			t.Error("AddDiagonal mutated the input")
		}
	}
	// Off-diagonals preserved.
	if m2.At(0, 1) != -1 || m2.At(3, 2) != -1 {
		t.Error("off-diagonal entries changed")
	}
}

func TestAddDiagonalPanics(t *testing.T) {
	m := buildLaplacian1D(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on dimension mismatch")
			}
		}()
		AddDiagonal(m, []float64{1, 2})
	}()
}

func TestAddDiagonalSolvable(t *testing.T) {
	// Bumping the diagonal keeps the system SPD and changes the solution
	// in the expected direction (larger diagonal → smaller solution).
	n := 20
	m := buildLaplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x1 := make([]float64, n)
	if _, err := (&CG{Tolerance: 1e-12}).Solve(m, b, x1); err != nil {
		t.Fatal(err)
	}
	bump := make([]float64, n)
	for i := range bump {
		bump[i] = 0.5
	}
	x2 := make([]float64, n)
	if _, err := (&CG{Tolerance: 1e-12}).Solve(AddDiagonal(m, bump), b, x2); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x2[i] >= x1[i] {
			t.Fatalf("solution did not shrink at %d: %g vs %g", i, x2[i], x1[i])
		}
	}
}
