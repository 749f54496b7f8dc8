// Package sparse implements the sparse linear algebra under the
// finite-volume thermal solver: compressed sparse row (CSR) matrices and
// their products, the preconditioned conjugate gradient loop (PCG) that
// mg-cg (internal/mg) runs its V-cycle inside, the sparse Cholesky factor
// of its coarsest level, and a Jacobi-preconditioned CG kept as the plain
// reference tests compare against. The factor stores L as one dense
// column-major trapezoid per relaxed supernode, with one row index per
// row below a supernode rather than one per entry, and its triangular
// solve runs supernode by supernode — its independent elimination
// subtrees concurrently when given workers — with the bits of a
// column-by-column sweep at any worker count.
package sparse

import (
	"fmt"
	"math"
)

// COO is a matrix under assembly, stored as coordinate triplets with
// accumulation: adding to the same (row, col) twice sums the entries.
type COO struct {
	n       int
	entries map[coord]float64
}

type coord struct{ r, c int }

// NewCOO creates an n×n matrix accumulator.
func NewCOO(n int) *COO {
	return &COO{n: n, entries: make(map[coord]float64)}
}

// N returns the matrix dimension.
func (a *COO) N() int { return a.n }

// Add accumulates v into entry (r, c). Out-of-range indices panic, as they
// indicate a programming error in assembly code.
func (a *COO) Add(r, c int, v float64) {
	if r < 0 || r >= a.n || c < 0 || c >= a.n {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for n=%d", r, c, a.n))
	}
	if v == 0 {
		return
	}
	a.entries[coord{r, c}] += v
}

// ToCSR converts the accumulated triplets to CSR form. Zero accumulated
// entries are dropped except diagonal entries, which are always kept so that
// preconditioners can rely on their presence.
func (a *COO) ToCSR() *CSR {
	counts := make([]int, a.n+1)
	hasDiag := make([]bool, a.n)
	for c := range a.entries {
		counts[c.r+1]++
		if c.r == c.c {
			hasDiag[c.r] = true
		}
	}
	for i := 0; i < a.n; i++ {
		if !hasDiag[i] {
			counts[i+1]++
		}
	}
	for i := 0; i < a.n; i++ {
		counts[i+1] += counts[i]
	}
	nnz := counts[a.n]
	m := &CSR{
		n:      a.n,
		rowPtr: counts,
		colIdx: make([]int32, nnz),
		values: make([]float64, nnz),
	}
	next := make([]int, a.n)
	copy(next, counts[:a.n])
	for c, v := range a.entries {
		p := next[c.r]
		next[c.r]++
		m.colIdx[p] = int32(c.c)
		m.values[p] = v
	}
	for i := 0; i < a.n; i++ {
		if !hasDiag[i] {
			p := next[i]
			next[i]++
			m.colIdx[p] = int32(i)
			m.values[p] = 0
		}
	}
	m.sortRows()
	return m
}

// CSR is an n×n sparse matrix in compressed sparse row format.
type CSR struct {
	n      int
	rowPtr []int
	colIdx []int32
	values []float64
}

// NewCSRFromParts builds a CSR matrix directly from its raw arrays. The
// caller promises that colIdx within each row is sorted; rowPtr must be
// non-decreasing with rowPtr[0]==0 and rowPtr[n]==len(values). This is the
// fast path used by structured-grid assembly, where the stencil layout is
// known in advance.
func NewCSRFromParts(n int, rowPtr []int, colIdx []int32, values []float64) (*CSR, error) {
	if err := checkParts(n, rowPtr, colIdx, values); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for p := rowPtr[i] + 1; p < rowPtr[i+1]; p++ {
			if colIdx[p] <= colIdx[p-1] {
				return nil, fmt.Errorf("sparse: row %d columns not strictly increasing", i)
			}
		}
	}
	return &CSR{n: n, rowPtr: rowPtr, colIdx: colIdx, values: values}, nil
}

// NewCSRInRowOrder is NewCSRFromParts for rows whose columns are distinct
// but in any order: each row keeps its entries in the order given, the
// order every row product sums them in. Multigrid renumbers its coarse
// operators this way without changing what any row sum rounds to. Nothing
// in this package needs ascending rows; Row returns them as stored.
func NewCSRInRowOrder(n int, rowPtr []int, colIdx []int32, values []float64) (*CSR, error) {
	if err := checkParts(n, rowPtr, colIdx, values); err != nil {
		return nil, err
	}
	seen := make([]int32, n) // row i+1 marks the columns of row i
	for i := 0; i < n; i++ {
		for _, c := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			if seen[c] == int32(i+1) {
				return nil, fmt.Errorf("sparse: row %d stores column %d twice", i, c)
			}
			seen[c] = int32(i + 1)
		}
	}
	return &CSR{n: n, rowPtr: rowPtr, colIdx: colIdx, values: values}, nil
}

// checkParts validates the shape of raw CSR arrays and their column range.
func checkParts(n int, rowPtr []int, colIdx []int32, values []float64) error {
	if len(rowPtr) != n+1 {
		return fmt.Errorf("sparse: rowPtr length %d != n+1 (%d)", len(rowPtr), n+1)
	}
	if rowPtr[0] != 0 || rowPtr[n] != len(values) || len(values) != len(colIdx) {
		return fmt.Errorf("sparse: inconsistent CSR arrays (rowPtr[0]=%d, rowPtr[n]=%d, nnz=%d/%d)",
			rowPtr[0], rowPtr[n], len(colIdx), len(values))
	}
	for i := 0; i < n; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			return fmt.Errorf("sparse: rowPtr decreases at row %d", i)
		}
		for _, c := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			if c < 0 || int(c) >= n {
				return fmt.Errorf("sparse: column %d out of range in row %d", c, i)
			}
		}
	}
	return nil
}

// N returns the matrix dimension.
func (m *CSR) N() int { return m.n }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.values) }

// Row returns read-only views of row i's column indices, in stored order
// (ascending, except in matrices built by NewCSRInRowOrder), and values.
// Callers must not modify the returned slices; they alias the matrix
// storage. This is the raw access triple-product assembly (Galerkin
// coarse-grid operators) is built on.
func (m *CSR) Row(i int) (cols []int32, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.values[lo:hi]
}

// AddDiagonal returns a copy of m with d[i] added to each diagonal entry.
// Every row of m must already store its diagonal (guaranteed for matrices
// built by COO.ToCSR or the FVM assembler).
func AddDiagonal(m *CSR, d []float64) *CSR {
	if len(d) != m.n {
		panic("sparse: AddDiagonal dimension mismatch")
	}
	out := &CSR{
		n:      m.n,
		rowPtr: m.rowPtr, // shared: structure is immutable
		colIdx: m.colIdx,
		values: make([]float64, len(m.values)),
	}
	copy(out.values, m.values)
	for i := 0; i < m.n; i++ {
		found := false
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if int(m.colIdx[p]) == i {
				out.values[p] += d[i]
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("sparse: AddDiagonal: row %d has no stored diagonal", i))
		}
	}
	return out
}

func (m *CSR) sortRows() {
	for i := 0; i < m.n; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		// Insertion sort: rows are short (≤ 7 entries for a 3D stencil).
		for j := lo + 1; j < hi; j++ {
			cj, vj := m.colIdx[j], m.values[j]
			k := j - 1
			for k >= lo && m.colIdx[k] > cj {
				m.colIdx[k+1] = m.colIdx[k]
				m.values[k+1] = m.values[k]
				k--
			}
			m.colIdx[k+1] = cj
			m.values[k+1] = vj
		}
	}
}

// At returns entry (r, c), or 0 if not stored.
func (m *CSR) At(r, c int) float64 {
	if r < 0 || r >= m.n || c < 0 || c >= m.n {
		return 0
	}
	for p := m.rowPtr[r]; p < m.rowPtr[r+1]; p++ {
		if int(m.colIdx[p]) == c {
			return m.values[p]
		}
	}
	return 0
}

// Diag returns a copy of the diagonal.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if int(m.colIdx[p]) == i {
				d[i] = m.values[p]
				break
			}
		}
	}
	return d
}

// IsSymmetric reports whether the matrix equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	for i := 0; i < m.n; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			j := int(m.colIdx[p])
			if math.Abs(m.values[p]-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Values returns the stored entries in row order, the layout Row slices
// and MulVecValues index. The slice aliases the matrix storage and must
// not be modified.
func (m *CSR) Values() []float64 { return m.values }

// RowPtr returns the row pointers of that layout: row i's entries sit at
// RowPtr()[i] ≤ p < RowPtr()[i+1] in Values and ColIdx, so a product
// kernel outside this package can read a copy of the values in another
// precision. The slice aliases the matrix storage and must not be
// modified.
func (m *CSR) RowPtr() []int { return m.rowPtr }

// ColIdx returns the column index of every stored entry, in Values
// order. The slice aliases the matrix storage and must not be modified.
func (m *CSR) ColIdx() []int32 { return m.colIdx }

// MulVec computes dst = m · x. dst and x must have length N and must not
// alias. For large systems the row loop is split across CPUs; use MulVecN
// to control the worker count explicitly.
func (m *CSR) MulVec(dst, x []float64) {
	m.MulVecN(dst, x, 0)
}

// Float is the element type of the precision-generic kernels
// (MulVecValues, CholeskySolve): float64 for the assembled operators,
// float32 for mixed-precision preconditioners.
type Float interface{ float32 | float64 }

// mulRange computes rows lo..hi-1 of dst = m·x with vals as m's values.
func mulRange[F Float](m *CSR, vals, dst, x []F, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sum F
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			sum += vals[p] * x[m.colIdx[p]]
		}
		dst[i] = sum
	}
}

// Dot returns the inner product of two vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }
