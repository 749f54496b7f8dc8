package sparse

import (
	"fmt"
	"math"
	"sync"
)

// SparseCholesky is a general sparse Cholesky factorisation
// P·A·Pᵀ = L·Lᵀ of an SPD matrix under a fill-reducing permutation P.
// Multigrid solves its coarsest level with it: graded coarse levels have
// bandwidths far beyond what a dense band could store, but under a
// nested-dissection ordering their Cholesky factors stay
// sparse, so a symbolic analysis plus a compressed numeric factorisation
// — O(flops) once, O(nnz(L)) per solve — turns the coarse solve into two
// triangular sweeps. The factor is stored column-compressed (diagonal
// entry first in each column, rows ascending), is immutable after
// construction and is safe for concurrent SolveInPlace calls with
// distinct vectors.
type SparseCholesky struct {
	n     int
	perm  []int32 // perm[k] = original index at permuted position k
	iperm []int32 // inverse: iperm[orig] = permuted position
	// CSC arrays of L on the permuted matrix: column j occupies
	// colPtr[j] ≤ p < colPtr[j+1] with rowIdx[colPtr[j]] == j (diagonal).
	colPtr []int
	rowIdx []int32
	values []float64
	// scratch pools the permuted solve vector so concurrent solves stay
	// allocation-free after warm-up.
	scratch sync.Pool
}

// ErrFactorTooLarge reports that the predicted Cholesky fill exceeds the
// caller's storage cap; the matrix itself may still be perfectly
// solvable iteratively or under a better ordering.
var ErrFactorTooLarge = fmt.Errorf("sparse: sparse Cholesky fill cap exceeded")

// NewSparseCholesky factors a, which must be structurally symmetric and
// SPD, under the fill-reducing ordering perm (perm[k] = original index
// at permuted position k); a nil perm is the natural order. maxEntries caps the stored entries of L
// (float64 values, diagonal included); the symbolic analysis aborts
// with ErrFactorTooLarge as soon as the predicted fill exceeds it, so
// over-budget matrices cost one cheap structure pass, not a
// factorisation. maxEntries ≤ 0 means no cap. A non-positive pivot
// (matrix not SPD, or numerically singular) fails the numeric phase.
func NewSparseCholesky(a *CSR, perm []int32, maxEntries int) (*SparseCholesky, error) {
	n := a.N()
	perm, iperm, err := ordering(n, perm)
	if err != nil {
		return nil, err
	}
	parent, colPtr, err := cholSymbolic(a, perm, iperm, maxEntries)
	if err != nil {
		return nil, err
	}
	c := &SparseCholesky{
		n: n, perm: perm, iperm: iperm,
		colPtr: colPtr,
		rowIdx: make([]int32, colPtr[n]),
		values: make([]float64, colPtr[n]),
	}
	c.scratch.New = func() any { s := make([]float64, n); return &s }

	// Up-looking numeric factorisation: row k of L is the solution of the
	// triangular system L(0:k,0:k)·l = a_k over the elimination-tree reach
	// of row k's entries, appended column-wise so every column keeps its
	// diagonal first and rows ascending.
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
			lkj := x[j] / c.values[c.colPtr[j]]
			x[j] = 0
			for q := c.colPtr[j] + 1; q < colNext[j]; q++ {
				x[c.rowIdx[q]] -= c.values[q] * lkj
			}
			d -= lkj * lkj
			q := colNext[j]
			colNext[j]++
			c.rowIdx[q] = int32(k)
			c.values[q] = lkj
		}
		if d <= 0 {
			return nil, fmt.Errorf("sparse: sparse Cholesky pivot %g at permuted row %d (matrix not SPD?)", d, k)
		}
		q := colNext[k]
		colNext[k]++
		c.rowIdx[q] = int32(k)
		c.values[q] = math.Sqrt(d)
	}
	return c, nil
}

// SparseCholeskyCount runs only the symbolic analysis and returns the
// entry count of L under the given ordering (nil = natural), or
// ErrFactorTooLarge once the count passes maxEntries. Callers use it to
// decide whether a factorisation fits a budget without paying for one.
func SparseCholeskyCount(a *CSR, perm []int32, maxEntries int) (int, error) {
	n := a.N()
	perm, iperm, err := ordering(n, perm)
	if err != nil {
		return 0, err
	}
	_, colPtr, err := cholSymbolic(a, perm, iperm, maxEntries)
	if err != nil {
		return 0, err
	}
	return colPtr[n], nil
}

// ordering resolves perm (nil is the natural order), validates that it
// is a permutation of 0..n-1 and returns it with its inverse.
func ordering(n int, perm []int32) (p, iperm []int32, err error) {
	if perm == nil {
		perm = make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
	}
	if len(perm) != n {
		return nil, nil, fmt.Errorf("sparse: ordering has %d entries, want %d", len(perm), n)
	}
	iperm = make([]int32, n)
	for i := range iperm {
		iperm[i] = -1
	}
	for k, o := range perm {
		if o < 0 || int(o) >= n || iperm[o] != -1 {
			return nil, nil, fmt.Errorf("sparse: ordering is not a permutation (entry %d = %d)", k, o)
		}
		iperm[o] = int32(k)
	}
	return perm, iperm, nil
}

// cholSymbolic computes the elimination tree of the permuted matrix and
// the column pointers of L (diagonal included), aborting with
// ErrFactorTooLarge once the running entry count exceeds maxEntries
// (maxEntries ≤ 0 disables the cap).
func cholSymbolic(a *CSR, perm, iperm []int32, maxEntries int) (parent []int32, colPtr []int, err error) {
	n := a.N()
	// Elimination tree via ancestor path compression over the strictly
	// upper-triangular structure of the permuted matrix.
	parent = make([]int32, n)
	ancestor := make([]int32, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		cols, _ := a.Row(int(perm[k]))
		for _, col := range cols {
			j := iperm[col]
			for j != -1 && j < int32(k) {
				next := ancestor[j]
				ancestor[j] = int32(k)
				if next == -1 {
					parent[j] = int32(k)
				}
				j = next
			}
		}
	}
	// Column counts of L: each node in the ereach pattern of row k holds
	// L[k][j] ≠ 0, i.e. one entry of column j; every column also stores
	// its diagonal.
	counts := make([]int, n)
	marked := make([]int32, n)
	stack := make([]int32, n)
	pathBuf := make([]int32, n)
	nnz := 0
	for k := 0; k < n; k++ {
		counts[k]++ // diagonal
		nnz++
		top := ereach(a, perm, iperm, parent, k, marked, stack, pathBuf)
		for p := top; p < n; p++ {
			counts[stack[p]]++
		}
		nnz += n - top
		if maxEntries > 0 && nnz > maxEntries {
			return nil, nil, fmt.Errorf("%w: ≥ %d entries at row %d/%d, cap %d", ErrFactorTooLarge, nnz, k, n, maxEntries)
		}
	}
	colPtr = make([]int, n+1)
	for j := 0; j < n; j++ {
		colPtr[j+1] = colPtr[j] + counts[j]
	}
	return parent, colPtr, nil
}

// ereach collects the nonzero pattern of row k of L (diagonal excluded)
// into stack[top:] in topological order — descendants before elimination-
// tree ancestors, as the up-looking triangular solve requires. marked
// carries visit stamps across calls (row k stamps with k+1, so a zeroed
// array works for row 0 onwards); pathBuf is per-call path scratch.
func ereach(a *CSR, perm, iperm, parent []int32, k int, marked, stack, pathBuf []int32) int {
	n := len(parent)
	top := n
	stamp := int32(k + 1)
	marked[k] = stamp
	cols, _ := a.Row(int(perm[k]))
	for _, col := range cols {
		j := iperm[col]
		if j >= int32(k) {
			continue
		}
		depth := 0
		for j != -1 && marked[j] != stamp {
			pathBuf[depth] = j
			depth++
			marked[j] = stamp
			j = parent[j]
		}
		for depth > 0 {
			depth--
			top--
			stack[top] = pathBuf[depth]
		}
	}
	return top
}

// N returns the matrix dimension.
func (c *SparseCholesky) N() int { return c.n }

// Nnz returns the stored entry count of the factor L.
func (c *SparseCholesky) Nnz() int { return len(c.values) }

// Perm returns a copy of the fill-reducing ordering the factorisation
// ran under (perm[k] = original index at permuted position k).
func (c *SparseCholesky) Perm() []int32 {
	out := make([]int32, len(c.perm))
	copy(out, c.perm)
	return out
}

// Values returns the factor's stored values in the order CholeskySolve
// reads them. The slice aliases the factor and must not be modified.
func (c *SparseCholesky) Values() []float64 { return c.values }

// SolveInPlace overwrites b with A⁻¹·b: permute, forward and backward
// triangular sweeps on the column-compressed factor, permute back.
func (c *SparseCholesky) SolveInPlace(b []float64) {
	yp := c.scratch.Get().(*[]float64)
	CholeskySolve(c, c.values, b, *yp)
	c.scratch.Put(yp)
}

// CholeskySolve is SolveInPlace in the precision of F: it overwrites b
// with A⁻¹·b using vals as the factor values — Values() itself for
// float64, a rounded copy of them for float32 — and y (length N) as the
// permuted scratch. Safe for concurrent calls with distinct b and y.
func CholeskySolve[F Float](c *SparseCholesky, vals, b, y []F) {
	if len(b) != c.n || len(y) != c.n || len(vals) != len(c.values) {
		panic("sparse: SparseCholesky solve dimension mismatch")
	}
	for k, o := range c.perm {
		y[k] = b[o]
	}
	// Forward: L·y = P·b, columns left to right.
	for j := 0; j < c.n; j++ {
		lo, hi := c.colPtr[j], c.colPtr[j+1]
		yj := y[j] / vals[lo]
		y[j] = yj
		for q := lo + 1; q < hi; q++ {
			y[c.rowIdx[q]] -= vals[q] * yj
		}
	}
	// Backward: Lᵀ·x = y, columns right to left (column j of L is row j
	// of Lᵀ).
	for j := c.n - 1; j >= 0; j-- {
		lo, hi := c.colPtr[j], c.colPtr[j+1]
		s := y[j]
		for q := lo + 1; q < hi; q++ {
			s -= vals[q] * y[c.rowIdx[q]]
		}
		y[j] = s / vals[lo]
	}
	for k, o := range c.perm {
		b[o] = y[k]
	}
}
