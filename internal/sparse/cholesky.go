package sparse

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// SparseCholesky is a general sparse Cholesky factorisation
// P·A·Pᵀ = L·Lᵀ of an SPD matrix under a fill-reducing permutation P.
// Multigrid solves its coarsest level with it: graded coarse levels have
// bandwidths far beyond what a dense band could store, but under a
// nested-dissection ordering their Cholesky factors stay
// sparse, so a symbolic analysis plus a compressed numeric factorisation
// — O(flops) once, O(nnz(L)) per solve — turns the coarse solve into two
// triangular sweeps. The numeric phase is supernodal: runs of columns
// that share their rows below are factored as dense panels with blocked
// products, which turns most of its multiply-adds into register-tiled
// inner products instead of indirect scatters. The factor is stored
// column-compressed (diagonal entry first in each column, rows
// ascending), is immutable after construction and is safe for concurrent
// SolveInPlace calls with distinct vectors.
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
// factorisation. maxEntries ≤ 0 means no cap. A non-positive or NaN
// pivot (matrix not SPD, numerically singular or carrying a NaN) fails
// the numeric phase.
// The factor's bits depend on a and perm alone.
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
	c.fillPattern(a, parent)
	if err := c.factorSupernodal(a, parent); err != nil {
		return nil, err
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
// tree ancestors, as an up-looking triangular solve requires. marked
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

// fillPattern writes the row pattern of every column of L into rowIdx,
// diagonal first and rows ascending. Column j's rows below its diagonal
// are the union of column j of the permuted A beneath the diagonal and
// the rows of each elimination-tree child's column beneath j (a child's
// first row below its diagonal is j itself), so columns are filled in
// order by merging sorted lists.
func (c *SparseCholesky) fillPattern(a *CSR, parent []int32) {
	n := c.n
	child, sibling := make([]int32, n), make([]int32, n)
	for j := range child {
		child[j] = -1
	}
	for j := n - 1; j >= 0; j-- {
		if p := parent[j]; p >= 0 {
			sibling[j] = child[p]
			child[p] = int32(j)
		}
	}
	longest := 0
	for j := range n {
		longest = max(longest, c.colPtr[j+1]-c.colPtr[j])
	}
	cur, spare := make([]int32, 0, longest), make([]int32, 0, longest)
	for j := 0; j < n; j++ {
		cur = cur[:0]
		cols, _ := a.Row(int(c.perm[j]))
		for _, col := range cols {
			if i := c.iperm[col]; i > int32(j) {
				cur = append(cur, i)
			}
		}
		slices.Sort(cur)
		for ch := child[j]; ch != -1; ch = sibling[ch] {
			rows := c.rowIdx[c.colPtr[ch]+2 : c.colPtr[ch+1]]
			merged := spare[:0]
			x, y := 0, 0
			for x < len(cur) && y < len(rows) {
				switch {
				case cur[x] < rows[y]:
					merged = append(merged, cur[x])
					x++
				case cur[x] > rows[y]:
					merged = append(merged, rows[y])
					y++
				default:
					merged = append(merged, cur[x])
					x++
					y++
				}
			}
			merged = append(merged, cur[x:]...)
			merged = append(merged, rows[y:]...)
			cur, spare = merged, cur
		}
		c.rowIdx[c.colPtr[j]] = int32(j)
		copy(c.rowIdx[c.colPtr[j]+1:c.colPtr[j+1]], cur)
	}
}

// supernodes partitions the columns of L into relaxed supernodes and
// returns their first columns followed by n. Column j extends the
// supernode of column j-1 when it is j-1's elimination-tree parent, the
// supernode stays within maxSupernode columns and at most a relaxZeros
// share of its dense trapezoid — its columns over the rows of its last
// column — is structural zeros. Along such a chain each column's rows
// below the supernode are a subset of the last column's, so the
// trapezoid holds every entry of its columns.
func supernodes(parent []int32, colPtr []int) []int32 {
	n := len(parent)
	if n == 0 {
		return []int32{0}
	}
	count := func(j int) int { return colPtr[j+1] - colPtr[j] }
	starts := []int32{0}
	f, entries := 0, count(0)
	for j := 1; j < n; j++ {
		if parent[j-1] == int32(j) && j-f < maxSupernode {
			w, m := j+1-f, count(j)-1
			trapezoid := w*(w+1)/2 + w*m
			if float64(trapezoid-entries-count(j)) <= relaxZeros*float64(trapezoid) {
				entries += count(j)
				continue
			}
		}
		starts = append(starts, int32(j))
		f, entries = j, count(j)
	}
	return append(starts, int32(n))
}

// relaxZeros is the share of structural zeros a supernode's trapezoid
// may carry. On the fast tier's 19 890-cell coarsest level, strict
// (fundamental) supernodes leave 9 694 columns on their own — banded
// stretches whose patterns slide by one row per column — and those
// single columns generate 22 % of the multiply-adds as rank-1 updates;
// at 10 % zeros (before maxSupernode splits the widest) 1 027
// supernodes are left, 234 of them single columns with under 0.1 % of
// the work, for 5 % more multiply-adds in all.
const relaxZeros = 0.1

// maxSupernode caps a supernode's width. That bounds its panel at
// maxSupernode × its rows, which the values of the columns not yet
// factored can hold for all but the supernodes near the root (a spare
// buffer of 0.2 MB serves those on every tier, where the widest uncapped
// panels took 3.9 MB at fast and 9.3 MB at the paper tier), and
// descendant blocks are gathered in chunks of as many rows. The factor
// then allocates within 0.15 MB of what the up-looking factorisation
// did on the preview, fast and paper tiers. The pieces of a split
// supernode update one another as descendants, which took no measurable
// time at 64 or 128 columns.
const maxSupernode = 64

// factorSupernodal is the numeric phase, left-looking over the relaxed
// supernodes of L. Supernode s gathers its columns of the permuted A into
// a dense row-major panel — its rows (its own columns, then the rows of
// its last column below them) × its columns —, subtracts the update of
// every descendant supernode in ascending order, factors the panel
// (factorPanel) and copies it into the CSC values. Every entry sums its
// terms in an order the pattern alone fixes, so the factor's bits depend
// on a and the ordering only. Structural zeros of a relaxed panel stay
// exact zeros: each of their terms has a zero factor.
func (c *SparseCholesky) factorSupernodal(a *CSR, parent []int32) error {
	n := c.n
	sn := supernodes(parent, c.colPtr)
	ns := int32(len(sn) - 1)
	below := func(s int32) []int32 { // rows of supernode s beneath its columns
		l := int(sn[s+1])
		return c.rowIdx[c.colPtr[l-1]+1 : c.colPtr[l]]
	}
	colSuper := make([]int32, n)
	maxWidth, maxRows := 0, 0
	for s := range ns {
		w, m := int(sn[s+1]-sn[s]), len(below(s))
		for j := sn[s]; j < sn[s+1]; j++ {
			colSuper[j] = s
		}
		maxWidth = max(maxWidth, w)
		maxRows = max(maxRows, w+m)
	}
	// Supernode s works in a panel (its rows × its columns) and a
	// descendant block of up to 2·maxSupernode rows (a target's columns
	// plus one chunk of the rows below them) × the widest supernode. Both
	// live in the values of the columns after s, not factored yet, where
	// those have room; spare, sized once from the partition, holds them
	// for the supernodes near the root, where they have not.
	blockLen := 2 * maxSupernode * maxWidth
	spareLen := 0
	for s := range ns {
		w := int(sn[s+1] - sn[s])
		if need := (w+len(below(s)))*w + blockLen; c.colPtr[n]-c.colPtr[sn[s+1]] < need {
			spareLen = max(spareLen, need)
		}
	}
	spare := make([]float64, spareLen)
	rowOff, colOff := make([]int32, maxRows), make([]int32, maxRows)
	relMap := make([]int32, n) // row → panel row, for the current supernode's rows
	// A factored supernode k waits in the list of the supernode holding
	// below(k)[cursor[k]], the first of its rows it has not yet updated:
	// head[t] starts t's list and link chains it.
	head, link, cursor := make([]int32, ns), make([]int32, ns), make([]int32, ns)
	for i := range head {
		head[i] = -1
	}
	enqueue := func(k int32) {
		if kb := below(k); int(cursor[k]) < len(kb) {
			t := colSuper[kb[cursor[k]]]
			link[k], head[t] = head[t], k
		}
	}
	desc := make([]int32, 0, ns)
	for s := range ns {
		f, l := int(sn[s]), int(sn[s+1])
		w := l - f
		rows := below(s)
		nr := w + len(rows)
		work := c.values[c.colPtr[l]:]
		if len(work) < nr*w+blockLen {
			work = spare
		}
		p, block := work[:nr*w], work[nr*w:nr*w+blockLen]
		clear(p)
		for i := f; i < l; i++ {
			relMap[i] = int32(i - f)
		}
		for i, r := range rows {
			relMap[r] = int32(w + i)
		}
		for j := f; j < l; j++ {
			cols, vals := a.Row(int(c.perm[j]))
			for q, col := range cols {
				if i := c.iperm[col]; i >= int32(j) {
					p[int(relMap[i])*w+j-f] = vals[q]
				}
			}
		}
		desc = desc[:0]
		for k := head[s]; k != -1; k = link[k] {
			desc = append(desc, k)
		}
		slices.Sort(desc)
		for _, k := range desc {
			// Rows kb[p1:] of k update the panel; kb[p1:p2] are the
			// panel's own columns. Those come first, then the rows below
			// them in chunks of maxSupernode, against the same columns.
			kb := below(k)
			p1 := int(cursor[k])
			p2 := p1
			for p2 < len(kb) && int(kb[p2]) < l {
				p2++
			}
			nc, v := p2-p1, int(sn[k+1]-sn[k])
			cols := c.gatherRows(block, sn[k], sn[k+1], kb, p1, p2)
			for j, r := range kb[p1:p2] {
				rowOff[j] = relMap[r]
				colOff[j] = r - int32(f)
			}
			subLowerProducts(p, w, rowOff[:nc], colOff[:nc], cols, cols, v, v, 0)
			for r0 := p2; r0 < len(kb); r0 += maxSupernode {
				r1 := min(r0+maxSupernode, len(kb))
				chunk := c.gatherRows(block[nc*v:], sn[k], sn[k+1], kb, r0, r1)
				for i, r := range kb[r0:r1] {
					rowOff[i] = relMap[r]
				}
				subLowerProducts(p, w, rowOff[:r1-r0], colOff[:nc], chunk, cols, v, v, r0-p1)
			}
			cursor[k] = int32(p2)
			enqueue(k)
		}
		if err := factorPanel(p, nr, w, f, rowOff, colOff); err != nil {
			return err
		}
		for j := f; j < l; j++ {
			for q := c.colPtr[j]; q < c.colPtr[j+1]; q++ {
				c.values[q] = p[int(relMap[c.rowIdx[q]])*w+j-f]
			}
		}
		enqueue(s)
	}
	return nil
}

// gatherRows copies the factored entries of columns g..l-1 (one
// supernode) in rows kb[from:to] — kb being the supernode's rows below
// its columns — into buf as a row-major block, one row per row of
// kb[from:to] and one entry per column, zero where a column lacks the
// row; it returns that block.
func (c *SparseCholesky) gatherRows(buf []float64, g, l int32, kb []int32, from, to int) []float64 {
	v := int(l - g)
	b := buf[:(to-from)*v]
	clear(b)
	last := kb[to-1]
	for t := range v {
		lo, hi := c.colPtr[int(g)+t], c.colPtr[int(g)+t+1]
		q, _ := slices.BinarySearch(c.rowIdx[lo:hi], kb[from])
		i := from
		for q += lo; q < hi && c.rowIdx[q] <= last; q++ {
			for kb[i] != c.rowIdx[q] {
				i++
			}
			b[(i-from)*v+t] = c.values[q]
			i++
		}
	}
	return b
}

// panelBlock is factorPanel's column block: each block of columns first
// takes the update of all columns left of it as one blocked product,
// then its own columns are finished one by one.
const panelBlock = 32

// factorPanel factors in place the nr×w row-major panel of the supernode
// whose first column is f, once every descendant's update is in: the
// leading w×w block becomes its own Cholesky factor and the rows below
// it X with X·L₁₁ᵀ = those rows. rowOff and colOff are scratch of at
// least nr entries.
func factorPanel(p []float64, nr, w, f int, rowOff, colOff []int32) error {
	for c0 := 0; c0 < w; c0 += panelBlock {
		c1 := min(c0+panelBlock, w)
		if c0 > 0 {
			for i := range nr - c0 {
				rowOff[i] = int32(c0 + i)
			}
			for j := range c1 - c0 {
				colOff[j] = int32(c0 + j)
			}
			subLowerProducts(p, w, rowOff[:nr-c0], colOff[:c1-c0], p[c0*w:], p[c0*w:], w, c0, 0)
		}
		// Each row then finishes the block's columns left to right, each
		// entry solved against the row above that holds its pivot, and a
		// row inside the block ends with its own pivot. Rows below the
		// block go four at a time, sharing each pivot row's loads.
		i := c0
		for ; i < c1; i++ {
			ri := p[i*w : i*w+w]
			for j := c0; j < i; j++ {
				ri[j] = (ri[j] - dot(ri[c0:j], p[j*w+c0:])) / p[j*w+j]
			}
			d := ri[i] - dot(ri[c0:i], ri[c0:])
			if !(d > 0) { // NaN included
				return fmt.Errorf("sparse: sparse Cholesky pivot %g at permuted row %d (matrix not SPD?)", d, f+i)
			}
			ri[i] = math.Sqrt(d)
		}
		for ; i+4 <= nr; i += 4 {
			r0, r1 := p[i*w:(i+1)*w], p[(i+1)*w:(i+2)*w]
			r2, r3 := p[(i+2)*w:(i+3)*w], p[(i+3)*w:(i+4)*w]
			for j := c0; j < c1; j++ {
				s0, s1, s2, s3 := dot4x1(r0[c0:j], r1[c0:j], r2[c0:j], r3[c0:j], p[j*w+c0:])
				d := p[j*w+j]
				r0[j] = (r0[j] - s0) / d
				r1[j] = (r1[j] - s1) / d
				r2[j] = (r2[j] - s2) / d
				r3[j] = (r3[j] - s3) / d
			}
		}
		for ; i < nr; i++ {
			ri := p[i*w : i*w+w]
			for j := c0; j < c1; j++ {
				ri[j] = (ri[j] - dot(ri[c0:j], p[j*w+c0:])) / p[j*w+j]
			}
		}
	}
	return nil
}

// subLowerProducts subtracts X·Yᵀ from p, lower trapezoid only: X is the
// m = len(rowOff) rows of length k at stride ld in x, Y the nc =
// len(colOff) rows in y, X's row i stands base rows below Y's first, and
// entry (i, j), kept when base+i ≥ j, lands at p[rowOff[i]·ldp +
// colOff[j]]. Every inner product sums t ascending from zero before it
// is subtracted, whichever tile computes it. The 4×2 tiles load six
// values per eight multiply-adds.
func subLowerProducts(p []float64, ldp int, rowOff, colOff []int32, x, y []float64, ld, k, base int) {
	m, nc := len(rowOff), len(colOff)
	i := 0
	for ; i+4 <= m; i += 4 {
		x0 := x[i*ld:][:k]
		x1 := x[(i+1)*ld:][:k]
		x2 := x[(i+2)*ld:][:k]
		x3 := x[(i+3)*ld:][:k]
		rs := [4]int{int(rowOff[i]) * ldp, int(rowOff[i+1]) * ldp, int(rowOff[i+2]) * ldp, int(rowOff[i+3]) * ldp}
		bi := base + i
		jEnd := min(nc, bi+4)
		j := 0
		for ; j+2 <= jEnd; j += 2 {
			s00, s01, s10, s11, s20, s21, s30, s31 := dot4x2(x0, x1, x2, x3, y[j*ld:][:k], y[(j+1)*ld:][:k])
			c0, c1 := int(colOff[j]), int(colOff[j+1])
			if j+1 <= bi {
				p[rs[0]+c0] -= s00
				p[rs[0]+c1] -= s01
				p[rs[1]+c0] -= s10
				p[rs[1]+c1] -= s11
				p[rs[2]+c0] -= s20
				p[rs[2]+c1] -= s21
				p[rs[3]+c0] -= s30
				p[rs[3]+c1] -= s31
				continue
			}
			// The tile straddles the diagonal: keep each column's rows at
			// or below it.
			ss := [4][2]float64{{s00, s01}, {s10, s11}, {s20, s21}, {s30, s31}}
			for r := range 4 {
				if bi+r >= j {
					p[rs[r]+c0] -= ss[r][0]
				}
				if bi+r >= j+1 {
					p[rs[r]+c1] -= ss[r][1]
				}
			}
		}
		if j < jEnd {
			s0, s1, s2, s3 := dot4x1(x0, x1, x2, x3, y[j*ld:])
			c0 := int(colOff[j])
			for r, sr := range [4]float64{s0, s1, s2, s3} {
				if bi+r >= j {
					p[rs[r]+c0] -= sr
				}
			}
		}
	}
	for ; i < m; i++ {
		xi := x[i*ld:][:k]
		ri := int(rowOff[i]) * ldp
		for j := 0; j < nc && j <= base+i; j++ {
			p[ri+int(colOff[j])] -= dot(xi, y[j*ld:])
		}
	}
}

// dot returns the inner product of x and y (len(y) ≥ len(x)), summed in
// index order.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	for t, v := range x {
		s += v * y[t]
	}
	return s
}

// dot4x1 returns the inner products of x0…x3 with y, each summed in
// index order; x1…x3 have the length of x0 and y at least that length.
func dot4x1(x0, x1, x2, x3, y []float64) (s0, s1, s2, s3 float64) {
	x1, x2, x3, y = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)], y[:len(x0)]
	for t, b := range y {
		s0 += x0[t] * b
		s1 += x1[t] * b
		s2 += x2[t] * b
		s3 += x3[t] * b
	}
	return
}

// dot4x2 returns the eight inner products of x0…x3 with y0 and y1, each
// summed in index order; all six slices have the length of x0.
func dot4x2(x0, x1, x2, x3, y0, y1 []float64) (s00, s01, s10, s11, s20, s21, s30, s31 float64) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	y0, y1 = y0[:len(x0)], y1[:len(x0)]
	for t, a0 := range x0 {
		a1, a2, a3 := x1[t], x2[t], x3[t]
		b0, b1 := y0[t], y1[t]
		s00 += a0 * b0
		s01 += a0 * b1
		s10 += a1 * b0
		s11 += a1 * b1
		s20 += a2 * b0
		s21 += a2 * b1
		s30 += a3 * b0
		s31 += a3 * b1
	}
	return
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
