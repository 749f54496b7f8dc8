package sparse

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"

	"vcselnoc/internal/parallel"
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
// inner products instead of indirect scatters.
//
// L is stored supernode by supernode, each relaxed supernode's values as
// one column-major dense trapezoid: column j holds its rows from j to the
// supernode's last column, diagonal first, then the supernode's rows
// below its columns, R_s, ascending. A slot the relaxed pattern lacks
// holds an explicit zero, so the only row index is one R_s per
// supernode. The factor is immutable after construction; CholeskySolve,
// its one solve, is safe for concurrent calls with distinct vectors and
// caller-owned scratch.
type SparseCholesky struct {
	n  int
	an *CholeskyAnalysis // ordering, supernodes, R_s and column offsets
	// values holds the trapezoids, column j at an.valPtr[j]:an.valPtr[j+1].
	values []float64
	// sched splits the supernodes into the independent elimination
	// subtrees the numeric phase factored concurrently and the rest, for
	// concurrent solves.
	sched solveSchedule
}

// ErrFactorTooLarge reports that the predicted Cholesky fill exceeds the
// caller's storage cap; the matrix itself may still be perfectly
// solvable iteratively or under a better ordering.
var ErrFactorTooLarge = fmt.Errorf("sparse: sparse Cholesky fill cap exceeded")

// CholeskyAnalysis is the symbolic analysis of a sparse Cholesky
// factorisation: the ordering and its inverse, the column counts of L,
// its relaxed supernodes and each supernode's rows below its columns. It
// depends on the matrix's pattern alone, so one analysis serves every
// matrix of that pattern (a diagonally shifted copy, say). It is
// immutable, and any number of factorisations may run from it at once.
type CholeskyAnalysis struct {
	n           int
	nnzA        int // stored entries of the analysed matrix
	perm, iperm []int32
	// colPtr[j+1]−colPtr[j] is the structural entry count of column j of
	// L, diagonal included.
	colPtr []int
	// sn holds the first column of every supernode followed by n,
	// colSuper the supernode of each column and sparent the supernode
	// holding each supernode's elimination-tree parent (-1 at a root).
	sn, colSuper, sparent []int32
	// below holds R_s, the rows of supernode s beneath its columns,
	// ascending, at below[belowPtr[s]:belowPtr[s+1]]; maxBelow is the
	// longest.
	below    []int32
	belowPtr []int
	maxBelow int
	// valPtr[j] is where column j's trapezoid column starts in a factor's
	// values: l−j rows of its supernode's columns (l being the first
	// column past it), then |R_s|. valPtr[n] counts the stored values.
	valPtr []int
}

// AnalyzeCholesky runs the symbolic analysis of a, which must be
// structurally symmetric, under the fill-reducing ordering perm
// (perm[k] = original index at permuted position k; nil is the natural
// order). maxEntries caps the structural entries of L (diagonal
// included): the analysis aborts with ErrFactorTooLarge as soon as the
// predicted fill exceeds it, so an over-budget matrix costs one cheap
// structure pass, never a pattern or a factorisation. maxEntries ≤ 0
// means no cap.
func AnalyzeCholesky(a *CSR, perm []int32, maxEntries int) (*CholeskyAnalysis, error) {
	n := a.N()
	perm, iperm, err := ordering(n, perm)
	if err != nil {
		return nil, err
	}
	parent, colPtr, err := cholSymbolic(a, perm, iperm, maxEntries)
	if err != nil {
		return nil, err
	}
	an := &CholeskyAnalysis{n: n, nnzA: len(a.colIdx), perm: perm, iperm: iperm, colPtr: colPtr}
	an.sn = supernodes(parent, colPtr)
	ns := len(an.sn) - 1
	an.colSuper, an.sparent = make([]int32, n), make([]int32, ns)
	for s := range ns {
		for j := an.sn[s]; j < an.sn[s+1]; j++ {
			an.colSuper[j] = int32(s)
		}
	}
	for s := range ns {
		an.sparent[s] = -1
		if p := parent[an.sn[s+1]-1]; p >= 0 {
			an.sparent[s] = an.colSuper[p]
		}
	}
	an.fillBelow(a)
	an.valPtr = make([]int, n+1)
	for s := range int32(ns) {
		l, m := an.sn[s+1], len(an.belowRows(s))
		for j := an.sn[s]; j < l; j++ {
			an.valPtr[j+1] = an.valPtr[j] + int(l-j) + m
		}
	}
	return an, nil
}

// Nnz returns the structural entry count of L, diagonal included: the
// unit of the analysis's cap. A factor stores at most a relaxZeros share
// more, its trapezoids' explicit zeros.
func (an *CholeskyAnalysis) Nnz() int { return an.colPtr[an.n] }

// Bytes returns the bytes the analysis's arrays hold, computed from
// their lengths.
func (an *CholeskyAnalysis) Bytes() int64 {
	int32s := len(an.perm) + len(an.iperm) + len(an.sn) + len(an.colSuper) + len(an.sparent) + len(an.below)
	ints := len(an.colPtr) + len(an.belowPtr) + len(an.valPtr)
	return 4*int64(int32s) + 8*int64(ints)
}

// belowRows returns R_s, the rows of supernode s beneath its columns.
func (an *CholeskyAnalysis) belowRows(s int32) []int32 {
	return an.below[an.belowPtr[s]:an.belowPtr[s+1]]
}

// Factor computes the numeric factorisation of a, which must have the
// pattern the analysis ran on, on up to workers goroutines (≤ 0 means
// GOMAXPROCS). A non-positive or NaN pivot (matrix not SPD, numerically
// singular or carrying a NaN) fails it. Every entry sums its terms in an
// order the pattern alone fixes, so the factor's bits depend on a and
// the ordering, never on workers.
func (an *CholeskyAnalysis) Factor(a *CSR, workers int) (*SparseCholesky, error) {
	if a.N() != an.n || len(a.colIdx) != an.nnzA {
		return nil, fmt.Errorf("sparse: %d-row matrix with %d entries does not have the analysed pattern (%d rows, %d entries)",
			a.N(), len(a.colIdx), an.n, an.nnzA)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &SparseCholesky{n: an.n, an: an, values: make([]float64, an.valPtr[an.n])}
	subtrees, top := an.splitSubtrees(workers)
	c.sched = an.schedule(subtrees, top)
	if err := c.factorSupernodal(a, subtrees, top, workers); err != nil {
		return nil, err
	}
	return c, nil
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

// fillBelow computes R_s, the rows of every supernode s beneath its
// columns, ascending. The pattern of a column of L below its diagonal is
// the union of the permuted A's columns in its elimination subtree below
// it, so R_s — that of s's last column — merges the rows past s of s's
// own columns of A with those of every child supernode's R_s. Children
// precede their parents, so supernodes are filled in order.
func (an *CholeskyAnalysis) fillBelow(a *CSR) {
	ns := len(an.sn) - 1
	an.belowPtr = make([]int, ns+1)
	for s := range ns {
		l := an.sn[s+1]
		m := an.colPtr[l] - an.colPtr[l-1] - 1
		an.belowPtr[s+1] = an.belowPtr[s] + m
		an.maxBelow = max(an.maxBelow, m)
	}
	an.below = make([]int32, an.belowPtr[ns])
	child, sibling := make([]int32, ns), make([]int32, ns)
	for s := range child {
		child[s] = -1
	}
	for s := ns - 1; s >= 0; s-- {
		if p := an.sparent[s]; p >= 0 {
			sibling[s], child[p] = child[p], int32(s)
		}
	}
	var cur, spare []int32
	for s := range int32(ns) {
		l := an.sn[s+1]
		cur = cur[:0]
		for j := an.sn[s]; j < l; j++ {
			cols, _ := a.Row(int(an.perm[j]))
			for _, col := range cols {
				if i := an.iperm[col]; i >= l {
					cur = append(cur, i)
				}
			}
		}
		slices.Sort(cur)
		cur = slices.Compact(cur)
		for ch := child[s]; ch != -1; ch = sibling[ch] {
			rows := an.belowRows(ch)
			from, _ := slices.BinarySearch(rows, l)
			rows = rows[from:]
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
		if len(cur) != an.belowPtr[s+1]-an.belowPtr[s] {
			panic(fmt.Sprintf("sparse: supernode %d has %d rows below it, its last column counts %d", s, len(cur), an.belowPtr[s+1]-an.belowPtr[s]))
		}
		copy(an.below[an.belowPtr[s]:], cur)
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
// maxSupernode × its rows, and descendant blocks are gathered in chunks
// of as many rows. The pieces of a split supernode update one another as
// descendants, which took no measurable time at 64 or 128 columns.
const maxSupernode = 64

// splitSubtrees partitions the supernodes into independent elimination
// subtrees and the top supernodes above them. A supernode is updated by
// its own descendants only, so a subtree factors without any other
// subtree's data. Starting from the roots, the costliest subtree (by the
// summed squared column counts of L, the factor's flop estimate) is cut
// below its root, which joins the top, until there are workers subtrees
// or the costliest is a single supernode. It returns each subtree's
// supernodes ascending, costliest subtree first so the dynamic schedule
// starts the long ones first, and the top supernodes ascending.
func (an *CholeskyAnalysis) splitSubtrees(workers int) (subtrees [][]int32, top []int32) {
	ns := len(an.sn) - 1
	cost := make([]int64, ns)
	child, sibling := make([]int32, ns), make([]int32, ns)
	for s := range ns {
		child[s] = -1
		for j := an.sn[s]; j < an.sn[s+1]; j++ {
			m := int64(an.colPtr[j+1] - an.colPtr[j])
			cost[s] += m * m
		}
	}
	var roots []int32
	for s := range ns { // children come first, so cost[s] is complete here
		if p := an.sparent[s]; p >= 0 {
			cost[p] += cost[s]
			sibling[s], child[p] = child[p], int32(s)
		} else {
			roots = append(roots, int32(s))
		}
	}
	const unassigned, inTop = -2, -1
	owner := make([]int32, ns)
	for s := range owner {
		owner[s] = unassigned
	}
	for len(roots) > 0 && len(roots) < workers {
		big := 0
		for i, r := range roots {
			if cost[r] > cost[roots[big]] {
				big = i
			}
		}
		r := roots[big]
		if child[r] == -1 {
			break
		}
		owner[r] = inTop
		roots[big] = roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		for ch := child[r]; ch != -1; ch = sibling[ch] {
			roots = append(roots, ch)
		}
	}
	slices.SortFunc(roots, func(x, y int32) int {
		if c := cmp.Compare(cost[y], cost[x]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	for i, r := range roots {
		owner[r] = int32(i)
	}
	for s := ns - 1; s >= 0; s-- { // parents first
		if owner[s] == unassigned {
			owner[s] = owner[an.sparent[s]]
		}
	}
	subtrees = make([][]int32, len(roots))
	for s := range ns {
		if o := owner[s]; o == inTop {
			top = append(top, int32(s))
		} else {
			subtrees[o] = append(subtrees[o], int32(s))
		}
	}
	return subtrees, top
}

// solveSchedule orders a factor's supernodes for a concurrent solve.
// The rows of an elimination subtree take updates from its own columns
// alone, so the forward sweep first runs every subtree at once, each
// supernode s updating only R_s[:inner[s]], its rows in its own subtree
// (R_s ascends along s's ancestors, so those come first). One ascending
// pass over tail follows: a top supernode (inner −1) in full, a subtree
// supernode only its updates of the top rows R_s[inner[s]:]. The backward
// sweep runs the top supernodes, descending, then every subtree at once.
// Each entry thus takes its terms in the serial sweep's order.
type solveSchedule struct {
	subtrees [][]int32 // each subtree's supernodes, ascending
	tail     []int32   // the top supernodes and the subtree supernodes with top rows, ascending
	inner    []int32   // per supernode, its rows of R_s in its own subtree; −1 in the top
}

// schedule builds the solve schedule of the split splitSubtrees made.
func (an *CholeskyAnalysis) schedule(subtrees [][]int32, top []int32) solveSchedule {
	ns := len(an.sn) - 1
	owner := make([]int32, ns)
	for _, s := range top {
		owner[s] = -1
	}
	for i, sub := range subtrees {
		for _, s := range sub {
			owner[s] = int32(i)
		}
	}
	sc := solveSchedule{subtrees: subtrees, inner: make([]int32, ns)}
	for s := range int32(ns) {
		if owner[s] < 0 {
			sc.inner[s] = -1
			sc.tail = append(sc.tail, s)
			continue
		}
		rows := an.belowRows(s)
		in := 0
		for in < len(rows) && owner[an.colSuper[rows[in]]] == owner[s] {
			in++
		}
		sc.inner[s] = int32(in)
		if in < len(rows) {
			sc.tail = append(sc.tail, s)
		}
	}
	return sc
}

// supernodal is one numeric factorisation in progress. A factored
// supernode k waits in a pending list keyed by the supernode holding
// R_k[cursor[k]], the first of its rows below it not yet updated;
// link chains the lists, whose heads belong to the worker that enqueued
// k (cholWorker.head). Only the worker factoring k's subtree writes k's
// trapezoid, link and cursor, and the top supernodes run after every
// subtree is done.
type supernodal struct {
	c            *SparseCholesky
	a            *CSR
	an           *CholeskyAnalysis
	link, cursor []int32
	// blockLen sizes a descendant block: up to 2·maxSupernode rows (a
	// target's columns plus one chunk of the rows below them) × the
	// widest supernode.
	blockLen int
}

// cholWorker is one goroutine's scratch: the panel and descendant block,
// the panel offsets, the row → panel-row map of the current supernode
// and the heads of the pending lists it fills.
type cholWorker struct {
	panel, block   []float64
	rowOff, colOff []int32
	relMap, head   []int32
	desc           []int32
}

// factorSupernodal is the numeric phase, left-looking over the relaxed
// supernodes of L. The subtrees below the top supernodes are factored
// concurrently on up to workers goroutines, each with its own scratch
// and pending lists, then the top supernodes in ascending order, each
// gathering its descendants from every worker's lists. Every supernode
// thus sees the updates of all its descendants in ascending order, as an
// ascending serial pass applies them.
func (c *SparseCholesky) factorSupernodal(a *CSR, subtrees [][]int32, top []int32, workers int) error {
	an := c.an
	ns := len(an.sn) - 1
	f := &supernodal{c: c, a: a, an: an, link: make([]int32, ns), cursor: make([]int32, ns)}
	maxWidth, maxRows := 0, 0
	for s := range int32(ns) {
		w := int(an.sn[s+1] - an.sn[s])
		maxWidth = max(maxWidth, w)
		maxRows = max(maxRows, w+len(an.belowRows(s)))
	}
	f.blockLen = 2 * maxSupernode * maxWidth
	ws := make([]*cholWorker, max(1, min(workers, len(subtrees))))
	worker := func(w int, list []int32) *cholWorker {
		wk := ws[w]
		if wk == nil {
			wk = &cholWorker{
				block:  make([]float64, f.blockLen),
				rowOff: make([]int32, maxRows), colOff: make([]int32, maxRows),
				relMap: make([]int32, c.n), head: make([]int32, ns),
			}
			for i := range wk.head {
				wk.head[i] = -1
			}
			ws[w] = wk
		}
		need := 0
		for _, s := range list {
			w := int(an.sn[s+1] - an.sn[s])
			need = max(need, (w+len(an.belowRows(s)))*w)
		}
		if len(wk.panel) < need {
			wk.panel = make([]float64, need)
		}
		return wk
	}
	errs, failedAt := make([]error, len(subtrees)), make([]int32, len(subtrees))
	parallel.ForEach(len(ws), len(subtrees), func(w, i int) error { //nolint:errcheck // failures land in errs
		wk := worker(w, subtrees[i])
		for _, s := range subtrees[i] {
			if err := f.factor(wk, s, ws[w:w+1]); err != nil {
				errs[i], failedAt[i] = err, s
				return nil
			}
		}
		return nil
	})
	// Report the lowest failing supernode's pivot, whichever worker saw it.
	first := -1
	for i, err := range errs {
		if err != nil && (first < 0 || failedAt[i] < failedAt[first]) {
			first = i
		}
	}
	if first >= 0 {
		return errs[first]
	}
	wk := worker(0, top)
	for _, s := range top {
		if err := f.factor(wk, s, ws); err != nil {
			return err
		}
	}
	return nil
}

// enqueue puts factored supernode k on wk's pending list of the
// supernode holding its first row not yet updated, if any is left.
func (f *supernodal) enqueue(wk *cholWorker, k int32) {
	if kb := f.an.belowRows(k); int(f.cursor[k]) < len(kb) {
		t := f.an.colSuper[kb[f.cursor[k]]]
		f.link[k], wk.head[t] = wk.head[t], k
	}
}

// factor factors supernode s with wk's scratch. It gathers s's columns
// of the permuted A into a dense row-major panel — its rows (its own
// columns, then R_s) × its columns —, subtracts the update of every
// descendant waiting on s in the pending lists of lists, in ascending
// order, factors the panel (factorPanel) and writes it into s's
// trapezoid, whose columns hold the panel's rows in the same order; each
// of those descendants, and s itself, then waits on its next target in
// wk's lists. Every entry sums its terms in an order the pattern alone
// fixes, and structural zeros of a relaxed panel stay exact zeros: each
// of their terms has a zero factor.
func (f *supernodal) factor(wk *cholWorker, s int32, lists []*cholWorker) error {
	c, an, sn := f.c, f.an, f.an.sn
	fc, l := int(sn[s]), int(sn[s+1])
	w := l - fc
	rows := an.belowRows(s)
	nr := w + len(rows)
	p, relMap := wk.panel[:nr*w], wk.relMap
	clear(p)
	for i := fc; i < l; i++ {
		relMap[i] = int32(i - fc)
	}
	for i, r := range rows {
		relMap[r] = int32(w + i)
	}
	for j := fc; j < l; j++ {
		cols, vals := f.a.Row(int(an.perm[j]))
		for q, col := range cols {
			if i := an.iperm[col]; i >= int32(j) {
				p[int(relMap[i])*w+j-fc] = vals[q]
			}
		}
	}
	desc := wk.desc[:0]
	for _, o := range lists {
		if o != nil {
			for k := o.head[s]; k != -1; k = f.link[k] {
				desc = append(desc, k)
			}
		}
	}
	slices.Sort(desc)
	wk.desc = desc
	rowOff, colOff := wk.rowOff, wk.colOff
	for _, k := range desc {
		// Rows kb[p1:] of k update the panel; kb[p1:p2] are the panel's
		// own columns. Those come first, then the rows below them in
		// chunks of maxSupernode, against the same columns.
		kb := an.belowRows(k)
		p1 := int(f.cursor[k])
		p2 := p1
		for p2 < len(kb) && int(kb[p2]) < l {
			p2++
		}
		nc, v := p2-p1, int(sn[k+1]-sn[k])
		cols := c.gatherRows(wk.block, k, p1, p2)
		for j, r := range kb[p1:p2] {
			rowOff[j] = relMap[r]
			colOff[j] = r - int32(fc)
		}
		subLowerProducts(p, w, rowOff[:nc], colOff[:nc], cols, cols, v, v, 0)
		for r0 := p2; r0 < len(kb); r0 += maxSupernode {
			r1 := min(r0+maxSupernode, len(kb))
			chunk := c.gatherRows(wk.block[nc*v:], k, r0, r1)
			for i, r := range kb[r0:r1] {
				rowOff[i] = relMap[r]
			}
			subLowerProducts(p, w, rowOff[:r1-r0], colOff[:nc], chunk, cols, v, v, r0-p1)
		}
		f.cursor[k] = int32(p2)
		f.enqueue(wk, k)
	}
	if err := factorPanel(p, nr, w, fc, rowOff, colOff); err != nil {
		return err
	}
	for t := range w {
		col := c.values[an.valPtr[fc+t]:an.valPtr[fc+t+1]]
		for i := range col {
			col[i] = p[(t+i)*w+t]
		}
	}
	f.enqueue(wk, s)
	return nil
}

// gatherRows copies the rows R_k[from:to] of supernode k's columns into
// buf as a row-major block, one row per row and one entry per column,
// and returns that block. Each column holds R_k contiguously after its
// rows inside the supernode, so the block is a transposing copy by
// position, explicit zeros included.
func (c *SparseCholesky) gatherRows(buf []float64, k int32, from, to int) []float64 {
	an := c.an
	g, v := int(an.sn[k]), int(an.sn[k+1]-an.sn[k])
	b := buf[:(to-from)*v]
	for t := range v {
		at := an.valPtr[g+t] + v - t // R_k[0] in column g+t
		for i, x := range c.values[at+from : at+to] {
			b[i*v+t] = x
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

// Nnz returns the structural entry count of the factor L, diagonal
// included; Values holds that many plus its trapezoids' explicit zeros.
func (c *SparseCholesky) Nnz() int { return c.an.Nnz() }

// Perm returns a copy of the fill-reducing ordering the factorisation
// ran under (perm[k] = original index at permuted position k).
func (c *SparseCholesky) Perm() []int32 {
	return slices.Clone(c.an.perm)
}

// Subtrees returns the number of independent elimination subtrees the
// numeric phase factored concurrently (1 for a serial factorisation of a
// connected matrix); a solve runs at most that many goroutines.
func (c *SparseCholesky) Subtrees() int { return len(c.sched.subtrees) }

// Values returns the factor's stored values in the order CholeskySolve
// reads them: supernode by supernode, each trapezoid column by column,
// each column from its diagonal down. The slice aliases the factor and
// must not be modified.
func (c *SparseCholesky) Values() []float64 { return c.values }

// CholeskyScratch is the scratch of one caller's CholeskySolve calls in
// the precision of F: the permuted vector and one buffer per worker for
// a supernode's rows below it. Not safe for concurrent use.
type CholeskyScratch[F Float] struct {
	y      []F
	gather [][]F
}

// NewCholeskyScratch returns scratch for solves with c on up to workers
// goroutines (≤ 0 means GOMAXPROCS), capped at c's subtree count.
func NewCholeskyScratch[F Float](c *SparseCholesky, workers int) *CholeskyScratch[F] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &CholeskyScratch[F]{y: make([]F, c.n), gather: make([][]F, max(1, min(workers, c.Subtrees())))}
	for w := range s.gather {
		s.gather[w] = make([]F, c.an.maxBelow)
	}
	return s
}

// CholeskySolve overwrites b with A⁻¹·b in the precision of F, using
// vals as the factor values — Values() itself for float64, a rounded
// copy of them for float32 — and s's scratch. Supernode by supernode, the
// forward sweep gathers y[R_s] once and subtracts each column from the
// supernode's rows below it as contiguous AXPYs; the backward sweep
// takes each column's one-accumulator dot product with them. On one
// worker it runs on the calling goroutine and allocates nothing; on more
// it runs the factor's elimination subtrees concurrently
// (solveSchedule). Either way every structural entry of L takes part in
// the same operation, in the same order, as in a column-by-column sweep
// of the structural entries, so the bits of the result do not depend on
// the worker count; the trapezoids' explicit zeros add terms ±0, which
// change no value of an input free of −0, Inf and NaN. Safe for
// concurrent calls with distinct b and s.
func CholeskySolve[F Float](c *SparseCholesky, vals, b []F, s *CholeskyScratch[F]) {
	y := s.y
	if len(b) != c.n || len(y) != c.n || len(vals) != len(c.values) {
		panic("sparse: SparseCholesky solve dimension mismatch")
	}
	an, sc := c.an, &c.sched
	for k, o := range an.perm {
		y[k] = b[o]
	}
	ns := int32(len(an.sn) - 1)
	if len(s.gather) == 1 {
		g := s.gather[0]
		for k := range ns {
			forwardSuper(an, vals, y, g, k, 0, len(an.belowRows(k)), true)
		}
		for k := ns - 1; k >= 0; k-- {
			backwardSuper(an, vals, y, g, k)
		}
	} else {
		parallel.ForEach(len(s.gather), len(sc.subtrees), func(w, i int) error { //nolint:errcheck // fn never fails
			for _, k := range sc.subtrees[i] {
				forwardSuper(an, vals, y, s.gather[w], k, 0, int(sc.inner[k]), true)
			}
			return nil
		})
		g := s.gather[0]
		for _, k := range sc.tail {
			if in := int(sc.inner[k]); in < 0 {
				forwardSuper(an, vals, y, g, k, 0, len(an.belowRows(k)), true)
			} else {
				forwardSuper(an, vals, y, g, k, in, len(an.belowRows(k)), false)
			}
		}
		for i := len(sc.tail) - 1; i >= 0; i-- {
			if k := sc.tail[i]; sc.inner[k] < 0 {
				backwardSuper(an, vals, y, g, k)
			}
		}
		parallel.ForEach(len(s.gather), len(sc.subtrees), func(w, i int) error { //nolint:errcheck // fn never fails
			sub := sc.subtrees[i]
			for t := len(sub) - 1; t >= 0; t-- {
				backwardSuper(an, vals, y, s.gather[w], sub[t])
			}
			return nil
		})
	}
	for k, o := range an.perm {
		b[o] = y[k]
	}
}

// forwardSuper runs supernode k's part of the forward sweep L·y = P·b
// over its rows R_k[from:to], gathered into g: with own set it first
// solves each column's pivot and updates the supernode's rows below it
// inside the supernode; without, its columns are already solved. The
// rows of R_k then take the columns' updates four columns at a time,
// each entry still subtracting them one by one, left to right.
func forwardSuper[F Float](an *CholeskyAnalysis, vals, y, g []F, k int32, from, to int, own bool) {
	fc, l := int(an.sn[k]), int(an.sn[k+1])
	if own {
		for j := fc; j < l; j++ {
			col := vals[an.valPtr[j]:an.valPtr[j+1]]
			yj := y[j] / col[0]
			y[j] = yj
			subScaled(y[j+1:l], col[1:l-j], yj)
		}
	}
	rows := an.belowRows(k)[from:to]
	g = g[:len(rows)]
	for i, r := range rows {
		g[i] = y[r]
	}
	below := func(j int) []F { // column j's entries in rows R_k[from:to]
		return vals[an.valPtr[j]+l-j+from:][:len(g)]
	}
	j := fc
	for ; j+4 <= l; j += 4 {
		subScaled4(g, below(j), below(j+1), below(j+2), below(j+3), y[j], y[j+1], y[j+2], y[j+3])
	}
	for ; j < l; j++ {
		subScaled(g, below(j), y[j])
	}
	for i, r := range rows {
		y[r] = g[i]
	}
}

// backwardSuper runs supernode k's part of the backward sweep Lᵀ·x = y,
// its columns right to left, with R_k's solved values gathered into g.
func backwardSuper[F Float](an *CholeskyAnalysis, vals, y, g []F, k int32) {
	fc, l := int(an.sn[k]), int(an.sn[k+1])
	rows := an.belowRows(k)
	g = g[:len(rows)]
	for i, r := range rows {
		g[i] = y[r]
	}
	for j := l - 1; j >= fc; j-- {
		col := vals[an.valPtr[j]:an.valPtr[j+1]]
		s := subProducts(y[j], col[1:l-j], y[j+1:l])
		s = subProducts(s, col[l-j:], g)
		y[j] = s / col[0]
	}
}

// subScaled subtracts x[i]·a from dst[i] for every i (len(dst) ≥ len(x)).
func subScaled[F Float](dst, x []F, a F) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] -= v * a
	}
}

// subScaled4 subtracts x0[i]·a0, x1[i]·a1, x2[i]·a2 and x3[i]·a3 from
// dst[i], in that order, for every i (all of dst's length).
func subScaled4[F Float](dst, x0, x1, x2, x3 []F, a0, a1, a2, a3 F) {
	x0, x1, x2, x3 = x0[:len(dst)], x1[:len(dst)], x2[:len(dst)], x3[:len(dst)]
	for i, v := range dst {
		dst[i] = v - x0[i]*a0 - x1[i]*a1 - x2[i]*a2 - x3[i]*a3
	}
}

// subProducts returns s minus every x[i]·y[i], subtracted one at a time
// in index order (len(y) ≥ len(x)).
func subProducts[F Float](s F, x, y []F) F {
	y = y[:len(x)]
	for i, v := range x {
		s -= v * y[i]
	}
	return s
}
