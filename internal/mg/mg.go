// Package mg implements the geometric-multigrid preconditioned conjugate
// gradient solver ("mg-cg") for the structured-grid SPD systems the FVM
// thermal solver assembles; it is the only solver the thermal stack
// runs. One V-cycle over a semicoarsened mesh hierarchy per CG iteration
// makes the iteration count roughly independent of mesh resolution,
// turning paper-resolution steady solves from O(n·√κ) into near-O(n).
//
// The hierarchy semicoarsens the lateral axes only — x and y grid lines
// are thinned 2:1 while the thin, strongly non-uniform z stack (BCB,
// copper, heater layers) is kept at full resolution, which preserves the
// vertical material structure the paper's package model lives on. Coarse
// operators are Galerkin (RAP) products of the assembled fine matrix, so
// material discontinuities are carried down the hierarchy without any
// re-discretisation; transfer operators are tensor-product linear
// interpolation between cell centres (prolongation) and its transpose
// (full-weighting restriction). Every row of one lateral line of a level
// stores the same stencil of (line, layer offset) slots — fvm's 7-point
// shape, which the products keep because z is never coarsened — so
// BuildHierarchy checks it once on the finest operator, and each product
// builds a coarse line's rows, and each smoother lays out a line's
// couplings, for all its layers at once. Levels are smoothed with
// symmetric z-line relaxation — exact tridiagonal (Thomas) solves along
// each vertical cell column, the robust partner of lateral
// semicoarsening on stacks whose µm-thin layers couple far more strongly
// in z than in the plane — relaxed colour class by colour class on the
// worker pool.
//
// The V-cycle numbers every level z-line-major: cell (lateral line l,
// layer k) sits at l·nz+k, so a line's iterate, right-hand side and
// Thomas coefficients are contiguous for the smoother. Every level below
// the finest stores its Galerkin operator in that numbering, each row
// keeping the entry order the layer-major numbering (k·lines+l) would
// give it, so residuals and transfers add in the same order, and round
// the same, whichever numbering runs. The finest operator is the
// caller's layer-major matrix: the preconditioner permutes at entry and
// exit, and the finest residual walks the caller's rows while reading and
// writing the line-major vectors, so no level is stored twice and no
// vector is copied for it.
//
// The V-cycle is written once, generic over float32 and float64. Each
// precision reads its own cycle arrays, built once per hierarchy by the
// first solve of that precision: the float64 cycle reads the hierarchy's
// operator values and Thomas coefficients in place, the float32 cycle
// rounded copies of them, which halve the memory traffic of the
// bandwidth-bound stencil sweeps inside a float64 outer CG. Both read the
// off-line couplings the line smoothers move to the right-hand side
// packed in their own precision, gathered straight from the operators'
// rows once per hierarchy and precision and shared with every hierarchy
// Shifted derives, whose off-line entries are the same; no float64 copy
// of them is kept for the float32 cycle. The outer tolerance and the
// system size pick the precision (float32 at 1e-9 or looser on at most
// 2¹⁹ cells), so a Solver is configured by its hierarchy, its tolerance
// and its worker cap alone, and equal tolerances on equal systems give
// equal bits. The coarsest level is always solved exactly by a sparse
// Cholesky factor under a nested-dissection ordering, built once per
// hierarchy by the first solve that needs it (its time is
// PhaseStats.Factor): BuildHierarchy
// appends levels merged against each axis's finest pair until that
// factor fits defaultCoarseBudget, keeping the symbolic analysis of the
// level that fits, so the V-cycle stays a fixed SPD operator, as the
// outer CG requires, at every mesh size. Each V-cycle's coarse solve
// runs the factor's triangular sweeps supernode by supernode on the
// solver's workers (the coarsest level's count by the rule of the level
// products), its independent elimination subtrees concurrently;
// restriction builds each coarse row from its fine rows and
// prolongation writes each fine line, on the level's workers. Every one
// of them sums each value's terms in one fixed order, so a solve's bits
// do not depend on its worker count.
//
// A Hierarchy is built once per matrix from the mesh geometry behind it
// and shared by every Solver of that matrix; fvm.System caches one for
// its steady operator and derives a shifted one per transient time step.
// Its one-off set-up — the Galerkin products, the line smoothers'
// factorisations, the coarse factor and the cycle arrays — runs on the
// workers the hierarchy was built with (BuildHierarchy's Options.Workers;
// GOMAXPROCS under fvm), never on those of the solver that first asks,
// and every value it computes sums its terms in a fixed order, so its
// bits do not depend on the worker count. FootprintOf reports the bytes
// its arrays hold.
package mg

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"vcselnoc/internal/parallel"
	"vcselnoc/internal/sparse"
)

// Options parameterises the mg-cg solver. The zero value is a good
// default for FVM conduction systems.
type Options struct {
	// Tolerance is the outer CG relative residual target; 0 means 1e-9.
	// With the system's size it picks the V-cycle's precision
	// (Precision). The outer CG gives up after 10·n iterations.
	Tolerance float64
	// Workers caps the goroutines of every V-cycle kernel — matrix-vector
	// products, the red-black line smoother's per-colour relaxations,
	// restriction, prolongation and the coarse triangular solve, which
	// runs the factor's elimination subtrees concurrently —; 0 means
	// GOMAXPROCS. Levels under 4096 cells run them serially, allocating
	// nothing (sparse.MulVecWorkers), and no kernel's bits depend on the
	// count. Passed to BuildHierarchy, it caps the
	// hierarchy's one-off set-up instead: the Galerkin products, the line
	// smoothers' factorisations and the coarse factor of the hierarchy and
	// of every hierarchy Shifted derives from it, whose bits are the same
	// for any count. A Solver's Workers never changes the hierarchy it is
	// given.
	Workers int

	// Test hooks. levels caps the hierarchy depth including the finest
	// level (0 = coarsen until the lateral grid is a few cells wide), lex
	// relaxes lines in serial lexicographic order instead of colour by
	// colour (the reference ordering), budget replaces defaultCoarseBudget
	// (0 = default), and precision forces the V-cycle's arithmetic
	// (precisionFloat32 or precisionFloat64; "" = Precision's rule).
	levels    int
	lex       bool
	budget    int
	precision string
}

// V-cycle precisions. precisionFloat32 applies the whole preconditioner
// — level operators, transfers, Thomas line solves and the coarse
// triangular solve — in single precision, halving memory traffic on the
// bandwidth-bound stencil ops while the outer CG stays float64.
const (
	precisionFloat64 = "float64"
	precisionFloat32 = "float32"
)

// autoFloat32Tol is the loosest outer tolerance at which the float32
// V-cycle still runs, and autoFloat32MaxCells the largest fine-level
// system: a float32 preconditioner perturbs search directions at the
// ~1e-7 level, irrelevant at practical tolerances but worth avoiding when
// callers push the outer CG towards float64 roundoff, and single-precision
// rounding inside the cycle accumulates with system size (restriction
// sums and long dot products): at ~1M cells the weakened preconditioner
// starts costing an extra outer CG iteration — expensive exactly where
// iterations are dearest.
const (
	autoFloat32Tol      = 1e-9
	autoFloat32MaxCells = 1 << 19
)

// Precision returns the V-cycle precision, "float32" or "float64", of a
// solver with these options on a fine-level system of n unknowns:
// float32 at practical tolerances on small-to-mid systems, float64
// otherwise. The tolerance and n alone decide it, unless the precision
// test hook forces one.
func (o Options) Precision(n int) string {
	if o.precision != "" {
		return o.precision
	}
	tol := o.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}
	if tol >= autoFloat32Tol && n <= autoFloat32MaxCells {
		return precisionFloat32
	}
	return precisionFloat64
}

// effectiveWorkers resolves the Workers knob to a concrete goroutine cap.
func (o Options) effectiveWorkers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// minCoarsenCells is the per-axis cell count below which an axis is no
// longer coarsened, and lateralTargetCells stops the hierarchy once the
// x-y plane is small enough that the exact coarse solve (lateral × the
// fixed z stack) is cheap.
const (
	minCoarsenCells    = 4
	lateralTargetCells = 20
)

// axisInterp is the 1D cell-centred transfer operator of one axis: fine
// cell i interpolates linearly between the two coarse cells whose centres
// bracket it. It doubles as its own adjoint via the rev lists
// (full-weighting restriction).
type axisInterp struct {
	nc int
	// lo/hi are the coarse source cells of each fine cell; hi == lo with
	// whi == 0 where a single source suffices (domain ends, identity).
	lo, hi   []int32
	wlo, whi []float64
	// rev lists the fine contributors of each coarse cell (the transpose
	// structure, used by restriction and the Galerkin product).
	rev  [][]int32
	revW [][]float64
}

// centersOf returns the cell-centre coordinates of a line set.
func centersOf(lines []float64) []float64 {
	c := make([]float64, len(lines)-1)
	for i := range c {
		c[i] = (lines[i] + lines[i+1]) / 2
	}
	return c
}

// coarsenLines merges adjacent cells pairwise, left to right, keeping
// coarse lines a subset of fine ones. The merge is size-adaptive: a pair
// only fuses while both cells are within pairRatioCap of the reference
// width ref, so on the strongly graded floorplan meshes this code exists
// for (runs of ~10 µm device cells separated by ~900 µm gap cells) the
// fine runs halve level by level while the already-coarse gap cells stay
// untouched until the fine cells have grown comparable. Merging the gap
// cells early was measured to destroy convergence on the thermal model
// (5 → ~120 CG iterations): their fused centres drift further from the
// device regions whose error the coarse grid must represent, and plain
// every-other-line coarsening fails the same way for the same reason. On
// a uniform axis the rule degenerates to the classic 2:1 coarsening.
// The regular levels pass the axis's finest cell (finestCell) as ref,
// rebalanceCoarse passes its finest pair (finestPair).
func coarsenLines(lines []float64, ref float64) []float64 {
	n := len(lines) - 1
	out := make([]float64, 0, n/2+2)
	out = append(out, lines[0])
	for i := 0; i < n; {
		if i+1 < n && max(lines[i+1]-lines[i], lines[i+2]-lines[i+1]) <= pairRatioCap*ref {
			out = append(out, lines[i+2])
			i += 2
			continue
		}
		out = append(out, lines[i+1])
		i++
	}
	return out
}

// finestCell returns the width of the axis's finest cell.
func finestCell(lines []float64) float64 {
	w := math.Inf(1)
	for i := 1; i < len(lines); i++ {
		w = min(w, lines[i]-lines[i-1])
	}
	return w
}

// finestPair returns the axis's finest pair: the smallest
// max(wᵢ, wᵢ₊₁) over adjacent cells (+Inf on a single cell).
func finestPair(lines []float64) float64 {
	w := math.Inf(1)
	for i := 2; i < len(lines); i++ {
		w = min(w, max(lines[i-1]-lines[i-2], lines[i]-lines[i-1]))
	}
	return w
}

// pairRatioCap is the largest multiple of the reference width a cell may
// reach and still merge. 4 tolerates the 2:1 remainders greedy pairing
// leaves (an odd-length fine run keeps one half-width cell) and smoothly
// graded meshes, while deferring the merge of hard size jumps until the
// levels below have evened them out.
const pairRatioCap = 4.0

// newAxisInterp builds the linear interpolation from coarse cell centres
// to fine cell centres. Passing identical line sets yields the identity.
func newAxisInterp(fineLines, coarseLines []float64) *axisInterp {
	cf := centersOf(fineLines)
	cc := centersOf(coarseLines)
	nf, nc := len(cf), len(cc)
	a := &axisInterp{
		nc:   nc,
		lo:   make([]int32, nf),
		hi:   make([]int32, nf),
		wlo:  make([]float64, nf),
		whi:  make([]float64, nf),
		rev:  make([][]int32, nc),
		revW: make([][]float64, nc),
	}
	for i, x := range cf {
		j := sort.SearchFloat64s(cc, x) // first coarse centre ≥ x
		var lo, hi int
		var wlo, whi float64
		switch {
		case j == 0:
			lo, hi, wlo, whi = 0, 0, 1, 0
		case j == nc:
			lo, hi, wlo, whi = nc-1, nc-1, 1, 0
		default:
			lo, hi = j-1, j
			w := (x - cc[lo]) / (cc[hi] - cc[lo])
			wlo, whi = 1-w, w
			// Collapse (near-)degenerate weights so identity axes and
			// coincident centres store a single clean entry.
			if whi == 0 {
				hi = lo
			} else if wlo == 0 {
				lo, wlo, whi = hi, whi, 0
				hi = lo
			}
		}
		a.lo[i], a.hi[i] = int32(lo), int32(hi)
		a.wlo[i], a.whi[i] = wlo, whi
		a.rev[lo] = append(a.rev[lo], int32(i))
		a.revW[lo] = append(a.revW[lo], wlo)
		if whi != 0 {
			a.rev[hi] = append(a.rev[hi], int32(i))
			a.revW[hi] = append(a.revW[hi], whi)
		}
	}
	return a
}

// level is one rung of the hierarchy: its operator plus the transfer maps
// to the next coarser rung (nil on the coarsest). z is never coarsened,
// so the transfers are lateral only: coarse cell (cl, k) collects fine
// cells (fl, k) of the same layer.
type level struct {
	a          *sparse.CSR
	nx, ny, nz int
	ix, iy     *axisInterp
	ls         *lineSmoother
	// st is the operator's per-line stencil while BuildHierarchy runs:
	// the Galerkin product below the level reads it and drops it.
	st *stencil
	// layerMajor marks an operator numbered layer-major, cell (l, k) at
	// row k·nx·ny+l: the finest level's, which is the caller's matrix.
	// Every coarser operator is numbered line-major, (l, k) at l·nz+k.
	layerMajor bool
}

// stencil is the per-line sparsity of one level's operator. Every row of
// lateral line l stores the same slots — a column's lateral line and its
// layer offset −1, 0 or +1 — in the same order, ascending (offset,
// line), which is the layer-major column order; the bottom row of the
// line drops the slots of offset −1 and the top row those of offset +1,
// which fall outside the stack. fvm's 7-point operators have this shape
// and, z never being coarsened, so does every Galerkin product of them:
// BuildHierarchy derives and checks the finest operator's stencil once
// (finestStencil), each product emits its coarse level's (galerkin), and
// each level's line smoother is laid out from its level's.
type stencil struct {
	ptr  []int32 // the slots of line l are ptr[l] ≤ s < ptr[l+1]
	line []int32 // each slot's lateral line
	dz   []int8  // each slot's layer offset
}

// slots returns the lateral lines and layer offsets of line l's slots.
func (st *stencil) slots(l int) (lines []int32, dz []int8) {
	lo, hi := st.ptr[l], st.ptr[l+1]
	return st.line[lo:hi], st.dz[lo:hi]
}

// layerSlots returns the range [lo, hi) of the slots, of layer offsets
// dz, that one line's row at layer k of an nz-layer stack stores: all but
// the leading offset −1 slots on the bottom layer and the trailing
// offset +1 slots on the top layer.
func layerSlots(dz []int8, k, nz int) (lo, hi int) {
	hi = len(dz)
	if k == 0 {
		for lo < hi && dz[lo] < 0 {
			lo++
		}
	}
	if k == nz-1 {
		for hi > lo && dz[hi-1] > 0 {
			hi--
		}
	}
	return lo, hi
}

// finestStencil derives the stencil of the finest level lv from the two
// end rows of each line — the offset −1 slots of its top row, then the
// slots of its bottom row — and checks that every row of the line stores
// exactly the slots that stay inside the stack, in that order. A row
// that couples layers more than one apart, stores its columns out of
// ascending order or does not share its line's stencil is refused by
// name: the z-line smoother, the per-line Galerkin product and
// fineResidual all rely on the shape. The end rows are read serially;
// the check runs in blocks of lineChunk lines on up to workers
// goroutines and reports the first failing row in line order.
func finestStencil(lv *level, workers int) (*stencil, error) {
	lines, nz := lv.nx*lv.ny, lv.nz
	st := &stencil{ptr: make([]int32, lines+1)}
	ends := []int{nz - 1, 0}
	if nz == 1 {
		ends = ends[1:]
	}
	for l := range lines {
		last := -1 // the layer-major key, (d+1)·lines + line, of the last slot
		for _, k := range ends {
			i := lv.cell(l, k)
			cols, _ := lv.a.Row(i)
			for _, c := range cols {
				cl, ck := lv.lineOf(int(c))
				d := ck - k
				if d < -1 || d > 1 {
					return nil, lv.rowError(i, k)
				}
				if (d < 0) != (k > 0) { // the top row gives the offset −1 slots alone
					continue
				}
				if key := (d+1)*lines + cl; key > last {
					last = key
				} else {
					return nil, fmt.Errorf("mg: row %d stores its columns out of ascending order", i)
				}
				st.line = append(st.line, int32(cl))
				st.dz = append(st.dz, int8(d))
			}
		}
		st.ptr[l+1] = int32(len(st.line))
	}
	err := lv.eachLine(workers, func(l int) error {
		sl, sd := st.slots(l)
		for k := range nz {
			i := lv.cell(l, k)
			cols, _ := lv.a.Row(i)
			lo, hi := layerSlots(sd, k, nz)
			if len(cols) != hi-lo {
				return lv.rowError(i, k)
			}
			for q, c := range cols {
				if s := lo + q; int(c) != lv.cell(int(sl[s]), k+int(sd[s])) {
					return lv.rowError(i, k)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// rowError describes why row i, at layer k of lv, breaks the stencil
// shape: a coupling more than one layer apart, or else a row that does
// not share its line's stencil.
func (lv *level) rowError(i, k int) error {
	cols, _ := lv.a.Row(i)
	for _, c := range cols {
		if _, ck := lv.lineOf(int(c)); ck < k-1 || ck > k+1 {
			return fmt.Errorf("mg: cell %d couples layers %d and %d (more than one apart)", i, k, ck)
		}
	}
	l, _ := lv.lineOf(i)
	return fmt.Errorf("mg: row %d (line %d, layer %d) does not store its line's stencil", i, l, k)
}

// cell returns the row of lv.a holding cell (lateral line l, layer k).
func (lv *level) cell(l, k int) int {
	if lv.layerMajor {
		return k*lv.nx*lv.ny + l
	}
	return l*lv.nz + k
}

// lineOf returns the lateral line and layer of row c of lv.a.
func (lv *level) lineOf(c int) (l, k int) {
	if lv.layerMajor {
		lines := lv.nx * lv.ny
		return c % lines, c / lines
	}
	return c / lv.nz, c % lv.nz
}

// lineSmoother holds what the z-line relaxation of one level reads
// besides values, in the line-major numbering every V-cycle vector uses.
// Because z is never coarsened and the operator's z-coupling is confined
// to the same lateral position, the entries coupling layers k±1 of one
// line form an exact tridiagonal system per (i, j) line on every Galerkin
// level; solving it exactly per sweep removes the strongly-coupled
// vertical error components a point smoother crawls through. The
// smoother keeps the float64 Thomas coefficients of those systems, which
// its pivot check computes, and the structure of every remaining
// (off-line) row entry: the cells they couple to, in row order, in a
// CSR-like store the sweep walks linearly, so the hot loop touches no
// branch-filtered a.Row() slices. Their values are packed per V-cycle
// precision (packOffLine) into the cycle arrays. The struct also carries
// a colouring of the line-coupling graph: lines of one colour share no
// matrix entry and may be relaxed concurrently with a result
// bit-identical to relaxing them one by one. It is immutable after
// construction and shared (read-only) by all solvers of a hierarchy; the
// smoothers of a shifted hierarchy share its steady one's offPtr, offCol
// and colours and hold Thomas coefficients of their own.
type lineSmoother struct {
	lines, nz int
	// Line-major Thomas coefficients: entry j = l·nz + k holds layer k of
	// line l. subL is the coupling to the layer below (zero on the bottom
	// layer); cpL and invL are the forward-elimination coefficients c′_k
	// and 1/(d_k − sub_k·c′_{k−1}).
	subL, cpL, invL []float64
	// The off-line couplings of cell j = l·nz + k are entries
	// offPtr[j] ≤ p < offPtr[j+1] of every packed store, offCol holding
	// their line-major cell indices, all on other lines. These are the
	// couplings the block Gauss–Seidel sweep moves to the right-hand side
	// at their current values.
	offPtr []int32
	offCol []int32
	// colors partitions the lines into structurally independent classes:
	// no two lines of one class share an off-line coupling. The finest
	// level's 5-point lateral stencil yields the classic 2 colours; the
	// Galerkin levels' stencils reach 5×5 lines, so a cell couples to up
	// to 72 cells off its line (12–50 per cell on average, level by
	// level, at the fast tier), and get 9–12.
	colors [][]int32
}

// newLineSmoother lays out the off-line couplings of every lateral line
// of lv from the level's stencil, factorises the vertical tridiagonal of
// every line and colours the line-coupling graph. A non-positive pivot
// means the operator is not SPD. Each cell's off-line couplings are the
// slots of its line's stencil on other lines that stay inside the stack
// at its layer, in slot order, which is its row's order: offPtr follows
// from each line's slot counts per offset, then blocks of lineChunk lines
// are laid out and factored on up to workers goroutines, each line
// writing only its own cells; the first error in line order is reported,
// and the colouring runs serially on the stencil, so the result does not
// depend on workers.
func newLineSmoother(lv *level, workers int) (*lineSmoother, error) {
	st := lv.st
	lines, nz := lv.nx*lv.ny, lv.nz
	n := lines * nz
	ls := &lineSmoother{lines: lines, nz: nz, offPtr: make([]int32, n+1)}
	at := int32(0)
	for l := range lines {
		var off [3]int32 // off-line slots per offset −1, 0, +1
		sl, sd := st.slots(l)
		for s, d := range sd {
			if int(sl[s]) != l {
				off[d+1]++
			}
		}
		for k := range nz {
			at += off[1]
			if k > 0 {
				at += off[0]
			}
			if k < nz-1 {
				at += off[2]
			}
			ls.offPtr[l*nz+k+1] = at
		}
	}
	ls.offCol = make([]int32, at)
	ls.subL, ls.cpL, ls.invL = make([]float64, n), make([]float64, n), make([]float64, n)
	err := lv.eachLine(workers, func(l int) error {
		sl, sd := st.slots(l)
		q := ls.offPtr[l*nz]
		for k := range nz {
			lo, hi := layerSlots(sd, k, nz)
			for s := lo; s < hi; s++ {
				if int(sl[s]) != l {
					ls.offCol[q] = sl[s]*int32(nz) + int32(k) + int32(sd[s])
					q++
				}
			}
		}
		return ls.factorLine(lv, l)
	})
	if err != nil {
		return nil, err
	}
	ls.colors = colorLines(st)
	return ls, nil
}

// eachLine runs fn on every lateral line of lv, in blocks of lineChunk
// lines on up to workers goroutines by the rule of the level's products,
// and returns the first error in line order.
func (lv *level) eachLine(workers int, fn func(l int) error) error {
	lines := lv.nx * lv.ny
	chunks := (lines + lineChunk - 1) / lineChunk
	return parallel.ForEach(sparse.MulVecWorkers(lv.n(), workers), chunks, func(_, chunk int) error {
		for l := chunk * lineChunk; l < min((chunk+1)*lineChunk, lines); l++ {
			if err := fn(l); err != nil {
				return err
			}
		}
		return nil
	})
}

// onLine reports whether column c of row i, cell (l, k) of lv, lies on
// the cell's own line: the cell itself or its neighbour one layer below
// or above.
func (lv *level) onLine(i, k, c int) bool {
	step := 1 // row distance between vertically adjacent cells of a line
	if lv.layerMajor {
		step = lv.nx * lv.ny
	}
	return c == i || (k > 0 && c == i-step) || (k < lv.nz-1 && c == i+step)
}

// factorLine computes line l's Thomas coefficients from lv's operator,
// finding each row's couplings to its own cell and to its line's
// neighbours below and above by their columns.
func (ls *lineSmoother) factorLine(lv *level, l int) error {
	nz := ls.nz
	prevCp := 0.0
	for k := 0; k < nz; k++ {
		i := lv.cell(l, k)
		var sub, diag, sup float64
		cols, vals := lv.a.Row(i)
		for p, c := range cols {
			switch c := int(c); {
			case c == i:
				diag = vals[p]
			case !lv.onLine(i, k, c): // an off-line coupling, packed apart
			case c < i:
				sub = vals[p]
			default:
				sup = vals[p]
			}
		}
		denom := diag - sub*prevCp
		if denom <= 0 {
			return fmt.Errorf("mg: z-line pivot %g at cell %d (matrix not SPD?)", denom, i)
		}
		j := l*nz + k
		ls.subL[j] = sub
		ls.invL[j] = 1 / denom
		prevCp = sup / denom
		ls.cpL[j] = prevCp
	}
	return nil
}

// shifted returns the smoother of lv, a diagonally shifted copy of the
// level ls was built for: ls's off-line structure and colours, shared,
// and Thomas coefficients of lv's own, factored on up to workers
// goroutines (the first non-positive pivot in line order is reported).
func (ls *lineSmoother) shifted(lv *level, workers int) (*lineSmoother, error) {
	out := *ls
	n := ls.lines * ls.nz
	out.subL, out.cpL, out.invL = make([]float64, n), make([]float64, n), make([]float64, n)
	if err := lv.eachLine(workers, func(l int) error { return out.factorLine(lv, l) }); err != nil {
		return nil, err
	}
	return &out, nil
}

// packOffLine returns the values of lv's off-line couplings in the
// precision of F, in the order of its smoother's offCol: each cell's row
// entries off its own line, in row order, straight from the operator.
// Blocks of lineChunk lines are packed on up to workers goroutines.
func packOffLine[F sparse.Float](lv *level, workers int) []F {
	ls := lv.ls
	off := make([]F, len(ls.offCol))
	lv.eachLine(workers, func(l int) error { //nolint:errcheck // fn never fails
		for k := 0; k < ls.nz; k++ {
			i, q := lv.cell(l, k), ls.offPtr[l*ls.nz+k]
			cols, vals := lv.a.Row(i)
			for p, c := range cols {
				if !lv.onLine(i, k, int(c)) {
					off[q] = F(vals[p])
					q++
				}
			}
		}
		return nil
	})
	return off
}

// colorLines greedy-colours the line-coupling graph of stencil st in
// ascending line order (smallest unused colour wins): each line's
// neighbours are the other lines its slots reach, at any offset. Greedy
// needs at most maxdegree+1 colours; a line of a Galerkin level couples
// to at most the 24 others of its 5×5 lateral stencil, so the uint64
// used-colour mask never saturates. Lines within one returned class are
// pairwise uncoupled.
func colorLines(st *stencil) [][]int32 {
	lines := len(st.ptr) - 1
	color := make([]int, lines)
	maxColor := 1
	for l := 0; l < lines; l++ {
		var used uint64
		sl, _ := st.slots(l)
		for _, nl := range sl {
			if int(nl) < l {
				used |= 1 << uint(color[nl])
			}
		}
		c := 0
		for used&(1<<uint(c)) != 0 {
			c++
		}
		color[l] = c
		if c+1 > maxColor {
			maxColor = c + 1
		}
	}
	classes := make([][]int32, maxColor)
	for l := 0; l < lines; l++ {
		classes[color[l]] = append(classes[color[l]], int32(l))
	}
	return classes
}

// coarseNDOrder builds the fill-reducing cell ordering the coarsest
// level is factored under: nested dissection on the level's lateral
// line-coupling graph — the same graph the red-black smoother colours —
// with each lateral line's nz cells kept consecutive. Because z is never
// coarsened, the level's cell graph is the lateral line graph with every
// vertex blown up into a densely chained z-line; dissecting the lateral
// plane and numbering each separator's lines last confines fill to the
// separator blocks (O(m·log m) line-blocks on an m-line plane instead of
// the O(m^1.5) a band ordering stores), while the z-contiguous numbering
// keeps the per-line blocks dense and cache-friendly. The separator
// thickness adapts to the widest lateral reach of the level's stencil (1
// for the 9-point Galerkin stencils), so a separator genuinely separates
// and correctness never depends on it — a too-thin separator would only
// cost extra fill. The lines are chosen on the lateral plane alone and
// each is written out through lv.cell, so a line-major level's ordering
// is its layer-major ordering relabelled: the permuted matrix, and with
// it the factor, are the same bits in either numbering.
func coarseNDOrder(lv *level) []int32 {
	nx, ny, nz := lv.nx, lv.ny, lv.nz
	stride := nx * ny
	// Widest lateral reach of any stencil entry, from the operator itself.
	reach := 1
	for i := 0; i < lv.n(); i++ {
		l, _ := lv.lineOf(i)
		li, lj := l%nx, l/nx
		cols, _ := lv.a.Row(i)
		for _, c := range cols {
			cl, _ := lv.lineOf(int(c))
			ci, cj := cl%nx, cl/nx
			if d := li - ci; d > reach || -d > reach {
				reach = max(d, -d)
			}
			if d := lj - cj; d > reach || -d > reach {
				reach = max(d, -d)
			}
		}
	}
	lines := make([]int32, 0, stride)
	var dissect func(x0, x1, y0, y1 int)
	dissect = func(x0, x1, y0, y1 int) {
		w, ht := x1-x0, y1-y0
		if w <= 0 || ht <= 0 {
			return
		}
		if w*ht <= ndLeafLines || (w <= 2*reach && ht <= 2*reach) {
			for j := y0; j < y1; j++ {
				for i := x0; i < x1; i++ {
					lines = append(lines, int32(j*nx+i))
				}
			}
			return
		}
		if w >= ht {
			mid := (x0 + x1 - reach) / 2
			dissect(x0, mid, y0, y1)
			dissect(mid+reach, x1, y0, y1)
			for i := mid; i < mid+reach && i < x1; i++ {
				for j := y0; j < y1; j++ {
					lines = append(lines, int32(j*nx+i))
				}
			}
			return
		}
		mid := (y0 + y1 - reach) / 2
		dissect(x0, x1, y0, mid)
		dissect(x0, x1, mid+reach, y1)
		for j := mid; j < mid+reach && j < y1; j++ {
			for i := x0; i < x1; i++ {
				lines = append(lines, int32(j*nx+i))
			}
		}
	}
	dissect(0, nx, 0, ny)
	perm := make([]int32, 0, stride*nz)
	for _, l := range lines {
		for k := 0; k < nz; k++ {
			perm = append(perm, int32(lv.cell(int(l), k)))
		}
	}
	return perm
}

// ndLeafLines is the lateral box size below which nested dissection
// stops splitting and numbers lines lexicographically: tiny boxes
// factor densely anyway and the recursion overhead stops paying.
const ndLeafLines = 8

// cycleArrays holds every value array one V-cycle precision reads: per
// level the operator values, the line smoother's coefficients, the
// packed off-line couplings and the transfer weights, plus the coarse
// factor's values. Sparsity, line colouring and interpolation stencils
// stay on the levels and the factor, shared by both precisions. Each
// hierarchy builds one instance per precision it runs, shared by every
// solver of that precision. The float64 instance reads the hierarchy's
// operator values, Thomas coefficients, transfer weights and factor in
// place; the float32 instance holds rounded copies (rounded from the
// float64 factorisations, not refactorised, so the float32 cycle applies
// the same operator to within rounding). The packed couplings and the
// transfer weights, which a diagonal shift leaves unchanged, come from
// the packedArrays of the precision in the hierarchy's family, shared
// with every hierarchy Shifted derives from it or from which it was
// derived.
type cycleArrays[F sparse.Float] struct {
	levels     []levelArrays[F]
	factor     *sparse.SparseCholesky
	factorVals []F
}

// levelArrays are the values of one level in the precision of F: the
// operator's in its own entry order (layer-major rows on the finest
// level, line-major below), the smoother's in the line-major numbering.
type levelArrays[F sparse.Float] struct {
	a            []F // operator values, in the order of a.Values()
	sub, cp, inv []F // lineSmoother subL, cpL, invL
	off          []F // off-line couplings, in the order of lineSmoother.offCol
	// xlo/xhi and ylo/yhi are the lateral axes' interpolation weights
	// (nil on the coarsest level).
	xlo, xhi, ylo, yhi []F
}

// packedArrays holds the levelArrays of one precision a diagonal shift
// leaves unchanged, off and the transfer weights, for a hierarchy and
// every hierarchy Shifted derives from it: built once, by the first
// cycle of that precision on any of them, from that hierarchy's
// operators, whose off-line entries are the same bits in all of them.
// bytes counts the arrays it built (none for float64's transfer weights,
// which are the axes' own).
type packedArrays[F sparse.Float] struct {
	once   sync.Once
	levels []levelArrays[F]
	bytes  atomic.Int64
}

// family holds what a hierarchy shares with every hierarchy Shifted
// derives from it: the bytes of their shared structure
// (Footprint.Structure, fixed when BuildHierarchy returns) and one
// packedArrays per V-cycle precision.
type family struct {
	structure int64
	f64       packedArrays[float64]
	f32       packedArrays[float32]
}

// asF returns v in the precision of F: v itself when F is float64 — the
// float64 cycle reads the hierarchy's own arrays — else a rounded copy.
func asF[F sparse.Float](v []float64) []F {
	if same, ok := any(v).([]F); ok {
		return same
	}
	out := make([]F, len(v))
	for i, x := range v {
		out[i] = F(x)
	}
	return out
}

// roundedBytes returns the bytes asF's copies of vs take in the
// precision of F: none for float64, which asF does not copy.
func roundedBytes[F sparse.Float](vs ...[]float64) int64 {
	var f F
	if _, f64 := any(f).(float64); f64 {
		return 0
	}
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	return int64(n) * int64(unsafe.Sizeof(f))
}

// newCycleArrays builds h's cycle arrays in the precision of F, taking
// the packed couplings and transfer weights from p (packing them first,
// on h's workers, if no hierarchy sharing p has) and charging the time
// to the CycleArrays phase.
func newCycleArrays[F sparse.Float](h *Hierarchy, factor *sparse.SparseCholesky, p *packedArrays[F]) *cycleArrays[F] {
	start := time.Now()
	defer h.phaseAdd(phaseCycleArrays, start)
	p.once.Do(func() {
		p.levels = make([]levelArrays[F], len(h.levels))
		var bytes int64
		for l, lv := range h.levels {
			la := &p.levels[l]
			la.off = packOffLine[F](lv, h.workers)
			bytes += sizeOf(la.off)
			if lv.ix != nil {
				withTransfer(la, lv)
				bytes += roundedBytes[F](lv.ix.wlo, lv.ix.whi, lv.iy.wlo, lv.iy.whi)
			}
		}
		p.bytes.Store(bytes)
	})
	ca := &cycleArrays[F]{
		levels:     slices.Clone(p.levels),
		factor:     factor,
		factorVals: asF[F](factor.Values()),
	}
	rounded := roundedBytes[F](factor.Values())
	for l, lv := range h.levels {
		la := &ca.levels[l]
		la.a = asF[F](lv.a.Values())
		la.sub, la.cp, la.inv = asF[F](lv.ls.subL), asF[F](lv.ls.cpL), asF[F](lv.ls.invL)
		rounded += roundedBytes[F](lv.a.Values(), lv.ls.subL, lv.ls.cpL, lv.ls.invL)
	}
	h.copies.Add(rounded)
	return ca
}

// withTransfer sets la's interpolation weights from lv's axes.
func withTransfer[F sparse.Float](la *levelArrays[F], lv *level) *levelArrays[F] {
	la.xlo, la.xhi = asF[F](lv.ix.wlo), asF[F](lv.ix.whi)
	la.ylo, la.yhi = asF[F](lv.iy.wlo), asF[F](lv.iy.whi)
	return la
}

// solveLine relaxes lateral line l exactly. The line's cells are
// contiguous: forward elimination builds the line right-hand side on the
// fly (off-line couplings at their current x values) and stores the
// eliminated values in the line's own x, which only back substitution
// reads afterwards — the off-line sums read other lines' x alone.
func solveLine[F sparse.Float](ls *lineSmoother, c *levelArrays[F], x, b []F, l int) {
	nz := ls.nz
	base := l * nz
	xl := x[base : base+nz]
	bl, sub, inv, cp := b[base:][:nz], c.sub[base:][:nz], c.inv[base:][:nz], c.cp[base:][:nz]
	ptr := ls.offPtr[base:][:nz+1]
	cols, vals := ls.offCol[ptr[0]:ptr[nz]], c.off[ptr[0]:ptr[nz]]
	var prev F
	for k := range xl {
		s := bl[k]
		lo, hi := ptr[k]-ptr[0], ptr[k+1]-ptr[0]
		cs, vs := cols[lo:hi], vals[lo:hi]
		vs = vs[:len(cs)] // one length: only x[col] keeps a bounds check
		for q, col := range cs {
			s -= vs[q] * x[col]
		}
		prev = (s - sub[k]*prev) * inv[k]
		xl[k] = prev
	}
	for k := nz - 2; k >= 0; k-- {
		xl[k] -= cp[k] * xl[k+1]
	}
}

// sweepLex runs one serial block Gauss–Seidel pass over the lines in
// ascending (or, reversed, descending) lexicographic order — the
// reference ordering. A forward followed by a backward pass is symmetric
// block Gauss–Seidel, keeping the V-cycle an SPD preconditioner.
func sweepLex[F sparse.Float](ls *lineSmoother, c *levelArrays[F], x, b []F, reverse bool) {
	for li := 0; li < ls.lines; li++ {
		l := li
		if reverse {
			l = ls.lines - 1 - li
		}
		solveLine(ls, c, x, b, l)
	}
}

// lineChunk is the number of lines one parallel.ForEach work item relaxes
// (or, on the finest level, takes the residual of); chunking keeps the
// atomic work-counter traffic negligible against the O(nz) line work.
const lineChunk = 32

// sweepColored runs one block Gauss–Seidel pass colour class by colour
// class, ascending (or, reversed, descending) — forward plus backward is
// again symmetric. Lines within a class are independent, so each class is
// relaxed on up to workers goroutines. Because same-colour lines share no
// coupling and each line writes only its own cells, the parallel result
// is bit-identical to relaxing the class serially. One worker relaxes
// every class in a plain loop, which allocates nothing.
func sweepColored[F sparse.Float](ls *lineSmoother, c *levelArrays[F], x, b []F, workers int, reverse bool) {
	nc := len(ls.colors)
	for ci := 0; ci < nc; ci++ {
		col := ci
		if reverse {
			col = nc - 1 - ci
		}
		lines := ls.colors[col]
		if workers <= 1 {
			for _, l := range lines {
				solveLine(ls, c, x, b, int(l))
			}
			continue
		}
		chunks := (len(lines) + lineChunk - 1) / lineChunk
		w := workers
		if w > chunks {
			w = chunks
		}
		parallel.ForEach(w, chunks, func(_, chunk int) error { //nolint:errcheck // fn never fails
			lo := chunk * lineChunk
			hi := lo + lineChunk
			if hi > len(lines) {
				hi = len(lines)
			}
			for _, l := range lines[lo:hi] {
				solveLine(ls, c, x, b, int(l))
			}
			return nil
		})
	}
}

func (lv *level) n() int { return lv.nx * lv.ny * lv.nz }

// coarseN returns the cell count of the next coarser level.
func (lv *level) coarseN() int { return lv.ix.nc * lv.iy.nc * lv.nz }

// Hierarchy is an immutable semicoarsened multigrid hierarchy for one
// matrix. Building one costs a few matrix passes (Galerkin products); it
// is safe for concurrent use by many Solvers, so batched multi-RHS solves
// share a single instance. Its finest operator is the caller's matrix,
// numbered layer-major; every coarser operator is built z-line-major
// (cell (l, k) at l·nz+k) by its Galerkin product, so no level is stored
// twice.
type Hierarchy struct {
	levels []*level
	// workers caps the goroutines of the one-off set-up (Galerkin
	// products, line smoothers, coarse factor): BuildHierarchy's resolved
	// Options.Workers, inherited by Shifted.
	workers int
	// coarse is the symbolic analysis of the coarsest level under its
	// nested-dissection ordering, the one rebalanceCoarse accepted; a
	// Shifted hierarchy, whose coarsest level has the same pattern, shares
	// it.
	coarse *sparse.CholeskyAnalysis
	// factor is the lazily built sparse Cholesky factor of the coarsest
	// level (factorErr the failure that refused it), shared race-free by
	// every solver of this hierarchy.
	factorOnce sync.Once
	factor     *sparse.SparseCholesky
	factorErr  error
	// family is shared with every hierarchy Shifted derives from this one
	// (and with the one this was derived from): each precision's packed
	// off-line couplings and transfer weights, and the shared structure's
	// size.
	family *family
	// f64 and f32 hold each precision's cycle arrays, built on the first
	// preconditioner of that precision and shared by every later one.
	f64Once sync.Once
	f64     *cycleArrays[float64]
	f32Once sync.Once
	f32     *cycleArrays[float32]
	// phaseNanos accumulates per-phase wall time for this hierarchy
	// alone, so concurrently solving specs don't blend their phase
	// fractions.
	phaseNanos [numPhases]atomic.Int64
	// values and copies count the bytes of Footprint.Values and
	// Footprint.Float32 as the arrays are built.
	values, copies atomic.Int64
}

// defaultCoarseBudget caps the stored entries (float64 values) of the
// coarsest level's Cholesky factor: 2²⁰ entries (8 MiB). Graded meshes
// stall the size-adaptive lateral semicoarsening with large coarsest
// levels; within this budget the fill-reducing factorisation reduces the
// coarse solve to two triangular sweeps, and past it rebalanceCoarse
// coarsens further. Preview's coarsest level (910 032 entries) fits as
// built; 8·2²⁰ would leave the fast tier a 7.8 M-entry factor, 0.5–0.9 s
// per cold start, at no fewer outer iterations than this budget.
const defaultCoarseBudget = 1 << 20

// coarseFactor builds (once) and returns the sparse Cholesky factor of
// the coarsest level from the hierarchy's analysis of it, on the
// hierarchy's workers, charging the time to the Factor phase. The factor
// depends on the hierarchy alone, never on the solver that first asks.
// Safe for concurrent use.
func (h *Hierarchy) coarseFactor() (*sparse.SparseCholesky, error) {
	h.factorOnce.Do(func() {
		start := time.Now()
		lv := h.levels[len(h.levels)-1]
		h.factor, h.factorErr = h.coarse.Factor(lv.a, h.workers)
		if h.factorErr != nil {
			h.factorErr = fmt.Errorf("mg: coarsest level (%d cells): %w", lv.n(), h.factorErr)
		} else {
			h.values.Add(sizeOf(h.factor.Values()))
		}
		h.phaseAdd(phaseFactor, start)
	})
	return h.factor, h.factorErr
}

// Fine returns the matrix the hierarchy was built for.
func (h *Hierarchy) Fine() *sparse.CSR { return h.levels[0].a }

// Depth returns the number of levels including the finest.
func (h *Hierarchy) Depth() int { return len(h.levels) }

// BuildHierarchy semicoarsens the grid behind a and assembles the Galerkin
// coarse operators on up to opts.Workers goroutines, charging its wall
// time to the Hierarchy phase. The hint must describe the structured grid
// a was assembled on (cell counts multiplying to a.N()).
func BuildHierarchy(a *sparse.CSR, hint sparse.GridHint, opts Options) (*Hierarchy, error) {
	start := time.Now()
	if hint.Empty() {
		return nil, fmt.Errorf("mg: no grid geometry for the matrix")
	}
	nx, ny, nz := hint.NX(), hint.NY(), hint.NZ()
	if nx < 1 || ny < 1 || nz < 1 || nx*ny*nz != a.N() {
		return nil, fmt.Errorf("mg: grid hint %d×%d×%d does not match matrix size %d", nx, ny, nz, a.N())
	}
	maxLevels := opts.levels
	if maxLevels <= 0 {
		maxLevels = 64 // effectively unlimited; coarsening stops geometrically
	}
	h := &Hierarchy{workers: opts.effectiveWorkers(), family: &family{}}
	xl, yl, zl := hint.X, hint.Y, hint.Z
	cur, st := a, (*stencil)(nil) // the finest level derives its stencil
	for {
		lv, err := h.newLevel(cur, st, xl, yl, zl)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, lv)
		if len(h.levels) >= maxLevels || lv.nx*lv.ny <= lateralTargetCells {
			break
		}
		coarsenX := lv.nx >= minCoarsenCells
		coarsenY := lv.ny >= minCoarsenCells
		if !coarsenX && !coarsenY {
			break
		}
		cxl, cyl := xl, yl
		if coarsenX {
			cxl = coarsenLines(xl, finestCell(xl))
		}
		if coarsenY {
			cyl = coarsenLines(yl, finestCell(yl))
		}
		if len(cxl) == len(xl) && len(cyl) == len(yl) {
			// The size-adaptive merge found no fusible pair on either
			// axis (pathologically graded mesh): the hierarchy cannot
			// deepen, so the current level becomes the coarsest.
			break
		}
		cur, st, err = h.coarsenTo(lv, xl, yl, cxl, cyl)
		if err != nil {
			return nil, err
		}
		xl, yl = cxl, cyl
	}
	budget := opts.budget
	if budget == 0 {
		budget = defaultCoarseBudget
	}
	if err := h.rebalanceCoarse(budget, maxLevels, xl, yl, zl); err != nil {
		return nil, err
	}
	h.levels[len(h.levels)-1].st = nil
	h.family.structure = h.structureBytes()
	h.values.Store(h.valueBytes(1))
	h.phaseAdd(phaseHierarchy, start)
	return h, nil
}

// newLevel assembles the next hierarchy level for operator a, of stencil
// st, on the given axis line sets: diagonal validation plus the z-line
// factorisation. The finest operator comes with no stencil: newLevel
// derives and checks it (finestStencil).
func (h *Hierarchy) newLevel(a *sparse.CSR, st *stencil, xl, yl, zl []float64) (*level, error) {
	depth := len(h.levels)
	lv := &level{a: a, nx: len(xl) - 1, ny: len(yl) - 1, nz: len(zl) - 1, st: st, layerMajor: depth == 0}
	for i, d := range a.Diag() {
		if d <= 0 {
			return nil, fmt.Errorf("mg: non-positive diagonal %g at row %d of level %d (matrix not SPD?)", d, i, depth)
		}
	}
	if st == nil {
		var err error
		if lv.st, err = finestStencil(lv, h.workers); err != nil {
			return nil, fmt.Errorf("mg: level %d: %w", depth, err)
		}
	}
	ls, err := newLineSmoother(lv, h.workers)
	if err != nil {
		return nil, fmt.Errorf("mg: level %d: %w", depth, err)
	}
	lv.ls = ls
	return lv, nil
}

// coarsenTo wires the lateral transfer operators from lv's axes to the
// coarser line sets (the z stack is kept at full resolution) and
// assembles the Galerkin coarse operator and its stencil, charging the
// product to the Galerkin phase; lv's stencil, which only the product
// reads, is dropped.
func (h *Hierarchy) coarsenTo(lv *level, xl, yl, cxl, cyl []float64) (*sparse.CSR, *stencil, error) {
	lv.ix = newAxisInterp(xl, cxl)
	lv.iy = newAxisInterp(yl, cyl)
	start := time.Now()
	coarse, st, err := galerkin(lv, h.workers)
	h.phaseAdd(phaseGalerkin, start)
	lv.st = nil
	if err != nil {
		return nil, nil, fmt.Errorf("mg: level %d Galerkin product: %w", len(h.levels)-1, err)
	}
	return coarse, st, nil
}

// rebalanceCoarse appends coarsening levels while the coarsest level's
// predicted sparse-Cholesky fill exceeds the factorisation budget, each
// merged by coarsenLines against every axis's finest pair instead of its
// finest cell: a leftover fine cell beside cells more than pairRatioCap
// times wider stalls the regular coarsening, but the finest pair always
// fuses, while the gap cells still wait for the device runs to catch up.
// So every appended level shrinks and keeps the size-adaptive shape that
// holds the iteration count (blind pairwise merges cost the paper tier
// 19–25 outer iterations instead of 5–7). The symbolic analysis alone
// decides fit, so each probe costs one structure pass, never a
// factorisation, and the accepted probe's analysis is the one the coarse
// factor runs from (a coarsest level no probe accepted is analysed
// without a cap). Preview's and the graded test mesh's coarsest levels
// pass the first probe unchanged; coarse, fast and the paper tier
// rebalance.
func (h *Hierarchy) rebalanceCoarse(budget, maxLevels int, xl, yl, zl []float64) error {
	for len(h.levels) < maxLevels {
		lv := h.levels[len(h.levels)-1]
		an, err := sparse.AnalyzeCholesky(lv.a, coarseNDOrder(lv), budget)
		if err == nil {
			h.coarse = an // the factorisation fits — stop shrinking
			return nil
		}
		cxl, cyl := xl, yl
		if lv.nx > 1 {
			cxl = coarsenLines(xl, finestPair(xl))
		}
		if lv.ny > 1 {
			cyl = coarsenLines(yl, finestPair(yl))
		}
		if len(cxl) == len(xl) && len(cyl) == len(yl) {
			break // single lateral cell left on both axes
		}
		coarse, st, err := h.coarsenTo(lv, xl, yl, cxl, cyl)
		if err != nil {
			return err
		}
		nlv, err := h.newLevel(coarse, st, cxl, cyl, zl)
		if err != nil {
			return err
		}
		h.levels = append(h.levels, nlv)
		xl, yl = cxl, cyl
	}
	lv := h.levels[len(h.levels)-1]
	an, err := sparse.AnalyzeCholesky(lv.a, coarseNDOrder(lv), 0)
	if err != nil {
		return fmt.Errorf("mg: coarsest level (%d cells): %w", lv.n(), err)
	}
	h.coarse = an
	return nil
}

// Shifted derives the hierarchy for the diagonally shifted operator
// A + diag(shift) — the implicit-Euler transient matrix A + diag(C/dt) —
// from this (steady) hierarchy without redoing any Galerkin triple
// product. The transfer operators, level geometry, operator sparsity,
// the line smoothers' off-line structure and colours and the packed
// off-line couplings of every precision are shared as-is; only the
// diagonals change: the shift vector is carried down the hierarchy by
// full-weighting restriction (mass lumping of Pᵀ·diag(shift)·P, exact on
// constants because interpolation weights sum to one), each level's
// operator values become its steady Galerkin operator's plus its lumped
// shift, and the per-level z-line Thomas factorisations are recomputed —
// one cheap matrix pass per level instead of the RAP products that
// dominate BuildHierarchy, on this hierarchy's workers; the coarsest
// level keeps its pattern, so the symbolic analysis of its factor is
// shared too, and the derivation's wall time is the new hierarchy's
// Hierarchy phase. A positive shift only adds diagonal dominance, so the
// resulting V-cycle stays an SPD preconditioner and typically converges
// at least as fast as the steady one. The shift must be finite: an
// infinite entry (C/dt of a subnormal dt) would leave no finite operator
// to solve. The new hierarchy's Fine() is the shifted matrix
// Fine() + diag(shift), the one its solvers solve.
func (h *Hierarchy) Shifted(shift []float64) (*Hierarchy, error) {
	start := time.Now()
	n := h.levels[0].n()
	if len(shift) != n {
		return nil, fmt.Errorf("mg: shift has %d entries, want %d", len(shift), n)
	}
	for i, v := range shift {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("mg: invalid shift %g at cell %d (want finite ≥ 0)", v, i)
		}
	}
	out := &Hierarchy{levels: make([]*level, len(h.levels)), workers: h.workers, coarse: h.coarse, family: h.family}
	cur := shift // this level's shift, in its operator's numbering
	for l, lv := range h.levels {
		nlv := &level{
			a:  sparse.AddDiagonal(lv.a, cur),
			nx: lv.nx, ny: lv.ny, nz: lv.nz,
			ix: lv.ix, iy: lv.iy,
			layerMajor: lv.layerMajor,
		}
		ls, err := lv.ls.shifted(nlv, h.workers)
		if err != nil {
			return nil, fmt.Errorf("mg: shifted level %d: %w", l, err)
		}
		nlv.ls = ls
		out.levels[l] = nlv
		if l < len(h.levels)-1 {
			if lv.layerMajor {
				lines := make([]float64, len(cur))
				toLines(lines, cur, lv.nz)
				cur = lines
			}
			next := make([]float64, lv.coarseN())
			restrict(lv, withTransfer(&levelArrays[float64]{}, lv), next, cur, sparse.MulVecWorkers(lv.n(), h.workers))
			cur = next
		}
	}
	out.values.Store(out.valueBytes(0))
	out.phaseAdd(phaseHierarchy, start)
	return out, nil
}

// galerkin assembles the coarse operator A_c = Pᵀ·A·P of one level, where
// P is the lateral tensor-product interpolation lv.ix ⊗ lv.iy applied
// layer by layer, and returns it with its stencil. z being kept, every
// row of one coarse line gathers the same fine slots into the same coarse
// slots, so each coarse line's rows are built for all nz layers at once
// from lv's stencil: a term — one interpolation target of one slot of a
// fine line the adjoint stencils of the lateral axes list — is resolved
// once and added on every layer its slot reaches. The coarse operator
// comes out line-major, coarse row (cl, k) at cl·nz+k, with its entries
// in ascending layer-major column order (k′·lines+cl′): the order a
// layer-major product stores them in, so every later sum over a row adds
// its terms in the same order in either numbering. Each entry sums
// ((rw·a)·yw)·xw — rw the fine row's restriction weight, a its entry, yw
// and xw the interpolation weights of the entry's column — over the fine
// rows in the order the adjoint stencils list them, each row's entries
// in stored order and the targets y-major, from zero: the terms and the
// order of a per-row scatter (Gustavson's algorithm). Contiguous blocks
// of coarse lines are built on up to workers goroutines, each with its
// own scratch, and stitched into the operator's and the stencil's
// arrays, which are allocated once at their final size; the bits do not
// depend on workers.
func galerkin(lv *level, workers int) (*sparse.CSR, *stencil, error) {
	lines, nz := lv.ix.nc*lv.iy.nc, lv.nz
	nc := lines * nz
	rowPtr := make([]int, nc+1)
	st := &stencil{ptr: make([]int32, lines+1)}
	blocks := make([]galerkinBlock, sparse.MulVecWorkers(nc, workers))
	// first returns the first coarse line of block b.
	first := func(b int) int { return b * lines / len(blocks) }
	parallel.ForEach(len(blocks), len(blocks), func(_, b int) error { //nolint:errcheck // fn never fails
		blocks[b].build(lv, first(b), first(b+1), rowPtr, st.ptr)
		return nil
	})
	for i := range nc {
		rowPtr[i+1] += rowPtr[i]
	}
	for l := range lines {
		st.ptr[l+1] += st.ptr[l]
	}
	cols := make([]int32, rowPtr[nc])
	vals := make([]float64, rowPtr[nc])
	st.line, st.dz = make([]int32, st.ptr[lines]), make([]int8, st.ptr[lines])
	parallel.ForEach(len(blocks), len(blocks), func(_, b int) error { //nolint:errcheck // fn never fails
		blk := &blocks[b]
		at := rowPtr[first(b)*nz]
		for c := range blk.cols {
			copy(cols[at:], blk.cols[c])
			at += copy(vals[at:], blk.vals[c])
		}
		copy(st.line[st.ptr[first(b)]:], blk.line)
		copy(st.dz[st.ptr[first(b)]:], blk.dz)
		*blk = galerkinBlock{}
		return nil
	})
	a, err := sparse.NewCSRInRowOrder(nc, rowPtr, cols, vals)
	if err != nil {
		return nil, nil, err
	}
	return a, st, nil
}

// galerkinChunk is the entry capacity of one chunk of a galerkinBlock.
const galerkinChunk = 1 << 16

// galerkinBlock holds one run of coarse lines while the product is
// built: their rows' entries, in row order, in chunks of up to
// galerkinChunk entries that no line straddles, so the block never
// copies what it has built, and their stencils' slots, line by line.
type galerkinBlock struct {
	cols [][]int32
	vals [][]float64
	line []int32
	dz   []int8
}

// galerkinTerm is one interpolation target of one fine slot of a coarse
// line: the coarse slot t it adds into (its layer-major key until the
// line's slots are numbered) and the target's weights.
type galerkinTerm struct {
	t      int32
	yw, xw float64
}

// build computes the rows and stencils of coarse lines [l0, l1), writing
// each row's entry count to rowPtr[row+1] and each line's slot count to
// slotPtr[line+1].
func (blk *galerkinBlock) build(lv *level, l0, l1 int, rowPtr []int, slotPtr []int32) {
	ix, iy, st := lv.ix, lv.iy, lv.st
	nxf, nz := lv.nx, lv.nz
	nxc := ix.nc
	lines := nxc * iy.nc
	fineRows, fineVals := lv.a.RowPtr(), lv.a.Values()
	// slot[key] numbers the coarse slot of layer-major key (d+1)·lines+cl′
	// on coarse line cl once seen[key] holds cl+1.
	seen := make([]int32, 3*lines)
	slot := make([]int32, 3*lines)
	var (
		keys  []int32
		terms []galerkinTerm
		nterm []uint8   // the terms of each fine slot, in order
		w     []float64 // w[s·nz+k]: rw·a of the fine line's slot s at layer k
		acc   []float64 // acc[t·nz+k]: coarse slot t at layer k
	)
	for cl := l0; cl < l1; cl++ {
		ci, cj := cl%nxc, cl/nxc
		stamp := int32(cl + 1)
		keys, terms, nterm = keys[:0], terms[:0], nterm[:0]
		// Resolve the terms of every slot of the line's fine lines once:
		// the target lines, the 2×2 zero-weight branches and the keys.
		for _, fj := range iy.rev[cj] {
			for _, fi := range ix.rev[ci] {
				sl, sd := st.slots(int(fj)*nxf + int(fi))
				for s, tl := range sl {
					ti, tj := int(tl)%nxf, int(tl)/nxf
					xw := [2]float64{ix.wlo[ti], ix.whi[ti]}
					xj := [2]int32{ix.lo[ti], ix.hi[ti]}
					yw := [2]float64{iy.wlo[tj], iy.whi[tj]}
					yj := [2]int32{iy.lo[tj], iy.hi[tj]}
					base := (int(sd[s]) + 1) * lines
					n := uint8(0)
					for yi := range 2 {
						if yw[yi] == 0 {
							continue
						}
						for xi := range 2 {
							if xw[xi] == 0 {
								continue
							}
							key := int32(base + int(yj[yi])*nxc + int(xj[xi]))
							if seen[key] != stamp {
								seen[key] = stamp
								keys = append(keys, key)
							}
							terms = append(terms, galerkinTerm{key, yw[yi], xw[xi]})
							n++
						}
					}
					nterm = append(nterm, n)
				}
			}
		}
		// Number the coarse slots in ascending layer-major order.
		slices.Sort(keys)
		nt := len(keys)
		for t, key := range keys {
			slot[key] = int32(t)
			d := int8(-1)
			for ; key >= int32(lines); key -= int32(lines) {
				d++
			}
			blk.line = append(blk.line, key)
			blk.dz = append(blk.dz, d)
		}
		slotPtr[cl+1] = int32(nt)
		for i := range terms {
			terms[i].t = slot[terms[i].t]
		}
		if cap(acc) < nt*nz {
			acc = make([]float64, nt*nz)
		}
		acc = acc[:nt*nz]
		// Add every term on the layers its slot reaches, fine line by fine
		// line: first rw·a of each of its slots, row by row, then the terms.
		q, fs := 0, 0 // term and fine slot cursors
		for yi, fj := range iy.rev[cj] {
			wy := iy.revW[cj][yi]
			for xi, fi := range ix.rev[ci] {
				rw := ix.revW[ci][xi] * wy
				fl := int(fj)*nxf + int(fi)
				_, sd := st.slots(fl)
				if cap(w) < len(sd)*nz {
					w = make([]float64, len(sd)*nz)
				}
				for k := range nz {
					lo, hi := layerSlots(sd, k, nz)
					row := fineRows[lv.cell(fl, k)]
					for s, v := range fineVals[row : row+hi-lo] {
						w[(lo+s)*nz+k] = rw * v
					}
				}
				for s, d := range sd {
					k0, k1 := max(0, -int(d)), min(nz, nz-int(d))
					ws := w[s*nz+k0 : s*nz+k1]
					for _, tm := range terms[q : q+int(nterm[fs])] {
						a := acc[int(tm.t)*nz+k0:][:len(ws)]
						for k, v := range ws {
							a[k] += v * tm.yw * tm.xw
						}
					}
					q += int(nterm[fs])
					fs++
				}
			}
		}
		// Gather the rows layer by layer, numbering the columns line-major.
		last := len(blk.cols) - 1
		if last < 0 || cap(blk.cols[last])-len(blk.cols[last]) < nt*nz {
			size := max(galerkinChunk, nt*nz)
			blk.cols = append(blk.cols, make([]int32, 0, size))
			blk.vals = append(blk.vals, make([]float64, 0, size))
			last++
		}
		cols, vals := blk.cols[last], blk.vals[last]
		cline, cdz := blk.line[len(blk.line)-nt:], blk.dz[len(blk.dz)-nt:]
		for k := range nz {
			lo, hi := layerSlots(cdz, k, nz)
			for t := lo; t < hi; t++ {
				cols = append(cols, cline[t]*int32(nz)+int32(k)+int32(cdz[t]))
				vals = append(vals, acc[t*nz+k])
			}
			rowPtr[cl*nz+k+1] = hi - lo
		}
		blk.cols[last], blk.vals[last] = cols, vals
		clear(acc)
	}
}

// restrict computes bc = Pᵀ·r (full weighting) with the transfer weights
// of w, on line-major vectors, on up to workers goroutines. Each coarse
// row — the coarse lines of one y index — gathers its fine rows through
// the adjoint y stencil (iy.rev), in ascending order, and each fine line
// of a fine row, in ascending order, adds v·wy·wx for its non-zero v
// into the up to two coarse lines of the row it interpolates from. So
// every coarse cell sums its terms in ascending fine order, as a
// layer-major restriction does, and the coarse rows, each writing only
// its own cells, run independently.
func restrict[F sparse.Float](lv *level, w *levelArrays[F], bc, r []F, workers int) {
	if workers > 1 {
		parallel.ForEach(workers, lv.iy.nc, func(_, cj int) error { //nolint:errcheck // fn never fails
			restrictRow(lv, w, bc, r, cj)
			return nil
		})
		return
	}
	for cj := 0; cj < lv.iy.nc; cj++ {
		restrictRow(lv, w, bc, r, cj)
	}
}

// restrictRow is restrict on coarse row cj.
func restrictRow[F sparse.Float](lv *level, w *levelArrays[F], bc, r []F, cj int) {
	ix, iy := lv.ix, lv.iy
	nz, nxc := lv.nz, ix.nc
	row := bc[cj*nxc*nz:][:nxc*nz]
	clear(row)
	for _, fj := range iy.rev[cj] {
		wy := w.ylo[fj]
		if int(iy.lo[fj]) != cj {
			wy = w.yhi[fj]
		}
		for fi := range lv.nx {
			rl := r[(int(fj)*lv.nx+fi)*nz:][:nz]
			addLine(row[int(ix.lo[fi])*nz:][:nz], rl, wy, w.xlo[fi])
			if xwh := w.xhi[fi]; xwh != 0 {
				addLine(row[int(ix.hi[fi])*nz:][:nz], rl, wy, xwh)
			}
		}
	}
}

// addLine adds v·wy·wx into dst for every non-zero v of src.
func addLine[F sparse.Float](dst, src []F, wy, wx F) {
	dst = dst[:len(src)]
	for k, v := range src {
		if v != 0 {
			dst[k] += v * wy * wx
		}
	}
}

// prolongAdd computes x += P·xc (linear interpolation of the coarse
// correction) with the transfer weights of w, on line-major vectors, on
// up to workers goroutines; each fine line writes only its own cells, so
// blocks of lineChunk lines run independently.
func prolongAdd[F sparse.Float](lv *level, w *levelArrays[F], x, xc []F, workers int) {
	chunks := (lv.nx*lv.ny + lineChunk - 1) / lineChunk
	if workers > 1 {
		parallel.ForEach(workers, chunks, func(_, chunk int) error { //nolint:errcheck // fn never fails
			prolongLines(lv, w, x, xc, chunk*lineChunk)
			return nil
		})
		return
	}
	for chunk := 0; chunk < chunks; chunk++ {
		prolongLines(lv, w, x, xc, chunk*lineChunk)
	}
}

// prolongLines is prolongAdd on the lineChunk fine lines from line l0.
func prolongLines[F sparse.Float](lv *level, w *levelArrays[F], x, xc []F, l0 int) {
	ix, iy := lv.ix, lv.iy
	nz, nxc := lv.nz, ix.nc
	line := func(cj, ci int) []F { return xc[(cj*nxc+ci)*nz:][:nz] }
	for fl := l0; fl < min(l0+lineChunk, lv.nx*lv.ny); fl++ {
		fj, fi := fl/lv.nx, fl%lv.nx
		yl, yh := int(iy.lo[fj]), int(iy.hi[fj])
		ywl, ywh := w.ylo[fj], w.yhi[fj]
		xl, xh := int(ix.lo[fi]), int(ix.hi[fi])
		xwl, xwh := w.xlo[fi], w.xhi[fi]
		dst := x[fl*nz:][:nz]
		ll, lh, hl, hh := line(yl, xl), line(yl, xh), line(yh, xl), line(yh, xh)
		// A zero weight drops its source line, so the four cases form
		// each cell's sum with no per-cell branch.
		switch {
		case ywh == 0 && xwh == 0:
			for k, v := range ll {
				dst[k] += ywl * (v * xwl)
			}
		case ywh == 0:
			for k, v := range ll {
				dst[k] += ywl * (v*xwl + lh[k]*xwh)
			}
		case xwh == 0:
			for k, v := range ll {
				dst[k] += ywl*(v*xwl) + ywh*(hl[k]*xwl)
			}
		default:
			for k, v := range ll {
				dst[k] += ywl*(v*xwl+lh[k]*xwh) + ywh*(hl[k]*xwl+hh[k]*xwh)
			}
		}
	}
}

// toLines copies src, numbered layer-major over len(src)/nz lines, into
// dst numbered line-major, in dst's precision.
func toLines[D, S sparse.Float](dst []D, src []S, nz int) {
	lines := len(src) / nz
	for k := 0; k < nz; k++ {
		for l, v := range src[k*lines : (k+1)*lines] {
			dst[l*nz+k] = D(v)
		}
	}
}

// toLayers is the inverse of toLines: it copies line-major src into dst
// numbered layer-major, in dst's precision.
func toLayers[D, S sparse.Float](dst []D, src []S, nz int) {
	lines := len(src) / nz
	for k := 0; k < nz; k++ {
		row := dst[k*lines : (k+1)*lines]
		for l := range row {
			row[l] = D(src[l*nz+k])
		}
	}
}

// fineResidual computes r = b − A·x on the finest level, whose operator
// (values vals) is the caller's layer-major matrix, while x, b and r are
// numbered line-major. Each row sums its entries in stored order from
// zero, exactly as the layer-major product sums it; a column of a row in
// layer k lies in layer k−1, k or k+1 (finestStencil checks), so its
// line-major index follows from two comparisons. Blocks of lineChunk
// lines are taken layer by layer, which keeps the reads and writes of x,
// b and r near the block's lines, on up to workers goroutines by the
// product's rule.
func fineResidual[F sparse.Float](lv *level, vals, r, x, b []F, workers int) {
	lines := lv.nx * lv.ny
	chunks := (lines + lineChunk - 1) / lineChunk
	if w := sparse.MulVecWorkers(lv.n(), workers); w > 1 {
		parallel.ForEach(w, chunks, func(_, chunk int) error { //nolint:errcheck // fn never fails
			residualLines(lv, vals, r, x, b, chunk*lineChunk)
			return nil
		})
		return
	}
	for chunk := 0; chunk < chunks; chunk++ {
		residualLines(lv, vals, r, x, b, chunk*lineChunk)
	}
}

// residualLines is fineResidual on the lineChunk lines from line l0.
func residualLines[F sparse.Float](lv *level, vals, r, x, b []F, l0 int) {
	lines, nz := lv.nx*lv.ny, lv.nz
	rowPtr, colIdx := lv.a.RowPtr(), lv.a.ColIdx()
	l1 := min(l0+lineChunk, lines)
	for k := 0; k < nz; k++ {
		base := k * lines
		for l := l0; l < l1; l++ {
			var sum F
			for p := rowPtr[base+l]; p < rowPtr[base+l+1]; p++ {
				c, ck := int(colIdx[p])-base, k
				if c < 0 {
					c, ck = c+lines, k-1
				} else if c >= lines {
					c, ck = c-lines, k+1
				}
				sum += vals[p] * x[c*nz+ck]
			}
			i := l*nz + k
			r[i] = b[i] - sum
		}
	}
}

// workspace holds the per-level scratch of one preconditioner in the
// precision of F. Not shared.
type workspace[F sparse.Float] struct {
	arr     *cycleArrays[F]
	workers int // resolved Options.Workers (≥ 1)
	// sweepWorkers is each level's smoother goroutine count, fixed by the
	// rule the level's residual product uses (sparse.MulVecWorkers), so
	// small levels relax serially without touching the worker pool.
	sweepWorkers []int
	lex          bool  // serial lexicographic sweeps (test hook)
	r            [][]F // residual per level
	xc, bc       [][]F // correction problem per coarser level
	// coarse is the coarse triangular solve's scratch, for the coarsest
	// level's goroutine count by the same rule.
	coarse *sparse.CholeskyScratch[F]
}

func newWorkspace[F sparse.Float](h *Hierarchy, arr *cycleArrays[F], opts Options) *workspace[F] {
	ws := &workspace[F]{arr: arr, workers: opts.effectiveWorkers(), lex: opts.lex}
	for l, lv := range h.levels {
		ws.sweepWorkers = append(ws.sweepWorkers, sparse.MulVecWorkers(lv.n(), ws.workers))
		ws.r = append(ws.r, make([]F, lv.n()))
		if l < len(h.levels)-1 {
			ws.xc = append(ws.xc, make([]F, lv.coarseN()))
			ws.bc = append(ws.bc, make([]F, lv.coarseN()))
		}
	}
	ws.coarse = sparse.NewCholeskyScratch[F](arr.factor, ws.sweepWorkers[len(h.levels)-1])
	return ws
}

// Solver is mg-cg: CG preconditioned by one multigrid V-cycle over a
// prebuilt hierarchy. It owns reusable scratch and is NOT safe for
// concurrent use; hierarchies, in contrast, are immutable and may be
// shared across instances.
type Solver struct {
	opts Options
	hier *Hierarchy
	// precond is the V-cycle application, with its own workspace, that
	// the first solve prepares.
	precond func(z, r []float64)
	outer   *sparse.Workspace
}

// New builds an mg-cg solver on the prebuilt hierarchy h, sharing its
// (immutable) operators and coarse factor with every other solver of h.
func New(h *Hierarchy, opts Options) *Solver { return &Solver{opts: opts, hier: h} }

// preconditioner prepares the V-cycle for a, which must be the matrix the
// solver's hierarchy was built for, and returns its application
// z = M⁻¹·r. A coarsest level that cannot be factored (not SPD) is an
// error here, before any iteration runs.
func (s *Solver) preconditioner(a *sparse.CSR) (func(z, r []float64), error) {
	h := s.hier
	if h.Fine() != a {
		return nil, fmt.Errorf("mg: the solver's hierarchy was not built for this %d-row matrix", a.N())
	}
	if s.precond != nil {
		return s.precond, nil
	}
	factor, err := h.coarseFactor()
	if err != nil {
		return nil, err
	}
	if s.opts.Precision(h.levels[0].n()) == precisionFloat32 {
		// Mixed precision: the V-cycle runs entirely in float32 (halving
		// the memory traffic of the bandwidth-bound stencil sweeps) while
		// the outer CG sees a float64 operator as usual.
		h.f32Once.Do(func() { h.f32 = newCycleArrays(h, factor, &h.family.f32) })
		s.precond = newPrecond(h, h.f32, s.opts)
	} else {
		h.f64Once.Do(func() { h.f64 = newCycleArrays(h, factor, &h.family.f64) })
		s.precond = newPrecond(h, h.f64, s.opts)
	}
	return s.precond, nil
}

// newPrecond returns the V-cycle application z = M⁻¹·r in the precision
// of F on its own workspace. r and z are the caller's layer-major
// vectors; the cycle's own copies are line-major, so the permutation
// rides on the one pass each way that converts precision. The float64
// cycle copies too, and keeps its right-hand side in z, whose incoming
// values nothing reads, until its result overwrites them. A one-level
// hierarchy's cycle is the coarse solve alone, under the fine matrix's
// own numbering, so it copies in order.
func newPrecond[F sparse.Float](h *Hierarchy, arr *cycleArrays[F], opts Options) func(z, r []float64) {
	ws := newWorkspace(h, arr, opts)
	n, nz := h.levels[0].n(), h.levels[0].nz
	if len(h.levels) == 1 {
		nz = 1 // one line holding every cell: toLines and toLayers copy
	}
	x := make([]F, n)
	var b32 []F
	if _, f64 := any(x).([]float64); !f64 {
		b32 = make([]F, n)
	}
	return func(z, r []float64) {
		b := b32
		if b == nil {
			b = any(z).([]F)
		}
		toLines(b, r, nz)
		clear(x)
		vcycle(h, ws, 0, x, b)
		toLayers(z, x, nz)
	}
}

// Solve computes x ≈ a⁻¹·b, a being the matrix the solver's hierarchy
// was built for (its Fine()), by conjugate gradient with one V-cycle per
// iteration as the preconditioner, for at most 10·n iterations. The
// incoming x seeds the iteration (warm start); on non-convergence the
// best iterate is left in x alongside a non-nil error and the populated
// Result.
func (s *Solver) Solve(a *sparse.CSR, b, x []float64) (sparse.Result, error) {
	precond, err := s.preconditioner(a)
	if err != nil {
		return sparse.Result{}, err
	}
	if s.outer == nil {
		s.outer = sparse.NewWorkspace(a.N())
	}
	return sparse.PCG(a, b, x, s.outer, precond, s.opts.Tolerance, s.opts.Workers)
}

// Phase indices for the per-hierarchy time accounting below: the
// V-cycle phases, then the one-off set-up: the hierarchy's build, its
// coarse factorisation and its cycle arrays. phaseResidual and
// phaseGalerkin are shares of the phase before them, charged to both.
const (
	phaseSmooth   = iota
	phaseRestrict // includes the pre-restriction residual
	phaseResidual
	phaseProlong
	phaseCoarse
	phaseHierarchy // includes the Galerkin products
	phaseGalerkin
	phaseFactor
	phaseCycleArrays
	numPhases
)

// phaseAdd charges the elapsed time since start to the phase.
func (h *Hierarchy) phaseAdd(phase int, start time.Time) {
	h.phaseNanos[phase].Add(int64(time.Since(start)))
}

// PhaseStats is the cumulative wall time mg-cg has spent per phase on
// one hierarchy, summed over every solver and level. Callers snapshot it
// before and after a timed region and use the Sub difference.
type PhaseStats struct {
	// Smooth is the line relaxation time, Restrict the residual plus
	// full-weighting restriction, Prolong the interpolation of coarse
	// corrections, Coarse the exact coarsest-level solves.
	Smooth, Restrict, Prolong, Coarse time.Duration
	// Residual is the share of Restrict spent computing each level's
	// residual before it is restricted.
	Residual time.Duration
	// Hierarchy is the time spent building the hierarchy — BuildHierarchy
	// (Galerkin products, line smoothers, the coarsest level's symbolic
	// analysis), or Shifted for a derived one —, charged once when it is
	// built; Galerkin is its share spent in Galerkin products, zero for a
	// Shifted hierarchy, which builds none. Factor is the time spent
	// factoring the coarsest level, charged once per hierarchy by
	// whichever solve first needed the factor. CycleArrays is the time
	// spent building the cycle arrays of each precision solved in —
	// packing the off-line couplings from the operators (once for a
	// hierarchy and the ones Shifted derives from it) and rounding the
	// float32 cycle's copies —, charged once per hierarchy and precision
	// by the first solve of that precision. All four are set-up, not
	// V-cycle time, and Total leaves them out.
	Hierarchy, Galerkin, Factor, CycleArrays time.Duration
}

// PhaseStats returns the cumulative per-phase wall time spent on this
// hierarchy alone, isolating one spec's solves from everything else
// running in the process. Safe for concurrent use.
func (h *Hierarchy) PhaseStats() PhaseStats {
	return PhaseStats{
		Smooth:      time.Duration(h.phaseNanos[phaseSmooth].Load()),
		Restrict:    time.Duration(h.phaseNanos[phaseRestrict].Load()),
		Residual:    time.Duration(h.phaseNanos[phaseResidual].Load()),
		Prolong:     time.Duration(h.phaseNanos[phaseProlong].Load()),
		Coarse:      time.Duration(h.phaseNanos[phaseCoarse].Load()),
		Hierarchy:   time.Duration(h.phaseNanos[phaseHierarchy].Load()),
		Galerkin:    time.Duration(h.phaseNanos[phaseGalerkin].Load()),
		Factor:      time.Duration(h.phaseNanos[phaseFactor].Load()),
		CycleArrays: time.Duration(h.phaseNanos[phaseCycleArrays].Load()),
	}
}

// Sub returns the per-phase difference p − q, for deltas across a timed
// region.
func (p PhaseStats) Sub(q PhaseStats) PhaseStats {
	return PhaseStats{
		Smooth:      p.Smooth - q.Smooth,
		Restrict:    p.Restrict - q.Restrict,
		Residual:    p.Residual - q.Residual,
		Prolong:     p.Prolong - q.Prolong,
		Coarse:      p.Coarse - q.Coarse,
		Hierarchy:   p.Hierarchy - q.Hierarchy,
		Galerkin:    p.Galerkin - q.Galerkin,
		Factor:      p.Factor - q.Factor,
		CycleArrays: p.CycleArrays - q.CycleArrays,
	}
}

// Add returns the per-phase sum p + q, for totals over several timed
// regions.
func (p PhaseStats) Add(q PhaseStats) PhaseStats {
	return PhaseStats{
		Smooth:      p.Smooth + q.Smooth,
		Restrict:    p.Restrict + q.Restrict,
		Residual:    p.Residual + q.Residual,
		Prolong:     p.Prolong + q.Prolong,
		Coarse:      p.Coarse + q.Coarse,
		Hierarchy:   p.Hierarchy + q.Hierarchy,
		Galerkin:    p.Galerkin + q.Galerkin,
		Factor:      p.Factor + q.Factor,
		CycleArrays: p.CycleArrays + q.CycleArrays,
	}
}

// Total returns the summed V-cycle phase time (Residual, a share of
// Restrict, counted once, and the set-up phases Hierarchy, Galerkin,
// Factor and CycleArrays excluded).
func (p PhaseStats) Total() time.Duration {
	return p.Smooth + p.Restrict + p.Prolong + p.Coarse
}

// Footprint is the memory hierarchies' arrays hold, in bytes, computed
// from their lengths (slice headers and per-level structs are not
// counted), so one mesh gives the same count on any machine. The finest
// operator of a hierarchy BuildHierarchy built is the caller's matrix
// and is not counted; a Shifted hierarchy's finest values are its own,
// its finest sparsity is the caller's.
type Footprint struct {
	// Structure is what a hierarchy shares with every hierarchy Shifted
	// derives from it: the sparsity of the operators below the finest,
	// the transfer operators, the line smoothers' off-line columns and
	// colours, and the coarsest level's symbolic analysis.
	Structure int64
	// Packed64 and Packed32 are the float64 and float32 cycles' packed
	// off-line couplings (and the float32 cycle's transfer weights),
	// shared like Structure: each is zero until the first cycle of its
	// precision on any hierarchy sharing them.
	Packed64, Packed32 int64
	// Values is the hierarchy's own float64 values: its operators' values,
	// the line smoothers' Thomas coefficients and, once the first solve
	// has built it, the coarse factor.
	Values int64
	// Float32 is the float32 cycle's rounded copies of every level's
	// operator values (the finest level's included), the Thomas
	// coefficients and the coarse factor, zero until the hierarchy's
	// first float32 cycle.
	Float32 int64
}

// Total returns the bytes of every field.
func (f Footprint) Total() int64 {
	return f.Structure + f.Packed64 + f.Packed32 + f.Values + f.Float32
}

// FootprintOf returns the bytes the arrays of hs hold at the time of the
// call, counting what several of them share once: a steady hierarchy and
// the ones Shifted derives from it share Structure, Packed64 and
// Packed32, and each adds its own Values and Float32. Safe for
// concurrent use.
func FootprintOf(hs ...*Hierarchy) Footprint {
	var f Footprint
	seen := make(map[*family]bool)
	for _, h := range hs {
		if fam := h.family; !seen[fam] {
			seen[fam] = true
			f.Structure += fam.structure
			f.Packed64 += fam.f64.bytes.Load()
			f.Packed32 += fam.f32.bytes.Load()
		}
		f.Values += h.values.Load()
		f.Float32 += h.copies.Load()
	}
	return f
}

// sizeOf returns the bytes of s's elements.
func sizeOf[T any](s []T) int64 {
	var v T
	return int64(len(s)) * int64(unsafe.Sizeof(v))
}

// structureBytes returns Footprint.Structure of a built hierarchy.
func (h *Hierarchy) structureBytes() int64 {
	b := h.coarse.Bytes()
	for l, lv := range h.levels {
		if l > 0 {
			b += sizeOf(lv.a.RowPtr()) + sizeOf(lv.a.ColIdx())
		}
		b += sizeOf(lv.ls.offPtr) + sizeOf(lv.ls.offCol)
		for _, c := range lv.ls.colors {
			b += sizeOf(c)
		}
		for _, ax := range []*axisInterp{lv.ix, lv.iy} {
			if ax == nil {
				continue
			}
			b += sizeOf(ax.lo) + sizeOf(ax.hi) + sizeOf(ax.wlo) + sizeOf(ax.whi)
			for c := range ax.rev {
				b += sizeOf(ax.rev[c]) + sizeOf(ax.revW[c])
			}
		}
	}
	return b
}

// valueBytes returns Footprint.Values of a built hierarchy before its
// coarse factor: the operator values of the levels from level from on,
// and every level's Thomas coefficients.
func (h *Hierarchy) valueBytes(from int) int64 {
	var b int64
	for l, lv := range h.levels {
		if l >= from {
			b += sizeOf(lv.a.Values())
		}
		b += sizeOf(lv.ls.subL) + sizeOf(lv.ls.cpL) + sizeOf(lv.ls.invL)
	}
	return b
}

// CoarseOperator returns the coarsest-level matrix (read-only; shared
// with the hierarchy's own solves), numbered z-line-major unless the
// hierarchy has a single level. Benchmarks factor it directly to split
// factor time from per-solve time.
func (h *Hierarchy) CoarseOperator() *sparse.CSR {
	return h.levels[len(h.levels)-1].a
}

// CoarseOrdering returns the fill-reducing nested-dissection ordering
// the coarsest level is factored under (perm[k] = row of CoarseOperator
// at permuted position k).
func (h *Hierarchy) CoarseOrdering() []int32 {
	return coarseNDOrder(h.levels[len(h.levels)-1])
}

// vcycle runs one V-cycle on level l in the precision of F, improving x
// (which must arrive zeroed at preconditioner entry) towards A·x = b. The
// coarsest level is solved exactly by the factor's triangular sweeps.
// Each side smooths with one symmetric pass — a forward plus a backward
// line Gauss–Seidel sweep, colour by colour on the worker pool (serial
// lexicographic order under the test hook) — so pre- and post-smoothing
// apply the identical symmetric operation and the V-cycle stays an SPD
// preconditioner.
func vcycle[F sparse.Float](h *Hierarchy, ws *workspace[F], l int, x, b []F) {
	if l == len(h.levels)-1 {
		start := time.Now()
		copy(x, b)
		sparse.CholeskySolve(ws.arr.factor, ws.arr.factorVals, x, ws.coarse)
		h.phaseAdd(phaseCoarse, start)
		return
	}
	lv, arr := h.levels[l], &ws.arr.levels[l]
	smooth := func() {
		start := time.Now()
		defer h.phaseAdd(phaseSmooth, start)
		if ws.lex {
			sweepLex(lv.ls, arr, x, b, false)
			sweepLex(lv.ls, arr, x, b, true)
			return
		}
		sweepColored(lv.ls, arr, x, b, ws.sweepWorkers[l], false)
		sweepColored(lv.ls, arr, x, b, ws.sweepWorkers[l], true)
	}
	smooth()
	r, xc, bc := ws.r[l], ws.xc[l], ws.bc[l]
	start := time.Now()
	if lv.layerMajor {
		fineResidual(lv, arr.a, r, x, b, ws.workers)
	} else {
		sparse.MulVecValues(lv.a, arr.a, r, x, ws.workers)
		for i := range r {
			r[i] = b[i] - r[i]
		}
	}
	h.phaseAdd(phaseResidual, start)
	restrict(lv, arr, bc, r, ws.sweepWorkers[l])
	h.phaseAdd(phaseRestrict, start)
	clear(xc)
	vcycle(h, ws, l+1, xc, bc)
	start = time.Now()
	prolongAdd(lv, arr, x, xc, ws.sweepWorkers[l])
	h.phaseAdd(phaseProlong, start)
	smooth()
}
