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
// (full-weighting restriction). Levels are smoothed with symmetric z-line
// relaxation — exact tridiagonal (Thomas) solves along each vertical cell
// column, the robust partner of lateral semicoarsening on stacks whose
// µm-thin layers couple far more strongly in z than in the plane —
// relaxed colour class by colour class on the worker pool.
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
// The V-cycle is written once, generic over float32 and float64. The
// float64 cycle reads the hierarchy's own arrays; the float32 cycle reads
// rounded copies of them, built once per hierarchy, and halves the memory
// traffic of the bandwidth-bound stencil sweeps inside a float64 outer
// CG. The outer tolerance and the system size pick the precision
// (float32 at 1e-9 or looser on at most 2¹⁹ cells), so a Solver is
// configured by its hierarchy, its tolerance and its worker cap alone,
// and equal tolerances on equal systems give equal bits. The coarsest
// level is always solved exactly by a sparse Cholesky factor under a
// nested-dissection ordering, built once per hierarchy by the first
// solve that needs it (its time is PhaseStats.Factor): BuildHierarchy
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
// factorisations and the coarse factor — runs on the workers the
// hierarchy was built with (BuildHierarchy's Options.Workers; GOMAXPROCS
// under fvm), never on those of the solver that first asks, and every
// value it computes sums its terms in a fixed order, so its bits do not
// depend on the worker count.
package mg

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vcselnoc/internal/parallel"
	"vcselnoc/internal/sparse"
)

// Options parameterises the mg-cg solver. The zero value is a good
// default for FVM conduction systems.
type Options struct {
	// Tolerance is the outer CG relative residual target; 0 means 1e-9.
	// With the system's size it picks the V-cycle's precision
	// (effectivePrecision). The outer CG gives up after 10·n iterations.
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
	// (precisionFloat32 or precisionFloat64; "" = effectivePrecision's
	// rule).
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

// effectivePrecision returns the V-cycle precision for a fine-level
// system of n unknowns: float32 at practical tolerances on small-to-mid
// systems, float64 otherwise. The tolerance and n alone decide it, unless
// the precision test hook forces one.
func (o Options) effectivePrecision(n int) string {
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
	// layerMajor marks an operator numbered layer-major, cell (l, k) at
	// row k·nx·ny+l: the finest level's, which is the caller's matrix.
	// Every coarser operator is numbered line-major, (l, k) at l·nz+k.
	layerMajor bool
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

// lineSmoother holds the precomputed Thomas factorisation of every
// vertical cell column of one level, in the line-major numbering every
// V-cycle vector uses. Because z is never coarsened and the operator's
// z-coupling is confined to the same lateral position, the entries
// coupling layers k±1 of one line form an exact tridiagonal system per
// (i, j) line on every Galerkin level; solving it exactly per sweep
// removes the strongly-coupled vertical error components a point
// smoother crawls through. All remaining (off-line) row entries are
// repacked, in row order, into a private CSR-like store walked linearly
// by the sweep, so the hot loop touches no branch-filtered a.Row()
// slices. The struct additionally carries a colouring of the
// line-coupling graph: lines of one colour share no matrix entry and may
// be relaxed concurrently with a result bit-identical to relaxing them
// one by one. It is immutable after construction and shared (read-only)
// by all solvers of a hierarchy.
type lineSmoother struct {
	lines, nz int
	// Line-major Thomas coefficients: entry j = l·nz + k holds layer k of
	// line l. subL is the coupling to the layer below (zero on the bottom
	// layer); cpL and invL are the forward-elimination coefficients c′_k
	// and 1/(d_k − sub_k·c′_{k−1}).
	subL, cpL, invL []float64
	// Packed off-line coefficients of cell j = l·nz + k: offCol/offVal
	// entries offPtr[j] ≤ p < offPtr[j+1], with offCol holding line-major
	// cell indices of other lines. These are the couplings the block
	// Gauss–Seidel sweep moves to the right-hand side at their current
	// values.
	offPtr []int32
	offCol []int32
	offVal []float64
	// colors partitions the lines into structurally independent classes:
	// no two lines of one class share an off-line coupling. The fine
	// 5-point lateral stencil yields the classic 2 colours; the widened
	// 9-point Galerkin stencils of coarse levels get up to 4.
	colors [][]int32
}

// newLineSmoother factorises the vertical tridiagonal of every lateral
// line of lv, packs the off-line couplings and colours the line-coupling
// graph. A non-positive pivot means the operator is not SPD. A coupling
// between layers more than one apart is refused too: on one line it would
// leave the line system non-tridiagonal, and fineResidual relies on every
// coupling of the finest level reaching one layer at most (fvm's 7-point
// operators and, z being kept, their Galerkin products never do). A
// counting pass sizes the packed store, then blocks of lineChunk lines
// are factored and packed on up to workers goroutines, each line writing
// only its own cells; the first error in line order is reported, and the
// colouring runs serially on the same adjacency, so the result does not
// depend on workers.
func newLineSmoother(lv *level, workers int) (*lineSmoother, error) {
	lines, nz := lv.nx*lv.ny, lv.nz
	n := lines * nz
	ls := &lineSmoother{
		lines: lines, nz: nz,
		subL: make([]float64, n), cpL: make([]float64, n), invL: make([]float64, n),
		offPtr: make([]int32, n+1),
	}
	w := sparse.MulVecWorkers(n, workers)
	chunks := (lines + lineChunk - 1) / lineChunk
	step := 1 // row distance between vertically adjacent cells of a line
	if lv.layerMajor {
		step = lines
	}
	// Count each cell's off-line couplings: every entry of its row but
	// the ones on its own line, layers k−1 to k+1.
	parallel.ForEach(w, chunks, func(_, chunk int) error { //nolint:errcheck // fn never fails
		for l := chunk * lineChunk; l < min((chunk+1)*lineChunk, lines); l++ {
			for k := 0; k < nz; k++ {
				i := lv.cell(l, k)
				cols, _ := lv.a.Row(i)
				off := len(cols)
				for _, c := range cols {
					if int(c) == i || (k > 0 && int(c) == i-step) || (k < nz-1 && int(c) == i+step) {
						off--
					}
				}
				ls.offPtr[l*nz+k+1] = int32(off)
			}
		}
		return nil
	})
	for j := range n {
		ls.offPtr[j+1] += ls.offPtr[j]
	}
	ls.offCol = make([]int32, ls.offPtr[n])
	ls.offVal = make([]float64, ls.offPtr[n])
	adj := make([][]int32, lines)
	err := parallel.ForEach(w, chunks, func(_, chunk int) error {
		for l := chunk * lineChunk; l < min((chunk+1)*lineChunk, lines); l++ {
			if err := ls.factorLine(lv, l, adj); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ls.colors = colorLines(adj, lines)
	return ls, nil
}

// factorLine computes line l's Thomas coefficients, packs its off-line
// couplings into their counted slots and lists the lines it couples to
// in adj[l].
func (ls *lineSmoother) factorLine(lv *level, l int, adj [][]int32) error {
	nz := ls.nz
	prevCp := 0.0
	for k := 0; k < nz; k++ {
		j := l*nz + k
		q := ls.offPtr[j]
		var sub, diag, sup float64
		cols, vals := lv.a.Row(lv.cell(l, k))
		for p, c := range cols {
			cl, ck := lv.lineOf(int(c))
			switch {
			case ck < k-1 || ck > k+1:
				return fmt.Errorf("mg: cell %d couples layers %d and %d (more than one apart)", lv.cell(l, k), k, ck)
			case cl != l:
				ls.offCol[q] = int32(cl*nz + ck)
				ls.offVal[q] = vals[p]
				q++
				adj[l] = appendUniqueInt32(adj[l], int32(cl))
			case ck == k-1:
				sub = vals[p]
			case ck == k:
				diag = vals[p]
			default:
				sup = vals[p]
			}
		}
		denom := diag - sub*prevCp
		if denom <= 0 {
			return fmt.Errorf("mg: z-line pivot %g at cell %d (matrix not SPD?)", denom, lv.cell(l, k))
		}
		ls.subL[j] = sub
		ls.invL[j] = 1 / denom
		prevCp = sup / denom
		ls.cpL[j] = prevCp
	}
	return nil
}

func appendUniqueInt32(s []int32, v int32) []int32 {
	for _, e := range s {
		if e == v {
			return s
		}
	}
	return append(s, v)
}

// colorLines greedy-colours the line-coupling graph in ascending line
// order (smallest unused colour wins). Greedy needs at most maxdegree+1
// colours; line degrees are ≤ 8 even on the widened coarse stencils, so
// the uint64 used-colour mask never saturates. Lines within one returned
// class are pairwise uncoupled.
func colorLines(adj [][]int32, lines int) [][]int32 {
	color := make([]int, lines)
	maxColor := 1
	for l := 0; l < lines; l++ {
		var used uint64
		for _, nl := range adj[l] {
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
// level the operator values, the line smoother's coefficients and the
// transfer weights, plus the coarse factor's values. Sparsity, line
// colouring and interpolation stencils stay on the levels and the factor,
// shared by both precisions. The float64 instance aliases the hierarchy's
// own arrays; the float32 instance holds rounded copies (rounded from the
// float64 factorisations, not refactorised, so the float32 cycle applies
// the same operator to within rounding).
type cycleArrays[F sparse.Float] struct {
	levels     []levelArrays[F]
	factor     *sparse.SparseCholesky
	factorVals []F
}

// levelArrays are the values of one level in the precision of F: the
// operator's in its own entry order (layer-major rows on the finest
// level, line-major below), the smoother's in the line-major numbering.
type levelArrays[F sparse.Float] struct {
	a                 []F // operator values, in the order of a.Values()
	sub, cp, inv, off []F // lineSmoother subL, cpL, invL, offVal
	// xlo/xhi and ylo/yhi are the lateral axes' interpolation weights
	// (nil on the coarsest level).
	xlo, xhi, ylo, yhi []F
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

func newCycleArrays[F sparse.Float](h *Hierarchy, factor *sparse.SparseCholesky) *cycleArrays[F] {
	ca := &cycleArrays[F]{
		levels:     make([]levelArrays[F], len(h.levels)),
		factor:     factor,
		factorVals: asF[F](factor.Values()),
	}
	for l, lv := range h.levels {
		la := &ca.levels[l]
		la.a = asF[F](lv.a.Values())
		la.sub, la.cp, la.inv, la.off = asF[F](lv.ls.subL), asF[F](lv.ls.cpL), asF[F](lv.ls.invL), asF[F](lv.ls.offVal)
		if lv.ix != nil {
			withTransfer(la, lv)
		}
	}
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
	// f32 holds the float32 copies of the cycle's arrays, built on the
	// first float32 preconditioner and shared by every later one.
	f32Once sync.Once
	f32     *cycleArrays[float32]
	// phaseNanos accumulates per-phase wall time for this hierarchy
	// alone, so concurrently solving specs don't blend their phase
	// fractions.
	phaseNanos [numPhases]atomic.Int64
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
	h := &Hierarchy{workers: opts.effectiveWorkers()}
	xl, yl, zl := hint.X, hint.Y, hint.Z
	cur := a
	for {
		lv, err := h.newLevel(cur, xl, yl, zl)
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
		cur, err = h.coarsenTo(lv, xl, yl, cxl, cyl)
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
	h.phaseAdd(phaseHierarchy, start)
	return h, nil
}

// newLevel assembles the next hierarchy level for operator a on the given
// axis line sets: diagonal validation plus the z-line factorisation.
func (h *Hierarchy) newLevel(a *sparse.CSR, xl, yl, zl []float64) (*level, error) {
	depth := len(h.levels)
	lv := &level{a: a, nx: len(xl) - 1, ny: len(yl) - 1, nz: len(zl) - 1, layerMajor: depth == 0}
	for i, d := range a.Diag() {
		if d <= 0 {
			return nil, fmt.Errorf("mg: non-positive diagonal %g at row %d of level %d (matrix not SPD?)", d, i, depth)
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
// assembles the Galerkin coarse operator.
func (h *Hierarchy) coarsenTo(lv *level, xl, yl, cxl, cyl []float64) (*sparse.CSR, error) {
	lv.ix = newAxisInterp(xl, cxl)
	lv.iy = newAxisInterp(yl, cyl)
	coarse, err := galerkin(lv, h.workers)
	if err != nil {
		return nil, fmt.Errorf("mg: level %d Galerkin product: %w", len(h.levels)-1, err)
	}
	return coarse, nil
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
		coarse, err := h.coarsenTo(lv, xl, yl, cxl, cyl)
		if err != nil {
			return err
		}
		nlv, err := h.newLevel(coarse, cxl, cyl, zl)
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
// product. The transfer operators, level geometry and off-diagonal
// Galerkin stencils are shared as-is; only the diagonals change: the
// shift vector is carried down the hierarchy by full-weighting
// restriction (mass lumping of Pᵀ·diag(shift)·P, exact on constants
// because interpolation weights sum to one), each level's operator
// becomes its steady Galerkin operator plus its lumped shift, and the
// per-level z-line Thomas factorisations are recomputed — one cheap
// matrix pass per level instead of the RAP products that dominate
// BuildHierarchy, on this hierarchy's workers; the coarsest level keeps
// its pattern, so the symbolic analysis of its factor is shared too, and
// the derivation's wall time is the new hierarchy's Hierarchy phase. A
// positive shift only adds diagonal dominance, so the
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
	out := &Hierarchy{levels: make([]*level, len(h.levels)), workers: h.workers, coarse: h.coarse}
	cur := shift // this level's shift, in its operator's numbering
	for l, lv := range h.levels {
		nlv := &level{
			a:  sparse.AddDiagonal(lv.a, cur),
			nx: lv.nx, ny: lv.ny, nz: lv.nz,
			ix: lv.ix, iy: lv.iy,
			layerMajor: lv.layerMajor,
		}
		ls, err := newLineSmoother(nlv, h.workers)
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
	out.phaseAdd(phaseHierarchy, start)
	return out, nil
}

// galerkin assembles the coarse operator A_c = Pᵀ·A·P of one level, where
// P is the lateral tensor-product interpolation lv.ix ⊗ lv.iy applied
// layer by layer. Rows are built with a dense scatter buffer (Gustavson's
// algorithm), so the cost is proportional to the number of triple-product
// terms, not to any matrix dimension squared. The coarse operator comes
// out line-major, coarse row (cl, k) at cl·nz+k, with its entries in
// ascending layer-major column order (k′·lines+cl′): the order a
// layer-major product stores them in, so every later sum over a row adds
// its terms in the same order in either numbering. Each entry itself
// sums the fine rows in the order the adjoint stencils list them and each
// row's entries in its stored order. Contiguous blocks of coarse lines
// are built on up to workers goroutines, each with its own scatter
// buffers, and stitched into the operator's arrays, which are allocated
// once at their final size; the bits do not depend on workers.
func galerkin(lv *level, workers int) (*sparse.CSR, error) {
	lines := lv.ix.nc * lv.iy.nc
	nc := lines * lv.nz
	rowPtr := make([]int, nc+1)
	blocks := make([]galerkinBlock, sparse.MulVecWorkers(nc, workers))
	parallel.ForEach(len(blocks), len(blocks), func(_, b int) error { //nolint:errcheck // fn never fails
		blocks[b].build(lv, b*lines/len(blocks), (b+1)*lines/len(blocks), rowPtr)
		return nil
	})
	for i := range nc {
		rowPtr[i+1] += rowPtr[i]
	}
	cols := make([]int32, rowPtr[nc])
	vals := make([]float64, rowPtr[nc])
	parallel.ForEach(len(blocks), len(blocks), func(_, b int) error { //nolint:errcheck // fn never fails
		at := rowPtr[b*lines/len(blocks)*lv.nz]
		blk := &blocks[b]
		for c := range blk.cols {
			copy(cols[at:], blk.cols[c])
			at += copy(vals[at:], blk.vals[c])
		}
		*blk = galerkinBlock{}
		return nil
	})
	return sparse.NewCSRInRowOrder(nc, rowPtr, cols, vals)
}

// galerkinChunk is the entry capacity of one chunk of a galerkinBlock.
const galerkinChunk = 1 << 16

// galerkinBlock holds the rows of one run of coarse lines while the
// product is built: their entries, in row order, in chunks of up to
// galerkinChunk entries that no row straddles, so the block never copies
// what it has built.
type galerkinBlock struct {
	cols [][]int32
	vals [][]float64
}

// build computes the rows of coarse lines [l0, l1), writing each row's
// entry count to rowPtr[row+1].
func (blk *galerkinBlock) build(lv *level, l0, l1 int, rowPtr []int) {
	ix, iy := lv.ix, lv.iy
	nxf, nz := lv.nx, lv.nz
	nxc := ix.nc
	lines := nxc * iy.nc
	nc := lines * nz

	// scratch and marked are keyed by layer-major coarse index.
	scratch := make([]float64, nc)
	marked := make([]bool, nc)
	var touched []int32

	// scatter adds w·a into the coarse columns derived from fine column c.
	scatter := func(c int, w float64) {
		fl, fk := lv.lineOf(c)
		fi, fj := fl%nxf, fl/nxf
		xw := [2]float64{ix.wlo[fi], ix.whi[fi]}
		xj := [2]int32{ix.lo[fi], ix.hi[fi]}
		yw := [2]float64{iy.wlo[fj], iy.whi[fj]}
		yj := [2]int32{iy.lo[fj], iy.hi[fj]}
		for yi := 0; yi < 2; yi++ {
			if yw[yi] == 0 {
				continue
			}
			for xi := 0; xi < 2; xi++ {
				if xw[xi] == 0 {
					continue
				}
				J := (fk*iy.nc+int(yj[yi]))*nxc + int(xj[xi])
				if !marked[J] {
					marked[J] = true
					touched = append(touched, int32(J))
				}
				scratch[J] += w * yw[yi] * xw[xi]
			}
		}
	}

	for cl := l0; cl < l1; cl++ {
		ci, cj := cl%nxc, cl/nxc
		for k := 0; k < nz; k++ {
			touched = touched[:0]
			// Fine rows contributing to this coarse row: the adjoint
			// stencils of the lateral axes, on the same layer.
			for yi, fj := range iy.rev[cj] {
				wy := iy.revW[cj][yi]
				for xi, fi := range ix.rev[ci] {
					rw := ix.revW[ci][xi] * wy
					rc, rv := lv.a.Row(lv.cell(int(fj)*nxf+int(fi), k))
					for p := range rc {
						scatter(int(rc[p]), rw*rv[p])
					}
				}
			}
			// Gather the scattered row in layer-major column order,
			// numbering the columns line-major.
			sortInt32(touched)
			last := len(blk.cols) - 1
			if last < 0 || cap(blk.cols[last])-len(blk.cols[last]) < len(touched) {
				size := max(galerkinChunk, len(touched))
				blk.cols = append(blk.cols, make([]int32, 0, size))
				blk.vals = append(blk.vals, make([]float64, 0, size))
				last++
			}
			cols, vals := blk.cols[last], blk.vals[last]
			for _, J := range touched {
				cols = append(cols, int32(int(J)%lines*nz+int(J)/lines))
				vals = append(vals, scratch[J])
				scratch[J] = 0
				marked[J] = false
			}
			blk.cols[last], blk.vals[last] = cols, vals
			rowPtr[cl*nz+k+1] = len(touched)
		}
	}
}

// sortInt32 insertion-sorts a short slice (coarse stencils are ≤ a few
// dozen entries, below the crossover where library sorts pay off).
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
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
// layer k lies in layer k−1, k or k+1 (newLineSmoother checks), so its
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
	if s.opts.effectivePrecision(h.levels[0].n()) == precisionFloat32 {
		// Mixed precision: the V-cycle runs entirely in float32 (halving
		// the memory traffic of the bandwidth-bound stencil sweeps) while
		// the outer CG sees a float64 operator as usual.
		h.f32Once.Do(func() { h.f32 = newCycleArrays[float32](h, factor) })
		s.precond = newPrecond(h, h.f32, s.opts)
	} else {
		s.precond = newPrecond(h, newCycleArrays[float64](h, factor), s.opts)
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
// V-cycle phases, then the one-off set-up: the hierarchy's build and its
// coarse factorisation.
const (
	phaseSmooth   = iota
	phaseRestrict // includes the pre-restriction residual
	phaseProlong
	phaseCoarse
	phaseHierarchy
	phaseFactor
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
	// Hierarchy is the time spent building the hierarchy — BuildHierarchy
	// (Galerkin products, line smoothers, the coarsest level's symbolic
	// analysis), or Shifted for a derived one —, charged once when it is
	// built. Factor is the time spent factoring the coarsest level,
	// charged once per hierarchy by whichever solve first needed the
	// factor. Both are set-up, not V-cycle time, and Total leaves them
	// out.
	Hierarchy, Factor time.Duration
}

// PhaseStats returns the cumulative per-phase wall time spent on this
// hierarchy alone, isolating one spec's solves from everything else
// running in the process. Safe for concurrent use.
func (h *Hierarchy) PhaseStats() PhaseStats {
	return PhaseStats{
		Smooth:    time.Duration(h.phaseNanos[phaseSmooth].Load()),
		Restrict:  time.Duration(h.phaseNanos[phaseRestrict].Load()),
		Prolong:   time.Duration(h.phaseNanos[phaseProlong].Load()),
		Coarse:    time.Duration(h.phaseNanos[phaseCoarse].Load()),
		Hierarchy: time.Duration(h.phaseNanos[phaseHierarchy].Load()),
		Factor:    time.Duration(h.phaseNanos[phaseFactor].Load()),
	}
}

// Sub returns the per-phase difference p − q, for deltas across a timed
// region.
func (p PhaseStats) Sub(q PhaseStats) PhaseStats {
	return PhaseStats{
		Smooth:    p.Smooth - q.Smooth,
		Restrict:  p.Restrict - q.Restrict,
		Prolong:   p.Prolong - q.Prolong,
		Coarse:    p.Coarse - q.Coarse,
		Hierarchy: p.Hierarchy - q.Hierarchy,
		Factor:    p.Factor - q.Factor,
	}
}

// Add returns the per-phase sum p + q, for totals over several timed
// regions.
func (p PhaseStats) Add(q PhaseStats) PhaseStats {
	return PhaseStats{
		Smooth:    p.Smooth + q.Smooth,
		Restrict:  p.Restrict + q.Restrict,
		Prolong:   p.Prolong + q.Prolong,
		Coarse:    p.Coarse + q.Coarse,
		Hierarchy: p.Hierarchy + q.Hierarchy,
		Factor:    p.Factor + q.Factor,
	}
}

// Total returns the summed V-cycle phase time (Hierarchy and Factor
// excluded).
func (p PhaseStats) Total() time.Duration {
	return p.Smooth + p.Restrict + p.Prolong + p.Coarse
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
	restrict(lv, arr, bc, r, ws.sweepWorkers[l])
	h.phaseAdd(phaseRestrict, start)
	clear(xc)
	vcycle(h, ws, l+1, xc, bc)
	start = time.Now()
	prolongAdd(lv, arr, x, xc, ws.sweepWorkers[l])
	h.phaseAdd(phaseProlong, start)
	smooth()
}
