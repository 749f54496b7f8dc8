package sparse

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// GridHint carries the structured-grid geometry a matrix was assembled on:
// the grid-line coordinates of a tensor-product mesh (len = cells+1 per
// axis). The multigrid hierarchy (internal/mg) is built from it.
type GridHint struct {
	X, Y, Z []float64
}

// NX returns the cell count along x (0 for an empty hint).
func (h GridHint) NX() int { return max0(len(h.X) - 1) }

// NY returns the cell count along y (0 for an empty hint).
func (h GridHint) NY() int { return max0(len(h.Y) - 1) }

// NZ returns the cell count along z (0 for an empty hint).
func (h GridHint) NZ() int { return max0(len(h.Z) - 1) }

// Empty reports whether no geometry was provided.
func (h GridHint) Empty() bool { return len(h.X) == 0 && len(h.Y) == 0 && len(h.Z) == 0 }

func max0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// Result reports how an iterative solve went: the preconditioned CG
// solves here and in internal/mg all return it.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual ‖r‖/‖b‖
	Converged  bool
}

// Workspace holds the scratch vectors of a preconditioned CG solve so
// repeated solves against same-sized systems allocate nothing. The zero
// value is ready to use; vectors grow on demand.
type Workspace struct {
	r, z, p, ap []float64
	// inv is the inverse diagonal of invFor, the Jacobi preconditioner
	// CG caches across solves of one matrix.
	inv    []float64
	invFor *CSR
}

// NewWorkspace pre-sizes a workspace for n-dimensional systems.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

func (w *Workspace) ensure(n int) {
	if cap(w.r) < n {
		w.r = make([]float64, n)
		w.z = make([]float64, n)
		w.p = make([]float64, n)
		w.ap = make([]float64, n)
		w.inv = make([]float64, n)
		w.invFor = nil
	}
	w.r = w.r[:n]
	w.z = w.z[:n]
	w.p = w.p[:n]
	w.ap = w.ap[:n]
	w.inv = w.inv[:n]
}

// MulVecWorkers resolves the goroutine count of a parallel sweep over n
// rows from a worker cap (0 means GOMAXPROCS): systems under 4096 rows
// run serially, larger ones get at most one worker per 2048 rows. Every
// row product and the multigrid line smoother share this rule.
func MulVecWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < 4096 {
		return 1
	}
	if max := n / 2048; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// MulVecN computes dst = m · x using up to workers goroutines (0 means
// GOMAXPROCS). Rows are split into contiguous ranges; small systems run
// serially regardless.
func (m *CSR) MulVecN(dst, x []float64, workers int) {
	MulVecValues(m, m.values, dst, x, workers)
}

// MulVecValues is MulVecN in the precision of F with vals — one value
// per stored entry, in Values order — in place of m's own values: a
// mixed-precision preconditioner applies a float32 copy of the operator
// over the shared sparsity structure. Each row sums in the same order
// whatever the worker count, so results are bit-identical across it.
func MulVecValues[F Float](m *CSR, vals, dst, x []F, workers int) {
	if len(dst) != m.n || len(x) != m.n || len(vals) != len(m.values) {
		panic("sparse: MulVec dimension mismatch")
	}
	workers = MulVecWorkers(m.n, workers)
	if workers == 1 {
		mulRange(m, vals, dst, x, 0, m.n)
		return
	}
	var wg sync.WaitGroup
	chunk := (m.n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m.n {
			hi = m.n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRange(m, vals, dst, x, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// CG is the Jacobi (diagonal) preconditioned conjugate gradient solver,
// allocation-free across solves. The thermal stack solves with mg-cg
// (internal/mg); CG is the plain reference its tests compare against.
type CG struct {
	// Tolerance is the relative residual target; 0 means 1e-9.
	Tolerance float64
	// MaxIterations bounds iterations; 0 means 10·n.
	MaxIterations int
	// Workers caps MulVec goroutines; 0 means GOMAXPROCS.
	Workers int
	// Workspace may be supplied to share scratch space; nil lazily
	// allocates one owned by this instance.
	Workspace *Workspace
}

// Preconditioner prepares the inverse diagonal of a and returns its
// application z = D⁻¹·r.
func (s *CG) Preconditioner(a *CSR) (func(z, r []float64), error) {
	if s.Workspace == nil {
		s.Workspace = &Workspace{}
	}
	w := s.Workspace
	w.ensure(a.n)
	if w.invFor != a {
		for i := 0; i < a.n; i++ {
			d := a.diagAt(i)
			if d <= 0 {
				return nil, fmt.Errorf("sparse: non-positive diagonal %g at row %d (matrix not SPD?)", d, i)
			}
			w.inv[i] = 1 / d
		}
		w.invFor = a
	}
	return func(z, r []float64) {
		inv := w.inv
		for i := range z {
			z[i] = inv[i] * r[i]
		}
	}, nil
}

// Solve computes x ≈ a⁻¹·b in place: the incoming x seeds the iteration,
// and on non-convergence the best iterate is left in x alongside a
// non-nil error and the populated Result.
func (s *CG) Solve(a *CSR, b, x []float64) (Result, error) {
	precond, err := s.Preconditioner(a)
	if err != nil {
		return Result{}, err
	}
	return pcg(a, b, x, s.Workspace, precond, s.Tolerance, s.MaxIterations, s.Workers)
}

// diagAt returns the stored diagonal of row i (0 if absent).
func (m *CSR) diagAt(i int) float64 {
	for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
		if int(m.colIdx[p]) == i {
			return m.values[p]
		}
	}
	return 0
}

// PCG runs the shared preconditioned conjugate gradient engine with a
// caller-supplied preconditioner application z = M⁻¹·r; mg-cg runs its
// V-cycle inside it, so CG and mg-cg share one Krylov loop. x is
// warm-start input and solution output; the best iterate is always left
// in x, converged or not. A nil workspace allocates a fresh one.
func PCG(a *CSR, b, x []float64, w *Workspace, precond func(z, r []float64), tol float64, maxIter, workers int) (Result, error) {
	if w == nil {
		w = &Workspace{}
	}
	w.ensure(a.n)
	return pcg(a, b, x, w, precond, tol, maxIter, workers)
}

// pcg is the shared preconditioned conjugate gradient engine. precond must
// compute z = M⁻¹·r. x is warm-start input and solution output; the best
// iterate is always left in x, converged or not.
func pcg(a *CSR, b, x []float64, w *Workspace, precond func(z, r []float64), tol float64, maxIter, workers int) (Result, error) {
	n := a.n
	if len(b) != n {
		return Result{}, fmt.Errorf("sparse: rhs length %d != n %d", len(b), n)
	}
	if len(x) != n {
		return Result{}, fmt.Errorf("sparse: solution length %d != n %d", len(x), n)
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	if tol <= 0 {
		tol = 1e-9
	}
	bNorm := Norm2(b)
	if bNorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true}, nil
	}
	// A non-finite ‖b‖ (an Inf or NaN entry, or finite entries whose
	// squares overflow) can never meet a relative tolerance: fail now
	// rather than iterate to maxIter on Inf/NaN residuals.
	if math.IsInf(bNorm, 0) || math.IsNaN(bNorm) {
		return Result{}, fmt.Errorf("sparse: right-hand side norm %g is not finite", bNorm)
	}

	r, z, p, ap := w.r, w.z, w.p, w.ap
	a.MulVecN(ap, x, workers)
	for i := range r {
		r[i] = b[i] - ap[i]
	}
	precond(z, r)
	copy(p, z)
	rz := Dot(r, z)

	var res Result
	res.Residual = Norm2(r) / bNorm
	if res.Residual <= tol {
		res.Converged = true
		return res, nil
	}
	for k := 0; k < maxIter; k++ {
		res.Iterations = k + 1
		a.MulVecN(ap, p, workers)
		pap := Dot(p, ap)
		// Written so that a NaN p·Ap stops the loop too.
		if !(pap > 0) {
			return res, fmt.Errorf("sparse: p·Ap = %g not positive at iteration %d (matrix not SPD)", pap, k)
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rNorm := Norm2(r)
		res.Residual = rNorm / bNorm
		if res.Residual <= tol {
			res.Converged = true
			return res, nil
		}
		precond(z, r)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return res, fmt.Errorf("sparse: CG did not converge in %d iterations (residual %.3e)", maxIter, res.Residual)
}
