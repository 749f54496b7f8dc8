package sparse

import (
	"fmt"
	"runtime"
	"sync"
)

// GridHint carries the structured-grid geometry a matrix was assembled on:
// the grid-line coordinates of a tensor-product mesh (len = cells+1 per
// axis). Geometry-aware backends (geometric multigrid) need it to build
// their mesh hierarchy; algebraic backends ignore it.
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

// GridSolver is implemented by backends that exploit grid geometry.
// Callers that know the mesh behind a matrix (the FVM layer does) should
// pass it down before the first Solve; solving a grid-dependent backend
// without a hint fails with a descriptive error.
type GridSolver interface {
	Solver
	// SetGridHint supplies the structured-grid geometry of upcoming
	// matrices. The product of the axis cell counts must match N of every
	// matrix later passed to Solve.
	SetGridHint(h GridHint)
}

// Preconditioned is implemented by backends whose preconditioner can be
// prepared once and applied standalone. Block (multi-RHS) Krylov solves
// use it to share one preconditioner across all right-hand sides.
type Preconditioned interface {
	// Preconditioner prepares M⁻¹ for a and returns its application
	// z = M⁻¹·r. The closure may share the solver's workspace and is NOT
	// safe for concurrent use.
	Preconditioner(a *CSR) (func(z, r []float64), error)
}

// Result reports how an iterative solve went. It is the common currency of
// every Solver backend.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual ‖r‖/‖b‖
	Converged  bool
}

// Solver is a pluggable linear solver for symmetric positive definite
// systems. Solve computes x ≈ A⁻¹·b; the incoming contents of x seed the
// iteration (warm start) and the solution is written back into x, so
// repeated solves against slowly varying right-hand sides converge fast
// without any allocation.
//
// A Solver instance owns a reusable workspace and is therefore NOT safe
// for concurrent use; create one instance per goroutine (they are cheap —
// the workspace is allocated lazily on first Solve and grown on demand).
type Solver interface {
	// Name identifies the backend (e.g. "jacobi-cg", "ssor-cg").
	Name() string
	// Solve solves a·x = b in place. On non-convergence the best iterate
	// reached is left in x and a non-nil error is returned alongside the
	// populated Result.
	Solve(a *CSR, b, x []float64) (Result, error)
}

// Backend names accepted by Config and NewSolver. BackendMGCG is only
// available once its package (internal/mg) has been linked in — it
// registers itself via RegisterBackend; the FVM layer imports it, so any
// program using the thermal stack has all three.
const (
	BackendJacobiCG = "jacobi-cg"
	BackendSSORCG   = "ssor-cg"
	BackendMGCG     = "mg-cg"
)

// BackendFactory builds a Solver from a Config. The Config's Backend field
// matches the name the factory was registered under.
type BackendFactory func(Config) (Solver, error)

var (
	registryMu    sync.RWMutex
	registryNames []string
	registry      = map[string]BackendFactory{}
)

// RegisterBackend makes an external solver backend constructible through
// Config.New and visible in Backends. Registering a built-in or duplicate
// name panics: backend names are package-level constants, so a collision
// is a programming error.
func RegisterBackend(name string, f BackendFactory) {
	if name == "" || f == nil {
		panic("sparse: RegisterBackend with empty name or nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == BackendJacobiCG || name == BackendSSORCG {
		panic(fmt.Sprintf("sparse: backend %q is built in", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sparse: backend %q registered twice", name))
	}
	registry[name] = f
	registryNames = append(registryNames, name)
}

// Backends lists the available solver backends: the built-ins followed by
// registered ones in registration order.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := []string{BackendJacobiCG, BackendSSORCG}
	return append(names, registryNames...)
}

// Config selects and parameterises a solver backend.
type Config struct {
	// Backend is one of Backends(); empty selects jacobi-cg.
	Backend string
	// Tolerance is the relative residual target ‖r‖/‖b‖; 0 means 1e-9.
	Tolerance float64
	// MaxIterations bounds the iteration count; 0 means 10·n.
	MaxIterations int
	// Workers caps the goroutines used by matrix-vector products; 0 means
	// GOMAXPROCS, 1 forces serial execution.
	Workers int
	// Omega is the SSOR relaxation factor in (0, 2); 0 means 1.2. Used by
	// the SSOR-CG backend only.
	Omega float64

	// MGPrecision selects the multigrid V-cycle arithmetic: "float32"
	// applies the preconditioner — smoothing, transfers and the coarse
	// triangular solve — in single precision (half the memory traffic on
	// the bandwidth-bound stencil ops; the outer CG stays float64),
	// "float64" forces double precision, and "" auto-selects float32 when
	// the outer tolerance and system size permit it. The V-cycle itself
	// has no other knob: it smooths with red-black z-line relaxation and
	// solves the coarsest level with its sparse Cholesky factor. Ignored
	// by non-multigrid backends.
	MGPrecision string
}

// Validate checks the configuration without building a solver: the backend
// must be known (the error lists the valid names) and every set parameter
// must be in range.
func (c Config) Validate() error {
	known := c.Backend == "" || c.Backend == "cg" || c.Backend == "jacobi" || c.Backend == "ssor"
	if !known {
		for _, b := range Backends() {
			if c.Backend == b {
				known = true
				break
			}
		}
	}
	if !known {
		return fmt.Errorf("sparse: unknown solver backend %q (have %v)", c.Backend, Backends())
	}
	if c.Omega != 0 && (c.Omega <= 0 || c.Omega >= 2) {
		return fmt.Errorf("sparse: relaxation omega %g outside (0, 2)", c.Omega)
	}
	if c.Tolerance < 0 {
		return fmt.Errorf("sparse: negative tolerance %g", c.Tolerance)
	}
	if c.MaxIterations < 0 {
		return fmt.Errorf("sparse: negative iteration cap %d", c.MaxIterations)
	}
	if c.Workers < 0 {
		return fmt.Errorf("sparse: negative worker count %d", c.Workers)
	}
	switch c.MGPrecision {
	case "", "float32", "float64":
	default:
		return fmt.Errorf("sparse: unknown V-cycle precision %q (have float32, float64)", c.MGPrecision)
	}
	return nil
}

// New builds the configured solver.
func (c Config) New() (Solver, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	switch c.Backend {
	case "", BackendJacobiCG, "cg", "jacobi":
		return &CG{Tolerance: c.Tolerance, MaxIterations: c.MaxIterations, Workers: c.Workers}, nil
	case BackendSSORCG, "ssor":
		return &SSORCG{Tolerance: c.Tolerance, MaxIterations: c.MaxIterations, Workers: c.Workers, Omega: c.Omega}, nil
	}
	registryMu.RLock()
	f := registry[c.Backend]
	registryMu.RUnlock()
	if f == nil {
		// Validate accepted the name, so the factory was unregistered
		// concurrently — treat as unknown.
		return nil, fmt.Errorf("sparse: unknown solver backend %q (have %v)", c.Backend, Backends())
	}
	return f(c)
}

// NewSolver builds a solver by backend name with default parameters.
func NewSolver(backend string) (Solver, error) { return Config{Backend: backend}.New() }

// Workspace holds the scratch vectors of a preconditioned CG solve so
// repeated solves against same-sized systems allocate nothing. The zero
// value is ready to use; vectors grow on demand.
type Workspace struct {
	r, z, p, ap []float64
	// precond holds preconditioner state (inverse diagonal for Jacobi,
	// diagonal for SSOR); rebuilt when the matrix or backend changes.
	precond     []float64
	precondFor  *CSR
	precondKind uint8
}

const (
	precondNone uint8 = iota
	precondJacobi
	precondSSOR
)

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
		w.precond = make([]float64, n)
		w.precondFor = nil
		w.precondKind = precondNone
	}
	w.r = w.r[:n]
	w.z = w.z[:n]
	w.p = w.p[:n]
	w.ap = w.ap[:n]
	w.precond = w.precond[:n]
}

// mulVecWorkers resolves a worker count for an n-row product.
func mulVecWorkers(n, workers int) int {
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
	workers = mulVecWorkers(m.n, workers)
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

// CG is the Jacobi (diagonal) preconditioned conjugate gradient backend —
// the solver the seed shipped with, now allocation-free across solves.
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

// Name implements Solver.
func (s *CG) Name() string { return BackendJacobiCG }

// Preconditioner implements Preconditioned: it prepares the inverse
// diagonal for a and returns its application.
func (s *CG) Preconditioner(a *CSR) (func(z, r []float64), error) {
	if s.Workspace == nil {
		s.Workspace = &Workspace{}
	}
	w := s.Workspace
	w.ensure(a.n)
	if w.precondFor != a || w.precondKind != precondJacobi {
		for i := 0; i < a.n; i++ {
			d := a.diagAt(i)
			if d <= 0 {
				return nil, fmt.Errorf("sparse: non-positive diagonal %g at row %d (matrix not SPD?)", d, i)
			}
			w.precond[i] = 1 / d
		}
		w.precondFor = a
		w.precondKind = precondJacobi
	}
	return func(z, r []float64) {
		inv := w.precond
		for i := range z {
			z[i] = inv[i] * r[i]
		}
	}, nil
}

// Solve implements Solver.
func (s *CG) Solve(a *CSR, b, x []float64) (Result, error) {
	precond, err := s.Preconditioner(a)
	if err != nil {
		return Result{}, err
	}
	return pcg(a, b, x, s.Workspace, precond, s.Tolerance, s.MaxIterations, s.Workers)
}

// SSORCG is a symmetric-successive-over-relaxation preconditioned
// conjugate gradient backend. The SSOR preconditioner
//
//	M = (D/ω + L) · (ω/(2−ω)) D⁻¹ · (D/ω + U)
//
// reuses the matrix itself (no extra factorisation storage) and typically
// halves the iteration count of Jacobi-CG on FVM conduction systems,
// trading a forward+backward triangular sweep per iteration.
type SSORCG struct {
	// Tolerance is the relative residual target; 0 means 1e-9.
	Tolerance float64
	// MaxIterations bounds iterations; 0 means 10·n.
	MaxIterations int
	// Workers caps MulVec goroutines; 0 means GOMAXPROCS. The triangular
	// preconditioner sweeps are inherently serial.
	Workers int
	// Omega is the relaxation factor in (0, 2); 0 means 1.2.
	Omega float64
	// Workspace may be supplied to share scratch space; nil lazily
	// allocates one owned by this instance.
	Workspace *Workspace
}

// Name implements Solver.
func (s *SSORCG) Name() string { return BackendSSORCG }

// Preconditioner implements Preconditioned: it caches the diagonal of a
// and returns the SSOR forward+backward sweep application.
func (s *SSORCG) Preconditioner(a *CSR) (func(z, r []float64), error) {
	omega := s.Omega
	if omega == 0 {
		omega = 1.2
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("sparse: SSOR omega %g outside (0, 2)", omega)
	}
	if s.Workspace == nil {
		s.Workspace = &Workspace{}
	}
	w := s.Workspace
	w.ensure(a.n)
	if w.precondFor != a || w.precondKind != precondSSOR {
		for i := 0; i < a.n; i++ {
			d := a.diagAt(i)
			if d <= 0 {
				return nil, fmt.Errorf("sparse: non-positive diagonal %g at row %d (matrix not SPD?)", d, i)
			}
			w.precond[i] = d
		}
		w.precondFor = a
		w.precondKind = precondSSOR
	}
	return func(z, r []float64) {
		a.ssorApply(z, r, w.precond, omega)
	}, nil
}

// Solve implements Solver.
func (s *SSORCG) Solve(a *CSR, b, x []float64) (Result, error) {
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

// ssorApply computes z = M⁻¹·r for the SSOR preconditioner:
//
//	z = ω(2−ω) · (D + ωU)⁻¹ · D · (D + ωL)⁻¹ · r
//
// using z itself as the intermediate vector, so no scratch is needed.
func (m *CSR) ssorApply(z, r, diag []float64, omega float64) {
	n := m.n
	// Forward solve (D + ωL)·y = r; y lives in z.
	for i := 0; i < n; i++ {
		sum := r[i]
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			j := int(m.colIdx[p])
			if j >= i {
				break // columns are sorted; L entries exhausted
			}
			sum -= omega * m.values[p] * z[j]
		}
		z[i] = sum / diag[i]
	}
	// Scale by D and solve (D + ωU)·z = D·y backwards. The constant
	// ω(2−ω) factor is applied after the substitution: folding it into
	// each entry as it is computed would feed scaled values back into the
	// recurrence and break the preconditioner's symmetry.
	for i := n - 1; i >= 0; i-- {
		sum := diag[i] * z[i]
		for p := m.rowPtr[i+1] - 1; p >= m.rowPtr[i]; p-- {
			j := int(m.colIdx[p])
			if j <= i {
				break // U entries exhausted
			}
			sum -= omega * m.values[p] * z[j]
		}
		z[i] = sum / diag[i]
	}
	scale := omega * (2 - omega)
	for i := range z {
		z[i] *= scale
	}
}

// PCG runs the shared preconditioned conjugate gradient engine with a
// caller-supplied preconditioner application z = M⁻¹·r. It is the
// extension point external backends (geometric multigrid) build on so
// every Solver shares one Krylov loop. x is warm-start input and solution
// output; the best iterate is always left in x, converged or not. A nil
// workspace allocates a fresh one.
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
		if pap <= 0 {
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
