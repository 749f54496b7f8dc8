// Package fvm discretises the heat-conduction equation on a structured
// non-uniform grid with the Finite Volume Method and solves the resulting
// linear system with mg-cg, CG preconditioned by a geometric-multigrid
// V-cycle (internal/mg) on a hierarchy each System builds once. It is the
// numerical core of the IcTherm-style thermal simulator used by the
// paper's methodology.
//
// Steady state:   ∇·(k ∇T) + q = 0
// Transient:      ρc ∂T/∂t = ∇·(k ∇T) + q   (implicit Euler)
//
// Face conductances use the series (harmonic) combination of the two
// half-cells, which preserves flux continuity across material interfaces.
// Boundary faces support adiabatic (zero flux), convection (Robin,
// h·(T−T_amb)) and Dirichlet (fixed temperature) conditions.
package fvm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"weak"

	"vcselnoc/internal/geom"
	"vcselnoc/internal/mesh"
	"vcselnoc/internal/mg"
	"vcselnoc/internal/parallel"
	"vcselnoc/internal/sparse"
)

// BoundaryType selects the condition applied to one face of the domain.
type BoundaryType int

const (
	// Adiabatic is a zero-flux boundary (default).
	Adiabatic BoundaryType = iota
	// Convection is a Robin boundary: flux = h·(T_surface − Value).
	Convection
	// Dirichlet fixes the boundary temperature to Value.
	Dirichlet
)

func (t BoundaryType) String() string {
	switch t {
	case Adiabatic:
		return "adiabatic"
	case Convection:
		return "convection"
	case Dirichlet:
		return "dirichlet"
	default:
		return fmt.Sprintf("BoundaryType(%d)", int(t))
	}
}

// Boundary describes the condition on one domain face.
type Boundary struct {
	Type BoundaryType
	// H is the heat transfer coefficient in W/(m²·K); used by Convection.
	H float64
	// Value is the ambient temperature (Convection) or the fixed surface
	// temperature (Dirichlet), in °C.
	Value float64
}

// Problem is a fully specified conduction problem on a grid.
type Problem struct {
	Grid *mesh.Grid
	// Conductivity holds the per-cell thermal conductivity in W/(m·K).
	Conductivity []float64
	// Power holds the per-cell heat source in watts.
	Power []float64
	// HeatCapacity optionally holds per-cell ρc in J/(m³·K) for transient
	// simulation. May be nil for steady-state-only problems.
	HeatCapacity []float64

	// Boundaries of the six domain faces.
	XMin, XMax, YMin, YMax, ZMin, ZMax Boundary
}

// Validate checks the problem for structural errors.
func (p *Problem) Validate() error {
	if p.Grid == nil {
		return fmt.Errorf("fvm: nil grid")
	}
	n := p.Grid.NumCells()
	if len(p.Conductivity) != n {
		return fmt.Errorf("fvm: conductivity has %d entries, want %d", len(p.Conductivity), n)
	}
	if len(p.Power) != n {
		return fmt.Errorf("fvm: power has %d entries, want %d", len(p.Power), n)
	}
	if p.HeatCapacity != nil && len(p.HeatCapacity) != n {
		return fmt.Errorf("fvm: heat capacity has %d entries, want %d", len(p.HeatCapacity), n)
	}
	for i, k := range p.Conductivity {
		if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
			return fmt.Errorf("fvm: cell %d has invalid conductivity %g", i, k)
		}
	}
	for i, q := range p.Power {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("fvm: cell %d has invalid power %g", i, q)
		}
	}
	for _, b := range p.boundaries() {
		if b.b.Type == Convection && b.b.H <= 0 {
			return fmt.Errorf("fvm: %s convection boundary needs H > 0, got %g", b.name, b.b.H)
		}
	}
	return nil
}

type namedBoundary struct {
	name string
	b    Boundary
}

func (p *Problem) boundaries() []namedBoundary {
	return []namedBoundary{
		{"xmin", p.XMin}, {"xmax", p.XMax},
		{"ymin", p.YMin}, {"ymax", p.YMax},
		{"zmin", p.ZMin}, {"zmax", p.ZMax},
	}
}

// hasFixingBoundary reports whether at least one boundary pins the
// temperature level (required for a well-posed steady problem).
func (p *Problem) hasFixingBoundary() bool {
	for _, b := range p.boundaries() {
		if b.b.Type != Adiabatic {
			return true
		}
	}
	return false
}

// System is the discretised steady-state operator, assembled once from a
// Problem and reusable across every solve that shares the same grid,
// conductivity field and boundary conditions — only the power (RHS)
// changes between solves. It is the unit of caching the thermal layer
// leans on: superposition bases, transient stepping and design-space
// sweeps all reuse one System instead of re-assembling per solve.
//
// A System is immutable after construction and safe for concurrent use;
// each solve takes solver state of its own, reusing an idle steady solver
// while one is alive.
type System struct {
	grid   *mesh.Grid
	matrix *sparse.CSR
	// rhsBoundary is the boundary-condition contribution to the RHS
	// (conductance-weighted boundary temperatures); per-cell power is
	// added on top at solve time.
	rhsBoundary []float64
	// boundaryG[i] is the total boundary conductance of cell i (W/K) and
	// boundaryGT[i] the conductance-weighted boundary temperature, used for
	// energy accounting.
	boundaryG  []float64
	boundaryGT []float64
	// heatCap is the per-cell ρc (J/(m³·K)); nil for steady-only systems.
	heatCap []float64
	// hasFix records whether any boundary pins the temperature level.
	hasFix bool

	// hint is the grid geometry the multigrid hierarchy is built from.
	hint sparse.GridHint
	// mgOnce/mgHier/mgErr lazily cache one multigrid hierarchy for the
	// steady operator, shared by every steady solve of this system —
	// concurrent and repeated solves pay the Galerkin setup once.
	mgOnce sync.Once
	mgHier *mg.Hierarchy
	mgErr  error
	// mgHierPub republishes mgHier for lock-free observability reads
	// (PhaseStats) that must not trigger a hierarchy build.
	mgHierPub atomic.Pointer[mg.Hierarchy]
	// idle holds weak pointers to the steady solvers no solve is using
	// (takeSolver, putSolver), so repeated steady solves, block columns
	// included, reuse their V-cycle and outer CG workspaces instead of
	// allocating them per call. Each serves one caller at a time and only
	// callers asking for the tolerance and workers it was built with,
	// which are all an mg-cg solver is configured by. Being weak, the
	// list pins nothing: the next garbage collection frees an idle solver,
	// where a sync.Pool's victim cache would keep it, and the whole
	// hierarchy it references, alive through one more.
	idleMu sync.Mutex
	idle   []weak.Pointer[steadySolver]

	// capOnce/capVol/capErr lazily cache the validated per-cell heat
	// capacity C = ρc·V (J/K) transient operators scale by 1/dt.
	capOnce sync.Once
	capVol  []float64
	capErr  error
	// transientMu/transientOps cache one diagonal-bumped operator (and,
	// lazily, one shifted multigrid hierarchy) per distinct time step, so
	// repeated transient runs — and every step within a run — share a
	// single A + diag(C/dt) assembly instead of rebuilding it per call.
	// Bounded to maxTransientOps, least-recently-used dt evicted;
	// transientUse is the access clock.
	transientMu  sync.Mutex
	transientOps map[float64]*transientOp
	transientUse int64
	// transientHierBuilds counts shifted-hierarchy constructions; the
	// no-per-step-rebuild regression test pins it.
	transientHierBuilds atomic.Int64

	// fpOnce/fp lazily cache the system fingerprint checkpoints embed.
	fpOnce sync.Once
	fp     uint64
}

// NewSystem validates the problem and assembles its operator once. The
// problem's Power field is only length-checked — each solve supplies its
// own power vector.
func NewSystem(p *Problem) (*System, error) {
	return p.assemble()
}

// Grid returns the system's computational grid.
func (s *System) Grid() *mesh.Grid { return s.grid }

// Matrix exposes the assembled conduction operator (read-only).
func (s *System) Matrix() *sparse.CSR { return s.matrix }

// N returns the number of unknowns (cells).
func (s *System) N() int { return s.matrix.N() }

// faceConductance returns the conductance (W/K) between two adjacent cells
// with half-widths d1/2 and d2/2, conductivities k1, k2, across face area a.
func faceConductance(a, d1, k1, d2, k2 float64) float64 {
	return a / (0.5*d1/k1 + 0.5*d2/k2)
}

// boundaryConductance returns the conductance from a cell centre to a
// boundary face of area a. For convection it is the series combination of
// the half-cell conduction and the film coefficient; for Dirichlet it is
// the half-cell conduction alone.
func boundaryConductance(b Boundary, a, d, k float64) float64 {
	switch b.Type {
	case Convection:
		return a / (0.5*d/k + 1/b.H)
	case Dirichlet:
		return a / (0.5 * d / k)
	default:
		return 0
	}
}

// assemble builds the SPD operator for the steady problem. The returned
// system's RHS excludes the per-cell power, which solves add on top.
func (p *Problem) assemble() (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.Grid
	nx, ny, nz := g.NX(), g.NY(), g.NZ()
	n := g.NumCells()

	// Pass 1: face conductances along each axis.
	// gxF[idx] couples idx and idx+1 (only valid when i < nx-1), etc.
	gxF := make([]float64, n)
	gyF := make([]float64, n)
	gzF := make([]float64, n)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := g.Index(i, j, k)
				sz := g.CellSize(i, j, k)
				kc := p.Conductivity[idx]
				if i < nx-1 {
					nb := g.Index(i+1, j, k)
					nsz := g.CellSize(i+1, j, k)
					gxF[idx] = faceConductance(sz.Y*sz.Z, sz.X, kc, nsz.X, p.Conductivity[nb])
				}
				if j < ny-1 {
					nb := g.Index(i, j+1, k)
					nsz := g.CellSize(i, j+1, k)
					gyF[idx] = faceConductance(sz.X*sz.Z, sz.Y, kc, nsz.Y, p.Conductivity[nb])
				}
				if k < nz-1 {
					nb := g.Index(i, j, k+1)
					nsz := g.CellSize(i, j, k+1)
					gzF[idx] = faceConductance(sz.X*sz.Y, sz.Z, kc, nsz.Z, p.Conductivity[nb])
				}
			}
		}
	}

	// Pass 2: count row entries and build CSR directly (sorted columns:
	// -z, -y, -x, diag, +x, +y, +z).
	rowPtr := make([]int, n+1)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				cnt := 1
				if k > 0 {
					cnt++
				}
				if j > 0 {
					cnt++
				}
				if i > 0 {
					cnt++
				}
				if i < nx-1 {
					cnt++
				}
				if j < ny-1 {
					cnt++
				}
				if k < nz-1 {
					cnt++
				}
				rowPtr[g.Index(i, j, k)+1] = cnt
			}
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	nnz := rowPtr[n]
	colIdx := make([]int32, nnz)
	values := make([]float64, nnz)
	rhs := make([]float64, n)
	boundaryG := make([]float64, n)
	boundaryGT := make([]float64, n)

	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := g.Index(i, j, k)
				sz := g.CellSize(i, j, k)
				kc := p.Conductivity[idx]
				diag := 0.0
				pos := rowPtr[idx]

				put := func(col int, v float64) {
					colIdx[pos] = int32(col)
					values[pos] = v
					pos++
				}

				var gmx, gmy, gmz, gpx, gpy, gpz float64
				if k > 0 {
					gmz = gzF[g.Index(i, j, k-1)]
				}
				if j > 0 {
					gmy = gyF[g.Index(i, j-1, k)]
				}
				if i > 0 {
					gmx = gxF[g.Index(i-1, j, k)]
				}
				if i < nx-1 {
					gpx = gxF[idx]
				}
				if j < ny-1 {
					gpy = gyF[idx]
				}
				if k < nz-1 {
					gpz = gzF[idx]
				}

				if k > 0 {
					put(g.Index(i, j, k-1), -gmz)
					diag += gmz
				}
				if j > 0 {
					put(g.Index(i, j-1, k), -gmy)
					diag += gmy
				}
				if i > 0 {
					put(g.Index(i-1, j, k), -gmx)
					diag += gmx
				}
				diagPos := pos
				put(idx, 0) // filled below
				if i < nx-1 {
					put(g.Index(i+1, j, k), -gpx)
					diag += gpx
				}
				if j < ny-1 {
					put(g.Index(i, j+1, k), -gpy)
					diag += gpy
				}
				if k < nz-1 {
					put(g.Index(i, j, k+1), -gpz)
					diag += gpz
				}

				// Boundary faces.
				applyBoundary := func(b Boundary, area, d float64) {
					gb := boundaryConductance(b, area, d, kc)
					if gb <= 0 {
						return
					}
					diag += gb
					rhs[idx] += gb * b.Value
					boundaryG[idx] += gb
					boundaryGT[idx] += gb * b.Value
				}
				if i == 0 {
					applyBoundary(p.XMin, sz.Y*sz.Z, sz.X)
				}
				if i == nx-1 {
					applyBoundary(p.XMax, sz.Y*sz.Z, sz.X)
				}
				if j == 0 {
					applyBoundary(p.YMin, sz.X*sz.Z, sz.Y)
				}
				if j == ny-1 {
					applyBoundary(p.YMax, sz.X*sz.Z, sz.Y)
				}
				if k == 0 {
					applyBoundary(p.ZMin, sz.X*sz.Y, sz.Z)
				}
				if k == nz-1 {
					applyBoundary(p.ZMax, sz.X*sz.Y, sz.Z)
				}

				values[diagPos] = diag
			}
		}
	}

	m, err := sparse.NewCSRFromParts(n, rowPtr, colIdx, values)
	if err != nil {
		return nil, fmt.Errorf("fvm: assembly produced invalid CSR: %w", err)
	}
	return &System{
		grid:        g,
		matrix:      m,
		rhsBoundary: rhs,
		boundaryG:   boundaryG,
		boundaryGT:  boundaryGT,
		heatCap:     p.HeatCapacity,
		hasFix:      p.hasFixingBoundary(),
		hint:        sparse.GridHint{X: g.X, Y: g.Y, Z: g.Z},
	}, nil
}

// SolveOptions configures a steady-state solve.
type SolveOptions struct {
	// Tolerance is the relative residual target (default 1e-8). With the
	// system's size it fixes the V-cycle's precision (mg.Options), and the
	// solve gives up after 10·n iterations.
	Tolerance float64
	// InitialGuess optionally warm-starts the solver (length = cells).
	InitialGuess []float64
	// Workers caps the goroutines used for matrix-vector products and the
	// red-black line smoother of each solve; 0 means GOMAXPROCS. A block
	// solve runs its columns concurrently unless Workers is 1. The
	// system's one-off multigrid set-up (hierarchy and coarse factor)
	// does not read it: it runs on GOMAXPROCS workers, with bits
	// independent of the count.
	Workers int
}

// SolverName names the one linear solver every solve runs: mg-cg, CG
// preconditioned by one multigrid V-cycle (internal/mg). Transient
// checkpoints, spec info and sweep responses record it, so a record
// produced by another solver is refused.
const SolverName = "mg-cg"

// solverOptions are the mg-cg options of a solve at tolerance tol
// (≤ 0 means 1e-8) on up to workers goroutines.
func solverOptions(tol float64, workers int) mg.Options {
	if tol <= 0 {
		tol = 1e-8
	}
	return mg.Options{Tolerance: tol, Workers: workers}
}

// hierarchy lazily builds the system's shared multigrid hierarchy. The
// hierarchy, its coarsening and its coarse factor depend on the matrix
// alone, so every steady solver shares it. It is built with
// mg.Options{}, so its set-up and coarse factor run on GOMAXPROCS
// workers whatever the solves' Workers, with bits independent of the
// count.
func (s *System) hierarchy() (*mg.Hierarchy, error) {
	s.mgOnce.Do(func() {
		s.mgHier, s.mgErr = mg.BuildHierarchy(s.matrix, s.hint, mg.Options{})
		if s.mgErr == nil {
			s.mgHierPub.Store(s.mgHier)
		}
	})
	return s.mgHier, s.mgErr
}

// Hierarchy returns the system's shared steady-state multigrid
// hierarchy, building it on first call. Benchmarks and diagnostics use
// it to reach the coarsest-level operator and ordering directly.
func (s *System) Hierarchy() (*mg.Hierarchy, error) { return s.hierarchy() }

// Precision returns the V-cycle precision, "float32" or "float64", a
// steady solve with opts runs: the tolerance and the system's size pick
// it (mg.Options.Precision).
func (s *System) Precision(opts SolveOptions) string {
	return solverOptions(opts.Tolerance, opts.Workers).Precision(s.N())
}

// PhaseStats returns the cumulative phase times of the system's shared
// steady-state multigrid hierarchy — its V-cycles and its one coarse
// factorisation — or the zero value when no solve has built one yet.
// Observability callers snapshot it around a solve to attach per-phase
// fractions and the factor time to request traces.
func (s *System) PhaseStats() mg.PhaseStats {
	h := s.mgHierPub.Load()
	if h == nil {
		return mg.PhaseStats{}
	}
	return h.PhaseStats()
}

// steadySolver is an mg-cg solver of the steady operator and the
// options it was built with: its tolerance and workers.
type steadySolver struct {
	*mg.Solver
	opts mg.Options
}

// takeSolver returns an mg-cg solver of the steady operator on the
// system's shared hierarchy, so solvers never redo the Galerkin set-up:
// a live idle one built with the same tolerance and workers, else a new
// one. The caller owns it until putSolver. Transient steppers solve on
// the per-dt shifted hierarchy instead (see transientOp).
func (s *System) takeSolver(opts SolveOptions) (*steadySolver, error) {
	h, err := s.hierarchy()
	if err != nil {
		return nil, err
	}
	want := solverOptions(opts.Tolerance, opts.Workers)
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	live := s.idle[:0]
	var found *steadySolver
	for _, wp := range s.idle {
		switch idle := wp.Value(); {
		case idle == nil: // collected
		case found == nil && idle.opts == want:
			found = idle
		default:
			live = append(live, wp)
		}
	}
	clear(s.idle[len(live):])
	s.idle = live
	if found != nil {
		return found, nil
	}
	return &steadySolver{mg.New(h, want), want}, nil
}

// putSolver hands a solver taken with takeSolver back to the idle list.
func (s *System) putSolver(solver *steadySolver) {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	s.idle = append(s.idle, weak.Make(solver))
}

// Solution is a computed temperature field.
type Solution struct {
	Grid *mesh.Grid
	// T is the per-cell temperature in °C.
	T []float64
	// Stats reports solver convergence.
	Stats sparse.Result

	boundaryG  []float64
	boundaryGT []float64
	totalPower float64
}

// SolveSteady solves the steady-state problem. It assembles the operator
// per call; repeated solves over the same geometry should assemble once
// with NewSystem and use System.SolveSteady / System.SolveSteadyBlock.
func SolveSteady(p *Problem, opts SolveOptions) (*Solution, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	return sys.SolveSteady(p.Power, opts)
}

// SolveSteady solves the steady problem for one per-cell power vector
// (watts per cell, length N) against the cached operator.
func (s *System) SolveSteady(power []float64, opts SolveOptions) (*Solution, error) {
	solver, err := s.takeSolver(opts)
	if err != nil {
		return nil, err
	}
	defer s.putSolver(solver)
	return s.solveSteadyWith(power, opts, solver.Solver)
}

// solveSteadyWith runs one steady solve with a caller-supplied solver.
func (s *System) solveSteadyWith(power []float64, opts SolveOptions, solver *mg.Solver) (*Solution, error) {
	if !s.hasFix {
		return nil, fmt.Errorf("fvm: steady problem needs at least one convection or Dirichlet boundary (all faces adiabatic)")
	}
	n := s.matrix.N()
	if len(power) != n {
		return nil, fmt.Errorf("fvm: power vector has %d entries, want %d", len(power), n)
	}
	rhs := make([]float64, n)
	var total float64
	for i, q := range power {
		rhs[i] = s.rhsBoundary[i] + q
		total += q
	}
	t := make([]float64, n)
	if opts.InitialGuess != nil {
		if len(opts.InitialGuess) != n {
			return nil, fmt.Errorf("fvm: initial guess has %d entries, want %d", len(opts.InitialGuess), n)
		}
		copy(t, opts.InitialGuess)
	}
	stats, err := solver.Solve(s.matrix, rhs, t)
	if err != nil {
		return nil, fmt.Errorf("fvm: steady solve failed: %w", err)
	}
	return &Solution{
		Grid: s.grid, T: t, Stats: stats,
		boundaryG: s.boundaryG, boundaryGT: s.boundaryGT, totalPower: total,
	}, nil
}

// SolveSteadyBlock solves many power vectors against the cached operator,
// each with its own SolveSteady on the system's shared hierarchy, and
// returns one Solution per power vector, in input order. The columns
// solve concurrently, each on a solver of its own; Workers == 1 solves
// them one after another, honouring the knob's CPU-bounding contract.
// Either way every column is bit-identical to its own SolveSteady.
func (s *System) SolveSteadyBlock(powers [][]float64, opts SolveOptions) ([]*Solution, error) {
	if len(powers) == 0 {
		return nil, fmt.Errorf("fvm: empty power block")
	}
	workers := len(powers)
	if opts.Workers == 1 {
		workers = 1
	}
	sols := make([]*Solution, len(powers))
	err := parallel.ForEach(workers, len(powers), func(_, c int) error {
		sol, err := s.SolveSteady(powers[c], opts)
		if err != nil {
			return fmt.Errorf("fvm: column %d: %w", c, err)
		}
		sols[c] = sol
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sols, nil
}

// BoundaryHeatFlow returns the net heat leaving the domain through
// non-adiabatic boundaries, in watts. For a converged steady solution this
// matches the total injected power.
func (s *Solution) BoundaryHeatFlow() float64 {
	var out float64
	for i, g := range s.boundaryG {
		if g > 0 {
			out += g*s.T[i] - s.boundaryGT[i]
		}
	}
	return out
}

// EnergyBalanceError returns the relative defect between injected power
// and net boundary outflow. The defect is normalised by the larger of the
// injected power and the gross boundary exchange, so that problems driven
// purely by boundary conditions (zero volumetric sources, e.g. a fin with
// a hot base) are judged against the through-flux rather than zero.
func (s *Solution) EnergyBalanceError() float64 {
	in := s.totalPower
	out := s.BoundaryHeatFlow()
	var gross float64
	for i, g := range s.boundaryG {
		if g > 0 {
			gross += math.Abs(g*s.T[i] - s.boundaryGT[i])
		}
	}
	denom := math.Max(math.Abs(in), math.Max(gross, 1e-12))
	return math.Abs(in-out) / denom
}

// TemperatureAt returns the temperature of the cell containing p.
func (s *Solution) TemperatureAt(p geom.Vec3) (float64, error) {
	i, j, k, ok := s.Grid.FindCell(p)
	if !ok {
		return 0, fmt.Errorf("fvm: point %v outside domain", p)
	}
	return s.T[s.Grid.Index(i, j, k)], nil
}

// RegionStats summarises the temperature field over a box.
type RegionStats struct {
	Min, Max, Mean float64
	// Gradient is Max − Min, the quantity the paper calls the gradient
	// temperature of a region.
	Gradient float64
	// Volume is the overlapped volume used for the averages.
	Volume float64
}

// StatsOver computes volume-weighted statistics over all cells overlapping
// the box.
func (s *Solution) StatsOver(b geom.Box) (RegionStats, error) {
	g := s.Grid
	i0, i1, j0, j1, k0, k1 := g.CellsOverlapping(b)
	st := RegionStats{Min: math.Inf(1), Max: math.Inf(-1)}
	var weighted float64
	for k := k0; k < k1; k++ {
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				cell := g.CellBox(i, j, k)
				ov := cell.OverlapVolume(b)
				if ov <= 0 {
					continue
				}
				t := s.T[g.Index(i, j, k)]
				weighted += t * ov
				st.Volume += ov
				if t < st.Min {
					st.Min = t
				}
				if t > st.Max {
					st.Max = t
				}
			}
		}
	}
	if st.Volume == 0 {
		return RegionStats{}, fmt.Errorf("fvm: box %v overlaps no cells", b)
	}
	st.Mean = weighted / st.Volume
	st.Gradient = st.Max - st.Min
	return st, nil
}

// GlobalStats returns statistics over the whole domain.
func (s *Solution) GlobalStats() RegionStats {
	st, _ := s.StatsOver(s.Grid.Domain())
	return st
}

// TransientOptions configures a transient run.
type TransientOptions struct {
	// TimeStep is the implicit-Euler step in seconds (must be > 0).
	TimeStep float64
	// Steps is the number of steps to take (must be > 0).
	Steps int
	// Initial is the starting temperature field; if nil, the field starts
	// uniform at InitialUniform.
	Initial []float64
	// InitialUniform is the uniform start temperature used when Initial is
	// nil (°C).
	InitialUniform float64
	// Tolerance is the per-step solver tolerance (default 1e-8); it fixes
	// the V-cycle's precision exactly as SolveOptions.Tolerance does.
	Tolerance float64
	// Workers caps the goroutines used for matrix-vector products and the
	// line smoother; 0 means GOMAXPROCS.
	Workers int
	// Snapshot, if non-nil, is called after every step with the step index
	// (1-based), the simulated time and a fresh copy of the current field,
	// which the callback may retain.
	Snapshot func(step int, time float64, t []float64)
}

// SolveTransient integrates the transient heat equation with implicit
// Euler and returns the final field. It assembles the operator per call;
// repeated runs over the same geometry should assemble once with
// NewSystem and use System.SolveTransient.
func SolveTransient(p *Problem, opts TransientOptions) (*Solution, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	return sys.SolveTransient(p.Power, opts)
}

// SolveTransient integrates the transient heat equation for one per-cell
// power vector against the cached operator. It is a thin wrapper over
// TransientStepper: the run reuses the system's per-dt transient operator
// and the shifted multigrid hierarchy derived from the steady one, a
// single solver workspace, and warm-starts every step from
// the previous field. Interruptible, resumable runs use NewTransientStepper
// directly.
func (s *System) SolveTransient(power []float64, opts TransientOptions) (*Solution, error) {
	if opts.Steps <= 0 {
		return nil, fmt.Errorf("fvm: steps %d must be > 0", opts.Steps)
	}
	st, err := s.NewTransientStepper(power, opts)
	if err != nil {
		return nil, err
	}
	for step := 1; step <= opts.Steps; step++ {
		if _, err := st.Step(); err != nil {
			return nil, err
		}
		if opts.Snapshot != nil {
			// Hand out a copy: the stepper's field is its in-place
			// iteration buffer, and callbacks may retain per-step fields.
			opts.Snapshot(st.StepIndex(), st.Time(), st.Field())
		}
	}
	return st.Solution(), nil
}
