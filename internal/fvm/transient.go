package fvm

// Transient stepping as a first-class, resumable subsystem: a
// TransientStepper advances one implicit-Euler step at a time against a
// cached transient operator (A + diag(C/dt), built once per distinct dt,
// not per run), and can serialise its state into a TransientCheckpoint
// whose fingerprints guard restores against a different mesh, operator,
// power vector, time step or solver. The stepper preconditions every
// step with a shifted V-cycle derived from the system's cached steady
// hierarchy — only the Galerkin diagonals are rebuilt for the C/dt bump —
// so transient steps keep the steady solves' mesh-independent iteration
// counts without any per-run (let alone per-step) hierarchy rebuild.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"

	"vcselnoc/internal/mg"
	"vcselnoc/internal/sparse"
)

// transientOp is the cached operator of one time step size: the capacity
// term C/dt, the diagonal-bumped matrix A + diag(C/dt) (structure shared
// with the steady matrix), and — built lazily by the first stepper — the
// shifted multigrid hierarchy derived from the system's steady one.
type transientOp struct {
	dt     float64
	cap    []float64 // C/dt per cell (W/K)
	matrix *sparse.CSR
	// use orders cache entries for eviction (guarded by transientMu).
	use int64

	hierOnce sync.Once
	hier     *mg.Hierarchy
	hierErr  error
}

// maxTransientOps bounds the per-dt operator cache: each entry retains a
// full value copy of the operator (plus a shifted hierarchy), and dt can
// arrive from the network (vcseld transient jobs), so an unbounded map
// is a memory-exhaustion vector. Eviction is safe — live steppers hold
// their operator directly; only future reuse of an evicted dt pays a
// rebuild.
const maxTransientOps = 8

// capacityVolumes validates the heat-capacity field once per System and
// returns the per-cell capacity C = ρc·V (J/K).
func (s *System) capacityVolumes() ([]float64, error) {
	if s.heatCap == nil {
		return nil, fmt.Errorf("fvm: transient solve requires HeatCapacity")
	}
	s.capOnce.Do(func() {
		g := s.grid
		cv := make([]float64, g.NumCells())
		for k := 0; k < g.NZ(); k++ {
			for j := 0; j < g.NY(); j++ {
				for i := 0; i < g.NX(); i++ {
					idx := g.Index(i, j, k)
					c := s.heatCap[idx]
					if c <= 0 {
						s.capErr = fmt.Errorf("fvm: cell %d has non-positive heat capacity %g", idx, c)
						return
					}
					cv[idx] = c * g.CellVolume(i, j, k)
				}
			}
		}
		s.capVol = cv
	})
	return s.capVol, s.capErr
}

// transientOperator returns (building and caching on first use) the
// transient operator for one time step size. A dt so small that C/dt
// overflows (a subnormal dt such as 5e-324) is refused: the operator
// would have no finite entries to solve.
func (s *System) transientOperator(dt float64) (*transientOp, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("fvm: time step %g must be > 0", dt)
	}
	capVol, err := s.capacityVolumes()
	if err != nil {
		return nil, err
	}
	s.transientMu.Lock()
	defer s.transientMu.Unlock()
	s.transientUse++
	if op, ok := s.transientOps[dt]; ok {
		op.use = s.transientUse
		return op, nil
	}
	cp := make([]float64, len(capVol))
	for i, cv := range capVol {
		cp[i] = cv / dt
		if math.IsInf(cp[i], 0) {
			return nil, fmt.Errorf("fvm: time step %g too small: C/dt overflows at cell %d", dt, i)
		}
	}
	op := &transientOp{dt: dt, cap: cp, matrix: sparse.AddDiagonal(s.matrix, cp), use: s.transientUse}
	if s.transientOps == nil {
		s.transientOps = make(map[float64]*transientOp)
	}
	for len(s.transientOps) >= maxTransientOps {
		var oldestDt float64
		oldest := int64(math.MaxInt64)
		for d, o := range s.transientOps {
			if o.use < oldest {
				oldest, oldestDt = o.use, d
			}
		}
		delete(s.transientOps, oldestDt)
	}
	s.transientOps[dt] = op
	return op, nil
}

// shiftedHierarchy lazily derives the transient multigrid hierarchy from
// the system's cached steady one: transfer operators and off-diagonal
// Galerkin stencils are shared, only the diagonals carry the C/dt bump.
func (op *transientOp) shiftedHierarchy(s *System) (*mg.Hierarchy, error) {
	op.hierOnce.Do(func() {
		steady, err := s.hierarchy()
		if err != nil {
			op.hierErr = err
			return
		}
		op.hier, op.hierErr = steady.Shifted(op.matrix, op.cap)
		if op.hierErr == nil {
			s.transientHierBuilds.Add(1)
		}
	})
	return op.hier, op.hierErr
}

// hashWrite folds raw bytes into an FNV-1a hash (never errors).
func hashFloats(h io.Writer, xs []float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:]) //nolint:errcheck
	}
}

func hashInt(h io.Writer, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	h.Write(buf[:]) //nolint:errcheck
}

// HashFloat64s fingerprints a float vector (FNV-1a over the IEEE-754
// bits) — the primitive checkpoint and job-result integrity checks use.
func HashFloat64s(xs []float64) uint64 {
	h := fnv.New64a()
	hashInt(h, len(xs))
	hashFloats(h, xs)
	return h.Sum64()
}

// Fingerprint identifies the discretised system for checkpoint
// compatibility checks: grid geometry, operator values, boundary RHS and
// heat capacity all contribute, so a checkpoint taken on one mesh or
// material field can never silently restore onto another. Computed once
// and cached; deterministic across processes for identical problems.
func (s *System) Fingerprint() uint64 {
	s.fpOnce.Do(func() {
		h := fnv.New64a()
		hashInt(h, s.grid.NX())
		hashInt(h, s.grid.NY())
		hashInt(h, s.grid.NZ())
		hashFloats(h, s.grid.X)
		hashFloats(h, s.grid.Y)
		hashFloats(h, s.grid.Z)
		for i := 0; i < s.matrix.N(); i++ {
			cols, vals := s.matrix.Row(i)
			for p := range cols {
				hashInt(h, int(cols[p]))
			}
			hashFloats(h, vals)
		}
		hashFloats(h, s.rhsBoundary)
		if s.heatCap != nil {
			hashFloats(h, s.heatCap)
		}
		s.fp = h.Sum64()
	})
	return s.fp
}

// TransientCheckpointVersion is the on-disk format version Decode accepts.
const TransientCheckpointVersion = 1

// TransientCheckpoint is the serialisable state of a transient run:
// enough to resume bit-identically, and enough fingerprints to refuse a
// resume against anything else. Encoding is JSON; Go's float64
// marshalling is shortest-round-trip, so the field restores bit-exactly.
type TransientCheckpoint struct {
	Version int `json:"version"`
	// System fingerprints the discretised operator (mesh, matrix,
	// boundaries, heat capacity) the run stepped; Power fingerprints the
	// per-cell power vector. Both are %016x-formatted 64-bit hashes.
	System string `json:"system_fingerprint"`
	Power  string `json:"power_fingerprint"`
	// Solver (SolverName) and Tolerance pin the solver and target that
	// produced the trajectory — resuming under a different one would
	// diverge, so a checkpoint another solver stepped is refused.
	Solver    string  `json:"solver"`
	Tolerance float64 `json:"tolerance"`
	// TimeStep is the implicit-Euler dt (s); Step the completed steps.
	TimeStep float64 `json:"time_step_s"`
	Step     int     `json:"step"`
	// T is the temperature field after Step steps (°C).
	T []float64 `json:"t_c"`
}

// Validate reports structural checkpoint errors (decode calls it; Restore
// additionally checks compatibility with the target stepper).
func (cp *TransientCheckpoint) Validate() error {
	if cp.Version != TransientCheckpointVersion {
		return fmt.Errorf("fvm: checkpoint version %d not supported (want %d)", cp.Version, TransientCheckpointVersion)
	}
	if cp.TimeStep <= 0 || math.IsNaN(cp.TimeStep) || math.IsInf(cp.TimeStep, 0) {
		return fmt.Errorf("fvm: checkpoint time step %g must be > 0", cp.TimeStep)
	}
	if cp.Step < 0 {
		return fmt.Errorf("fvm: negative checkpoint step %d", cp.Step)
	}
	if len(cp.T) == 0 {
		return fmt.Errorf("fvm: checkpoint has no temperature field")
	}
	for i, v := range cp.T {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fvm: checkpoint field has invalid value %g at cell %d", v, i)
		}
	}
	return nil
}

// Encode writes the checkpoint as JSON.
func (cp *TransientCheckpoint) Encode(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("fvm: encoding checkpoint: %w", err)
	}
	return nil
}

// DecodeTransientCheckpoint reads and validates a JSON checkpoint.
func DecodeTransientCheckpoint(r io.Reader) (*TransientCheckpoint, error) {
	cp := &TransientCheckpoint{}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(cp); err != nil {
		return nil, fmt.Errorf("fvm: corrupt checkpoint: %w", err)
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return cp, nil
}

// TransientStepper advances an implicit-Euler transient run one step at a
// time against the system's cached per-dt operator. It owns a solver
// workspace and the in-place field buffer, so it is NOT safe for
// concurrent use; create one per run. Opts.Steps is ignored — the caller
// decides when to stop (SolveTransient is the run-to-completion wrapper).
type TransientStepper struct {
	sys    *System
	op     *transientOp
	solver *mg.Solver
	tol    float64

	power   []float64 // private copy: async runs must not see caller mutation
	powerFP uint64

	rhs  []float64
	t    []float64 // live field, warm start and output of each solve
	step int
	last sparse.Result
}

// NewTransientStepper validates the options, resolves (or builds) the
// cached transient operator for opts.TimeStep and prepares a stepper at
// step 0 with the initial field. opts.Steps and opts.Snapshot are not
// used by the stepper itself.
func (s *System) NewTransientStepper(power []float64, opts TransientOptions) (*TransientStepper, error) {
	n := s.matrix.N()
	if len(power) != n {
		return nil, fmt.Errorf("fvm: power vector has %d entries, want %d", len(power), n)
	}
	op, err := s.transientOperator(opts.TimeStep)
	if err != nil {
		return nil, err
	}
	tol := opts.Tolerance
	if tol <= 0 {
		tol = 1e-8
	}
	h, err := op.shiftedHierarchy(s)
	if err != nil {
		return nil, err
	}
	t := make([]float64, n)
	if opts.Initial != nil {
		if len(opts.Initial) != n {
			return nil, fmt.Errorf("fvm: initial field has %d entries, want %d", len(opts.Initial), n)
		}
		copy(t, opts.Initial)
	} else {
		for i := range t {
			t[i] = opts.InitialUniform
		}
	}
	pw := make([]float64, n)
	copy(pw, power)
	return &TransientStepper{
		sys: s, op: op, solver: newSolver(h, tol, 0, opts.Workers, opts.MGPrecision), tol: tol,
		power: pw, powerFP: HashFloat64s(pw),
		rhs: make([]float64, n), t: t,
	}, nil
}

// Step advances the run by one implicit-Euler step and returns the
// solver statistics of the step.
func (st *TransientStepper) Step() (sparse.Result, error) {
	rhs, t, cap := st.rhs, st.t, st.op.cap
	for i := range rhs {
		rhs[i] = st.sys.rhsBoundary[i] + st.power[i] + cap[i]*t[i]
	}
	// t is both the warm start and the output of the in-place solve.
	stats, err := st.solver.Solve(st.op.matrix, rhs, t)
	if err != nil {
		return stats, fmt.Errorf("fvm: transient step %d failed: %w", st.step+1, err)
	}
	st.step++
	st.last = stats
	return stats, nil
}

// StepIndex returns the number of completed steps.
func (st *TransientStepper) StepIndex() int { return st.step }

// Time returns the simulated time (s).
func (st *TransientStepper) Time() float64 { return float64(st.step) * st.op.dt }

// TimeStep returns the implicit-Euler dt (s).
func (st *TransientStepper) TimeStep() float64 { return st.op.dt }

// Field returns a copy of the current temperature field.
func (st *TransientStepper) Field() []float64 {
	out := make([]float64, len(st.t))
	copy(out, st.t)
	return out
}

// FieldView returns the live field without copying. The slice is
// overwritten by the next Step; callers must neither retain nor modify
// it — it exists for cheap per-step observation (peak temperature,
// probe statistics).
func (st *TransientStepper) FieldView() []float64 { return st.t }

// Solution snapshots the run as a Solution (field copy plus the last
// step's solver statistics and the system's energy accounting).
func (st *TransientStepper) Solution() *Solution {
	var total float64
	for _, q := range st.power {
		total += q
	}
	return &Solution{
		Grid: st.sys.grid, T: st.Field(), Stats: st.last,
		boundaryG: st.sys.boundaryG, boundaryGT: st.sys.boundaryGT, totalPower: total,
	}
}

// Checkpoint serialises the run state: fingerprints of the system and
// power vector, solver identity, dt, completed steps and a copy of the
// field.
func (st *TransientStepper) Checkpoint() *TransientCheckpoint {
	return &TransientCheckpoint{
		Version:   TransientCheckpointVersion,
		System:    fmt.Sprintf("%016x", st.sys.Fingerprint()),
		Power:     fmt.Sprintf("%016x", st.powerFP),
		Solver:    SolverName,
		Tolerance: st.tol,
		TimeStep:  st.op.dt,
		Step:      st.step,
		T:         st.Field(),
	}
}

// Restore rewinds (or fast-forwards) the stepper to a checkpoint's state
// after a hard compatibility check: the checkpoint must have been taken
// on an identical system (mesh, operator, boundaries, heat capacity),
// power vector, time step, solver backend and tolerance — anything else
// refuses, because the resumed trajectory would silently diverge from
// the original run. Stepping after a successful Restore is bit-identical
// to the uninterrupted run: every solve is fully re-initialised from the
// field and RHS, so no solver workspace state survives the handoff.
func (st *TransientStepper) Restore(cp *TransientCheckpoint) error {
	if err := cp.Validate(); err != nil {
		return err
	}
	if want := fmt.Sprintf("%016x", st.sys.Fingerprint()); cp.System != want {
		return fmt.Errorf("fvm: checkpoint system fingerprint %s does not match this system (%s): different mesh, materials or boundaries", cp.System, want)
	}
	if want := fmt.Sprintf("%016x", st.powerFP); cp.Power != want {
		return fmt.Errorf("fvm: checkpoint power fingerprint %s does not match this run's power vector (%s)", cp.Power, want)
	}
	if cp.Solver != SolverName {
		return fmt.Errorf("fvm: checkpoint was stepped by %q, this run uses %q", cp.Solver, SolverName)
	}
	if cp.Tolerance != st.tol {
		return fmt.Errorf("fvm: checkpoint tolerance %g does not match this run's %g", cp.Tolerance, st.tol)
	}
	if cp.TimeStep != st.op.dt {
		return fmt.Errorf("fvm: checkpoint time step %g does not match this run's %g", cp.TimeStep, st.op.dt)
	}
	if len(cp.T) != len(st.t) {
		return fmt.Errorf("fvm: checkpoint field has %d cells, want %d", len(cp.T), len(st.t))
	}
	copy(st.t, cp.T)
	st.step = cp.Step
	st.last = sparse.Result{}
	return nil
}
