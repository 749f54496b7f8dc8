package thermal

// System-level transient simulation as a resumable run: TransientRun
// wraps the fvm.TransientStepper with the model's power deposition and
// reporting, adds a cheap per-step observer (peak temperature, per-ONI
// device gradients via precomputed probe stencils) and checkpoint/resume
// knobs, and is the unit the serving layer's async transient jobs drive
// step by step. Model.SolveTransient remains the run-to-completion
// wrapper over it.

import (
	"fmt"

	"vcselnoc/internal/fvm"
)

// DefaultCheckpointEvery is the checkpoint cadence (in steps) used when a
// TransientSpec supplies a Checkpoint sink without a CheckpointEvery.
const DefaultCheckpointEvery = 25

// TransientSpec configures a system-level transient simulation.
type TransientSpec struct {
	// TimeStep is the implicit-Euler step in seconds.
	TimeStep float64
	// Steps is the number of steps to integrate (total, including any
	// steps already covered by a Resume checkpoint).
	Steps int
	// Initial optionally seeds the run with a previous result's field
	// (e.g. the chip-only steady state before the lasers switch on). When
	// nil the field starts uniform at the ambient temperature. Ignored
	// when Resume is set — the checkpoint carries the field.
	Initial *Result
	// Snapshot, if non-nil, receives a full report after each step: the
	// model's report functionals applied to a copy of the field, which
	// the report keeps as its Field.
	Snapshot func(step int, time float64, r *Result)
	// Observer, if non-nil, receives per-step monitoring statistics (peak
	// temperature, per-ONI device gradients) read straight off the
	// stepper's field through the device probe stencils, with no copy.
	Observer func(o TransientObservation)
	// Checkpoint, if non-nil, receives a serialisable checkpoint every
	// CheckpointEvery steps and at the final step; a sink error aborts
	// the run.
	Checkpoint func(cp *fvm.TransientCheckpoint) error
	// CheckpointEvery is the checkpoint cadence in steps; 0 with a
	// non-nil Checkpoint selects DefaultCheckpointEvery.
	CheckpointEvery int
	// Resume, if non-nil, restores the run from a checkpoint after a
	// hard fingerprint check (mesh, operator, power vector, dt, solver):
	// stepping then continues bit-identically to the original run.
	Resume *fvm.TransientCheckpoint
}

// TransientObservation is one step's cheap monitoring statistics.
type TransientObservation struct {
	// Step is the completed step count; TimeS the simulated time (s).
	Step  int
	TimeS float64
	// PeakTemp is the hottest cell anywhere in the package (°C).
	PeakTemp float64
	// ONIGradients holds each ONI's device gradient (max−min over its
	// VCSEL and MR mean temperatures, °C) — the per-laser quantity the
	// paper's 1 °C constraint watches. MaxGradient is their maximum.
	ONIGradients []float64
	MaxGradient  float64
	// SolverIterations reports the step's linear-solve iteration count.
	SolverIterations int
}

// TransientRun is an in-flight resumable transient simulation. It is not
// safe for concurrent use; drive it from one goroutine.
type TransientRun struct {
	model   *Model
	powers  Powers
	spec    TransientSpec
	st      *fvm.TransientStepper
	resumed bool
}

// NewTransientRun prepares (and, with spec.Resume, restores) a transient
// run. The spec's Steps is the run's total horizon: a run resumed from a
// step-k checkpoint has Steps−k steps left.
func (m *Model) NewTransientRun(p Powers, ts TransientSpec) (*TransientRun, error) {
	if ts.Steps <= 0 {
		return nil, fmt.Errorf("thermal: transient steps %d must be > 0", ts.Steps)
	}
	power, err := m.powerVector(p)
	if err != nil {
		return nil, err
	}
	opts := fvm.TransientOptions{
		TimeStep:       ts.TimeStep,
		InitialUniform: m.spec.Ambient,
		Tolerance:      m.spec.SolverTol,
		Workers:        m.spec.Workers,
	}
	if ts.Initial != nil && ts.Resume == nil {
		field := ts.Initial.Field()
		if len(field) != m.grid.NumCells() {
			return nil, fmt.Errorf("thermal: initial field has %d cells, want %d",
				len(field), m.grid.NumCells())
		}
		opts.Initial = field
	}
	st, err := m.sys.NewTransientStepper(power, opts)
	if err != nil {
		return nil, err
	}
	run := &TransientRun{model: m, powers: p, spec: ts, st: st}
	if ts.Resume != nil {
		if err := st.Restore(ts.Resume); err != nil {
			return nil, err
		}
		if st.StepIndex() > ts.Steps {
			return nil, fmt.Errorf("thermal: checkpoint is at step %d, beyond the run's %d steps", st.StepIndex(), ts.Steps)
		}
		run.resumed = true
	}
	return run, nil
}

// Step advances one implicit-Euler step and fires the spec's observer,
// snapshot and checkpoint hooks.
func (r *TransientRun) Step() error {
	if r.Done() {
		return fmt.Errorf("thermal: transient run already completed its %d steps", r.spec.Steps)
	}
	stats, err := r.st.Step()
	if err != nil {
		return err
	}
	step, tm := r.st.StepIndex(), r.st.Time()
	if r.spec.Observer != nil {
		o := r.Observation()
		o.SolverIterations = stats.Iterations
		r.spec.Observer(o)
	}
	if r.spec.Snapshot != nil {
		// Field() hands the callback its own copy, so the report may keep
		// it as its field.
		r.spec.Snapshot(step, tm, r.model.report(r.st.Field(), r.powers))
	}
	if r.spec.Checkpoint != nil {
		every := r.spec.CheckpointEvery
		if every <= 0 {
			every = DefaultCheckpointEvery
		}
		if step%every == 0 || r.Done() {
			if err := r.spec.Checkpoint(r.st.Checkpoint()); err != nil {
				return fmt.Errorf("thermal: checkpoint sink at step %d: %w", step, err)
			}
		}
	}
	return nil
}

// Done reports whether the run has completed its horizon.
func (r *TransientRun) Done() bool { return r.st.StepIndex() >= r.spec.Steps }

// StepIndex returns the completed step count (includes resumed steps).
func (r *TransientRun) StepIndex() int { return r.st.StepIndex() }

// Steps returns the run's total horizon.
func (r *TransientRun) Steps() int { return r.spec.Steps }

// Time returns the simulated time (s).
func (r *TransientRun) Time() float64 { return r.st.Time() }

// Resumed reports whether the run was restored from a checkpoint.
func (r *TransientRun) Resumed() bool { return r.resumed }

// Checkpoint serialises the run's current state.
func (r *TransientRun) Checkpoint() *fvm.TransientCheckpoint { return r.st.Checkpoint() }

// Observation computes the current cheap monitoring statistics.
func (r *TransientRun) Observation() TransientObservation {
	t := r.st.FieldView()
	o := TransientObservation{Step: r.st.StepIndex(), TimeS: r.st.Time()}
	if len(t) > 0 {
		o.PeakTemp = t[0]
		for _, v := range t {
			if v > o.PeakTemp {
				o.PeakTemp = v
			}
		}
	}
	o.ONIGradients = make([]float64, len(r.model.probes))
	for i, probes := range r.model.probes {
		var min, max float64
		for pi := range probes {
			mean := probes[pi].mean(t)
			if pi == 0 || mean < min {
				min = mean
			}
			if pi == 0 || mean > max {
				max = mean
			}
		}
		o.ONIGradients[i] = max - min
		if o.ONIGradients[i] > o.MaxGradient {
			o.MaxGradient = o.ONIGradients[i]
		}
	}
	return o
}

// Result builds the full report of the run's current state.
func (r *TransientRun) Result() *Result {
	return r.model.report(r.st.Field(), r.powers)
}

// FieldFingerprint hashes the current temperature field — the integrity
// token the job API reports so clients (and tests) can assert that two
// runs landed on bit-identical fields without shipping them.
func (r *TransientRun) FieldFingerprint() string {
	return fmt.Sprintf("%016x", fvm.HashFloat64s(r.st.FieldView()))
}

// SolveTransient integrates the transient heat equation for the system at
// fixed powers (e.g. to watch the ONIs warm up after the lasers switch
// on). It routes through a TransientRun — one step at a time against the
// cached per-dt transient operator — and returns the final state.
func (m *Model) SolveTransient(p Powers, ts TransientSpec) (*Result, error) {
	run, err := m.NewTransientRun(p, ts)
	if err != nil {
		return nil, err
	}
	for !run.Done() {
		if err := run.Step(); err != nil {
			return nil, err
		}
	}
	return run.Result(), nil
}
