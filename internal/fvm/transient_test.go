package fvm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestTransientStepperMatchesSolveTransient: stepping manually must
// reproduce the run-to-completion wrapper exactly, snapshots included.
func TestTransientStepperMatchesSolveTransient(t *testing.T) {
	p := systemProblem(t, 12, 10, 4)
	opts := TransientOptions{TimeStep: 0.02, Steps: 6, InitialUniform: 25, Tolerance: 1e-10}
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.SolveTransient(p.Power, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.NewTransientStepper(p.Power, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < opts.Steps; i++ {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if st.StepIndex() != opts.Steps {
		t.Fatalf("step index %d, want %d", st.StepIndex(), opts.Steps)
	}
	if got := st.Time(); got != float64(opts.Steps)*opts.TimeStep {
		t.Errorf("time %g, want %g", got, float64(opts.Steps)*opts.TimeStep)
	}
	if !reflect.DeepEqual(st.Field(), want.T) {
		t.Error("stepper field differs from SolveTransient")
	}
	sol := st.Solution()
	if !reflect.DeepEqual(sol.T, want.T) || sol.Stats != want.Stats {
		t.Error("stepper Solution differs from SolveTransient")
	}
}

// TestTransientOperatorCachedPerDt: the diagonal-bumped operator, the
// finest level of its shifted hierarchy, must be built once per distinct
// dt and shared across runs, and a warm Step must be effectively
// allocation-free — the perf fix over the seed path, which rebuilt the
// bumped CSR on every SolveTransient call.
func TestTransientOperatorCachedPerDt(t *testing.T) {
	p := systemProblem(t, 10, 10, 4) // 400 cells: matvecs stay serial
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	op1, err := sys.transientOperator(0.01)
	if err != nil {
		t.Fatal(err)
	}
	op2, err := sys.transientOperator(0.01)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := op1.shiftedHierarchy(sys)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := op2.shiftedHierarchy(sys)
	if err != nil {
		t.Fatal(err)
	}
	if op1 != op2 || h1 != h2 {
		t.Error("same dt must reuse the cached transient operator")
	}
	op3, err := sys.transientOperator(0.02)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := op3.shiftedHierarchy(sys)
	if err != nil {
		t.Fatal(err)
	}
	if op3 == op1 || h3.Fine() == h1.Fine() {
		t.Error("different dt must build a distinct operator")
	}
	// The cache is bounded: dt arrives from the network in the serving
	// layer, so distinct values must evict, not accumulate.
	for i := 0; i < 3*maxTransientOps; i++ {
		if _, err := sys.transientOperator(1e-3 * float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	sys.transientMu.Lock()
	cached := len(sys.transientOps)
	sys.transientMu.Unlock()
	if cached > maxTransientOps {
		t.Errorf("transient operator cache holds %d entries, bound is %d", cached, maxTransientOps)
	}
	// Two steppers over the same dt share one operator.
	stA, err := sys.NewTransientStepper(p.Power, TransientOptions{TimeStep: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := sys.NewTransientStepper(p.Power, TransientOptions{TimeStep: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if stA.op != stB.op {
		t.Error("steppers with equal dt must share the cached operator")
	}
	if _, err := stA.Step(); err != nil { // warm the solver workspace
		t.Fatal(err)
	}
	if raceEnabled {
		return // the detector's instrumentation inflates allocation counts
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := stA.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("warm transient step allocates %.0f objects; the cached-operator path should be near allocation-free", allocs)
	}
}

// TestTransientCheckpointRoundTripResume: a run interrupted at step k,
// serialised, decoded and resumed — even on a freshly rebuilt System,
// and on two workers where the run stepped on one — must be
// bit-identical to the uninterrupted run. The tolerance and the system,
// which the checkpoint pins, fix the V-cycle; the worker count changes
// no bits, and at 8 640 cells the V-cycle's finest kernels really split.
func TestTransientCheckpointRoundTripResume(t *testing.T) {
	p := systemProblem(t, 40, 36, 6)
	opts := TransientOptions{TimeStep: 0.05, Steps: 9, InitialUniform: 25, Tolerance: 1e-9, Workers: 1}
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.SolveTransient(p.Power, opts)
	if err != nil {
		t.Fatal(err)
	}

	st, err := sys.NewTransientStepper(p.Power, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := st.Checkpoint().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeTransientCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step != 4 || cp.Solver != SolverName {
		t.Fatalf("checkpoint records step %d solver %q", cp.Step, cp.Solver)
	}

	// Resume on a rebuilt system (fresh process simulation): assembly
	// is deterministic, so the fingerprints must match.
	sys2, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.Fingerprint() != sys.Fingerprint() {
		t.Fatal("rebuilt system changed fingerprint — assembly not deterministic")
	}
	resumed := opts
	resumed.Workers = 2
	st2, err := sys2.NewTransientStepper(p.Power, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for st2.StepIndex() < opts.Steps {
		if _, err := st2.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(st2.Field(), want.T) {
		t.Error("resumed run is not bit-identical to the uninterrupted run")
	}
}

// TestTransientCheckpointRefusals: corrupted or mismatched checkpoints
// must refuse cleanly with a descriptive error, never restore.
func TestTransientCheckpointRefusals(t *testing.T) {
	p := systemProblem(t, 10, 10, 4)
	opts := TransientOptions{TimeStep: 0.05, InitialUniform: 25, Tolerance: 1e-9}
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.NewTransientStepper(p.Power, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(); err != nil {
		t.Fatal(err)
	}
	good := st.Checkpoint()

	fresh := func() *TransientStepper {
		s2, err := sys.NewTransientStepper(p.Power, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s2
	}
	cases := []struct {
		name   string
		mutate func(cp *TransientCheckpoint)
		stepr  *TransientStepper
	}{
		{"version", func(cp *TransientCheckpoint) { cp.Version = 99 }, fresh()},
		{"system fingerprint", func(cp *TransientCheckpoint) { cp.System = "deadbeefdeadbeef" }, fresh()},
		{"power fingerprint", func(cp *TransientCheckpoint) { cp.Power = "deadbeefdeadbeef" }, fresh()},
		{"solver", func(cp *TransientCheckpoint) { cp.Solver = "jacobi-cg" }, fresh()},
		{"tolerance", func(cp *TransientCheckpoint) { cp.Tolerance = 1e-3 }, fresh()},
		{"time step", func(cp *TransientCheckpoint) { cp.TimeStep = 0.1 }, fresh()},
		{"field length", func(cp *TransientCheckpoint) { cp.T = cp.T[:3] }, fresh()},
	}
	for _, tc := range cases {
		cp := *good
		cp.T = append([]float64(nil), good.T...)
		tc.mutate(&cp)
		if err := tc.stepr.Restore(&cp); err == nil {
			t.Errorf("restore with mismatched %s should refuse", tc.name)
		}
	}
	// A checkpoint from a different problem (different conductivity) must
	// refuse on the system fingerprint.
	p2 := systemProblem(t, 10, 10, 4)
	for i := range p2.Conductivity {
		p2.Conductivity[i] *= 1.5
	}
	sys2, err := NewSystem(p2)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sys2.NewTransientStepper(p2.Power, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Restore(good); err == nil {
		t.Error("checkpoint from a different system should refuse")
	}
	// Corrupted serialisations refuse at decode time.
	for _, raw := range []string{
		"not json",
		`{"version":1,"time_step_s":0.05,"step":1}`,                   // no field
		`{"version":1,"time_step_s":-1,"step":1,"t_c":[1]}`,           // bad dt
		`{"version":1,"time_step_s":0.05,"step":1,"t_c":[1],"x":"y"}`, // unknown field
	} {
		if _, err := DecodeTransientCheckpoint(strings.NewReader(raw)); err == nil {
			t.Errorf("decoding %q should fail", raw)
		}
	}
}

// TestTransientMGShiftedHierarchy is the pinned mg-cg transient test: the
// shifted V-cycle must be built exactly once per dt (never per step or
// per run), keep per-step iteration counts in the steady solves' low
// single-digit band, and stay mesh-independent when the lateral
// resolution doubles.
func TestTransientMGShiftedHierarchy(t *testing.T) {
	maxItersAt := func(nx, ny int) (int, *System) {
		p := systemProblem(t, nx, ny, 6)
		sys, err := NewSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.NewTransientStepper(p.Power, TransientOptions{
			TimeStep: 5, InitialUniform: 25, Tolerance: 1e-9,
		})
		if err != nil {
			t.Fatal(err)
		}
		maxIters := 0
		for i := 0; i < 5; i++ {
			stats, err := st.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Converged {
				t.Fatalf("step %d did not converge", i+1)
			}
			if stats.Iterations > maxIters {
				maxIters = stats.Iterations
			}
		}
		return maxIters, sys
	}
	small, _ := maxItersAt(24, 20)
	large, sysL := maxItersAt(48, 40)
	t.Logf("mg-cg transient iterations/step: %d at 24×20, %d at 48×40", small, large)
	if small > 10 || large > 10 {
		t.Errorf("transient mg-cg iteration count left the pinned band: %d / %d > 10", small, large)
	}
	if large > small+2 {
		t.Errorf("iteration count grew from %d to %d under refinement — not mesh independent", small, large)
	}
	// One shifted hierarchy per dt, however many steps and steppers run.
	if got := sysL.transientHierBuilds.Load(); got != 1 {
		t.Errorf("shifted hierarchy built %d times, want exactly 1", got)
	}
	st2, err := sysL.NewTransientStepper(make([]float64, sysL.N()), TransientOptions{
		TimeStep: 5, InitialUniform: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Step(); err != nil {
		t.Fatal(err)
	}
	if got := sysL.transientHierBuilds.Load(); got != 1 {
		t.Errorf("second stepper rebuilt the shifted hierarchy (%d builds)", got)
	}
}

// TestTransientRejectsOverflowingTimeStep: a subnormal dt passes the
// dt > 0 check but makes C/dt overflow to +Inf. The stepper must refuse
// it up front instead of iterating on an operator
// with infinite entries — and must not cache the refused operator.
func TestTransientRejectsOverflowingTimeStep(t *testing.T) {
	p := systemProblem(t, 12, 10, 4)
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.NewTransientStepper(p.Power, TransientOptions{TimeStep: 5e-324, InitialUniform: 25})
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("NewTransientStepper(dt = 5e-324) error = %v, want a C/dt overflow refusal", err)
	}
	if len(sys.transientOps) != 0 {
		t.Errorf("refused time step left %d cached operators", len(sys.transientOps))
	}
}
