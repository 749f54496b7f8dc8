package thermal

import (
	"math"
	"reflect"
	"testing"

	"vcselnoc/internal/fvm"
)

// transientPowers is the lasers-on operating point the transient tests
// integrate towards.
var transientPowers = Powers{Chip: 25, VCSEL: 4e-3, Driver: 4e-3, Heater: 1.2e-3}

// TestTransientRunResumeDeterminism: a run checkpointed at step k and
// resumed on a freshly built model must land on a field bit-identical to
// the uninterrupted run — reflect.DeepEqual on the full Result.
func TestTransientRunResumeDeterminism(t *testing.T) {
	spec := previewSpec(t)
	m1, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := TransientSpec{TimeStep: 0.02, Steps: 8}
	want, err := m1.SolveTransient(transientPowers, base)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint every 3 steps, stop after step 6.
	var cps []*fvm.TransientCheckpoint
	run, err := m1.NewTransientRun(transientPowers, TransientSpec{
		TimeStep: base.TimeStep, Steps: base.Steps,
		CheckpointEvery: 3,
		Checkpoint:      func(cp *fvm.TransientCheckpoint) error { cps = append(cps, cp); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for run.StepIndex() < 6 {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(cps) != 2 || cps[0].Step != 3 || cps[1].Step != 6 {
		t.Fatalf("checkpoint cadence wrong: got %d checkpoints", len(cps))
	}

	// Resume from step 6 on a second model built from the same spec —
	// the cross-restart scenario.
	m2, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := m2.NewTransientRun(transientPowers, TransientSpec{
		TimeStep: base.TimeStep, Steps: base.Steps, Resume: cps[1],
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed() || resumed.StepIndex() != 6 {
		t.Fatalf("resume state: resumed=%v step=%d", resumed.Resumed(), resumed.StepIndex())
	}
	for !resumed.Done() {
		if err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := resumed.Result()
	if !reflect.DeepEqual(got.Field(), want.Field()) {
		t.Error("resumed field is not bit-identical to the uninterrupted run")
	}
	if !reflect.DeepEqual(got.ONIs, want.ONIs) {
		t.Error("resumed ONI reports differ from the uninterrupted run")
	}
}

// TestTransientObserver: the cheap observer must fire every step with
// sane statistics — rising peak temperature during warm-up, one gradient
// per ONI, and a gradient consistent with the full report's.
func TestTransientObserver(t *testing.T) {
	m, err := NewModel(previewSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var obs []TransientObservation
	res, err := m.SolveTransient(transientPowers, TransientSpec{
		TimeStep: 0.02, Steps: 5,
		Observer: func(o TransientObservation) { obs = append(obs, o) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 5 {
		t.Fatalf("%d observations, want 5", len(obs))
	}
	for i, o := range obs {
		if o.Step != i+1 {
			t.Errorf("observation %d has step %d", i, o.Step)
		}
		if len(o.ONIGradients) != len(m.ONIs()) {
			t.Errorf("step %d: %d gradients for %d ONIs", o.Step, len(o.ONIGradients), len(m.ONIs()))
		}
		if o.SolverIterations <= 0 {
			t.Errorf("step %d: no solver iterations reported", o.Step)
		}
		if i > 0 && o.PeakTemp < obs[i-1].PeakTemp-1e-9 {
			t.Errorf("peak temperature fell during warm-up: %g -> %g", obs[i-1].PeakTemp, o.PeakTemp)
		}
	}
	// The observer's gradient tracks the full report's to stencil
	// accuracy (both are volume-weighted device means).
	last := obs[len(obs)-1]
	if d := math.Abs(last.MaxGradient - res.MaxONIGradient()); d > 1e-9 {
		t.Errorf("observer gradient %g vs report %g (|Δ|=%g)", last.MaxGradient, res.MaxONIGradient(), d)
	}
}

// TestTransientResumeRefusals: resuming against a different mesh, or
// past the run's horizon, must refuse.
func TestTransientResumeRefusals(t *testing.T) {
	m, err := NewModel(previewSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.NewTransientRun(transientPowers, TransientSpec{TimeStep: 0.02, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	for !run.Done() {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp := run.Checkpoint()

	// Different mesh: coarse vs preview.
	coarse := previewSpec(t)
	coarse.Res = CoarseResolution()
	mc, err := NewModel(coarse)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.NewTransientRun(transientPowers, TransientSpec{TimeStep: 0.02, Steps: 8, Resume: cp}); err == nil {
		t.Error("resume on a different mesh should refuse")
	}
	// Different powers on the same mesh.
	if _, err := m.NewTransientRun(Powers{Chip: 30}, TransientSpec{TimeStep: 0.02, Steps: 8, Resume: cp}); err == nil {
		t.Error("resume with different powers should refuse")
	}
	// Horizon already passed.
	if _, err := m.NewTransientRun(transientPowers, TransientSpec{TimeStep: 0.02, Steps: 2, Resume: cp}); err == nil {
		t.Error("resume past the run horizon should refuse")
	}
	// Stepping a finished run refuses.
	if err := run.Step(); err == nil {
		t.Error("stepping a completed run should refuse")
	}
}
