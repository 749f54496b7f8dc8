package thermal

import (
	"math"
	"testing"

	"vcselnoc/internal/fvm"
	"vcselnoc/internal/sparse"
)

// previewSpec is a tiny-mesh spec for solver-equivalence tests: these
// assert numerical agreement between code paths, not paper physics, so
// the coarsest mesh suffices and keeps -race runs quick.
func previewSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = PreviewResolution()
	spec.SolverTol = 1e-9
	return spec
}

// TestBuildBasisParallelMatchesSerial: the four unit solves, run one
// after another (Workers 1) or concurrently (Workers 2 and 4), give the
// same basis bit for bit. Run under -race this is the data-race check
// for the concurrent BuildBasis path.
func TestBuildBasisParallelMatchesSerial(t *testing.T) {
	var serial *Basis
	for _, workers := range []int{1, 2, 4} {
		spec := previewSpec(t)
		spec.Workers = workers
		m, err := NewModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.BuildBasis(nil)
		if err != nil {
			t.Fatal(err)
		}
		if serial == nil {
			serial = b
			continue
		}
		if got, want := b.BuildStats().Iterations, serial.BuildStats().Iterations; got != want {
			t.Errorf("workers=%d: %d iterations, serial %d", workers, got, want)
		}
		for g, name := range groupNames {
			for i := range serial.unit {
				if s, p := serial.unit[i][g], b.unit[i][g]; math.Float64bits(s) != math.Float64bits(p) {
					t.Fatalf("workers=%d: %s basis differs at cell %d: serial %g vs %g", workers, name, i, s, p)
				}
			}
		}
	}
}

// TestAmbientStart: a steady solve of the model starts from the ambient
// field, the exact zero-power solution. On PaperSpec's 25 °C ambient the
// chip field it gives must agree with a zero-started solve within
// 1e-7 °C, in no more iterations.
func TestAmbientStart(t *testing.T) {
	m, _ := previewBases(t)
	if m.spec.Ambient != 25 {
		t.Fatalf("ambient %g °C, want PaperSpec's 25", m.spec.Ambient)
	}
	chip, err := m.powerVector(Powers{Chip: 1})
	if err != nil {
		t.Fatal(err)
	}
	zeroOpts := m.solveOptions()
	zeroOpts.InitialGuess = nil
	zero, err := m.sys.SolveSteady(chip, zeroOpts)
	if err != nil {
		t.Fatal(err)
	}
	amb, err := m.sys.SolveSteady(chip, m.solveOptions())
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i, v := range zero.T {
		worst = max(worst, math.Abs(amb.T[i]-v))
	}
	t.Logf("chip field: %d iterations from ambient, %d from zero; worst difference %.3g °C",
		amb.Stats.Iterations, zero.Stats.Iterations, worst)
	if worst > 1e-7 {
		t.Errorf("ambient- and zero-started chip fields differ by %g °C, want ≤ 1e-7", worst)
	}
	if amb.Stats.Iterations > zero.Stats.Iterations {
		t.Errorf("ambient start took %d iterations, the zero start %d", amb.Stats.Iterations, zero.Stats.Iterations)
	}
}

// TestSolverBackendsAgreeOnModel: a full system solve with mg-cg must
// agree with the Jacobi-preconditioned CG reference to 1e-6 relative on
// the temperature rise. Both boundaries convect to the one ambient, so
// the rise solves the model's operator against the power vector alone.
func TestSolverBackendsAgreeOnModel(t *testing.T) {
	p := Powers{Chip: 25, VCSEL: 3e-3, Driver: 3e-3, Heater: 1e-3}
	spec := previewSpec(t)
	m, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	power, err := m.PowerVector(p)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, len(power))
	if _, err := (&sparse.CG{Tolerance: 1e-10}).Solve(m.System().Matrix(), power, ref); err != nil {
		t.Fatal(err)
	}
	var maxRise, maxD float64
	for i, v := range res.Field() {
		maxRise = math.Max(maxRise, math.Abs(ref[i]))
		maxD = math.Max(maxD, math.Abs(ref[i]-(v-spec.Ambient)))
	}
	if maxD/maxRise > 1e-6 {
		t.Errorf("mg-cg disagrees with jacobi-cg on the model's rise: rel diff %.2e > 1e-6", maxD/maxRise)
	}
}

// TestMGCGMeshIndependence is the property the multigrid solver exists
// for: its CG iteration count must stay within a narrow band as the mesh
// refines Preview → Coarse → Fast (the bench resolution), while
// Jacobi-CG — whose iterations scale with √κ ∝ 1/h — degrades. The Fast
// tier costs a Jacobi-CG solve of the 285k-cell system, so it is skipped
// under -short; the Preview → Coarse band is still asserted there.
func TestMGCGMeshIndependence(t *testing.T) {
	resolutions := []struct {
		name string
		res  Resolution
	}{
		{"preview", PreviewResolution()},
		{"coarse", CoarseResolution()},
		{"fast", FastResolution()},
	}
	if testing.Short() {
		resolutions = resolutions[:2]
	}
	p := Powers{Chip: 25, VCSEL: 3e-3, Driver: 3e-3, Heater: 1e-3}
	iters := map[string][]int{}
	for _, rn := range resolutions {
		spec, err := PaperSpec()
		if err != nil {
			t.Fatal(err)
		}
		spec.Res = rn.res
		spec.SolverTol = 1e-8
		m, err := NewModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		power, err := m.PowerVector(p)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := m.System().SolveSteady(power, fvm.SolveOptions{Tolerance: 1e-8})
		if err != nil {
			t.Fatalf("%s: %v", rn.name, err)
		}
		if !sol.Stats.Converged {
			t.Fatalf("%s did not converge", rn.name)
		}
		iters["mg-cg"] = append(iters["mg-cg"], sol.Stats.Iterations)
		if !testing.Short() {
			// The Jacobi-CG comparison column costs hundreds of
			// iterations per tier; -short keeps only the mg-cg band check.
			x := make([]float64, len(power))
			res, err := (&sparse.CG{Tolerance: 1e-8}).Solve(m.System().Matrix(), power, x)
			if err != nil {
				t.Fatalf("%s/jacobi-cg: %v", rn.name, err)
			}
			iters["jacobi-cg"] = append(iters["jacobi-cg"], res.Iterations)
		}
		t.Logf("%s (n=%d): iterations %v", rn.name, m.System().N(), iters)
	}
	mg0 := float64(iters["mg-cg"][0])
	for i, it := range iters["mg-cg"] {
		if float64(it) > 1.5*mg0 {
			t.Errorf("mg-cg iterations grew from %d (preview) to %d (%s) — over the 1.5x mesh-independence band",
				iters["mg-cg"][0], it, resolutions[i].name)
		}
	}
	if !testing.Short() {
		last := len(iters["jacobi-cg"]) - 1
		mgGrowth := float64(iters["mg-cg"][last]) / mg0
		jacobiGrowth := float64(iters["jacobi-cg"][last]) / float64(iters["jacobi-cg"][0])
		if jacobiGrowth <= 2 {
			t.Logf("note: jacobi-cg growth %.2fx unexpectedly mild", jacobiGrowth)
		}
		if mgGrowth >= jacobiGrowth {
			t.Errorf("mg-cg growth %.2fx is not better than jacobi-cg's %.2fx", mgGrowth, jacobiGrowth)
		}
	}
}

// TestSpecSolverValidation: negative worker counts must be rejected at
// spec level.
func TestSpecSolverValidation(t *testing.T) {
	spec := previewSpec(t)
	spec.Workers = -2
	if err := spec.Validate(); err == nil {
		t.Error("negative worker count should fail validation")
	}
	spec = previewSpec(t)
	spec.Workers = 2
	if err := spec.Validate(); err != nil {
		t.Errorf("valid solver spec rejected: %v", err)
	}
}
