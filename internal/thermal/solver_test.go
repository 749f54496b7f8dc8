package thermal

import (
	"math"
	"testing"

	"vcselnoc/internal/fvm"
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

// TestBuildBasisParallelMatchesSerial: fanning the four unit solves
// across a worker pool must reproduce the serial basis. Run under -race
// this is the data-race check for the parallel BuildBasis path.
func TestBuildBasisParallelMatchesSerial(t *testing.T) {
	serialSpec := previewSpec(t)
	serialSpec.Workers = 1
	ms, err := NewModel(serialSpec)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ms.BuildBasis(nil)
	if err != nil {
		t.Fatal(err)
	}
	parallelSpec := previewSpec(t)
	parallelSpec.Workers = 4
	mp, err := NewModel(parallelSpec)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := mp.BuildBasis(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.unit) != len(parallel.unit) {
		t.Fatalf("length %d vs %d", len(serial.unit), len(parallel.unit))
	}
	for g, name := range []string{"chip", "vcsel", "driver", "heater"} {
		for i := range serial.unit {
			if s, p := serial.unit[i][g], parallel.unit[i][g]; math.Abs(s-p) > 1e-9 {
				t.Fatalf("%s basis differs at cell %d: serial %g vs parallel %g", name, i, s, p)
			}
		}
	}
}

// TestSolverBackendsAgreeOnModel: a full system solve must agree across
// the Jacobi-CG, SSOR-CG and MG-CG backends to 1e-6 relative on the
// temperature rise.
func TestSolverBackendsAgreeOnModel(t *testing.T) {
	p := Powers{Chip: 25, VCSEL: 3e-3, Driver: 3e-3, Heater: 1e-3}
	backends := []string{"jacobi-cg", "ssor-cg", "mg-cg"}
	fields := map[string][]float64{}
	var ambient float64
	for _, backend := range backends {
		spec := previewSpec(t)
		spec.Solver = backend
		m, err := NewModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		fields[backend] = res.Field()
		ambient = spec.Ambient
	}
	ref := fields["jacobi-cg"]
	var maxRise float64
	for i := range ref {
		if r := math.Abs(ref[i] - ambient); r > maxRise {
			maxRise = r
		}
	}
	for _, backend := range backends[1:] {
		var maxD float64
		for i, v := range fields[backend] {
			if d := math.Abs(ref[i] - v); d > maxD {
				maxD = d
			}
		}
		if maxD/maxRise > 1e-6 {
			t.Errorf("%s disagrees with jacobi-cg on the model field: rel diff %.2e > 1e-6", backend, maxD/maxRise)
		}
	}
}

// TestMGCGMeshIndependence is the property the multigrid backend exists
// for: its CG iteration count must stay within a narrow band as the mesh
// refines Preview → Coarse → Fast (the bench resolution), while SSOR-CG —
// whose iterations scale with √κ ∝ 1/h — degrades. The Fast tier costs an
// SSOR-CG solve of the 285k-cell system, so it is skipped under -short;
// the Preview → Coarse band is still asserted there.
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
		backends := []string{"mg-cg"}
		if !testing.Short() {
			// The SSOR-CG comparison column costs hundreds of iterations
			// per tier; -short keeps only the cheap mg-cg band check.
			backends = append(backends, "ssor-cg")
		}
		for _, backend := range backends {
			sol, err := m.System().SolveSteady(power, fvm.SolveOptions{Tolerance: 1e-8, Solver: backend})
			if err != nil {
				t.Fatalf("%s/%s: %v", rn.name, backend, err)
			}
			if !sol.Stats.Converged {
				t.Fatalf("%s/%s did not converge", rn.name, backend)
			}
			iters[backend] = append(iters[backend], sol.Stats.Iterations)
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
		last := len(iters["ssor-cg"]) - 1
		mgGrowth := float64(iters["mg-cg"][last]) / mg0
		ssorGrowth := float64(iters["ssor-cg"][last]) / float64(iters["ssor-cg"][0])
		if ssorGrowth <= 2 {
			t.Logf("note: ssor-cg growth %.2fx unexpectedly mild", ssorGrowth)
		}
		if mgGrowth >= ssorGrowth {
			t.Errorf("mg-cg growth %.2fx is not better than ssor-cg's %.2fx", mgGrowth, ssorGrowth)
		}
	}
}

// TestSpecSolverValidation: unknown backends and negative worker counts
// must be rejected at spec level.
func TestSpecSolverValidation(t *testing.T) {
	spec := previewSpec(t)
	spec.Solver = "multigrid"
	if err := spec.Validate(); err == nil {
		t.Error("unknown solver backend should fail validation")
	}
	spec = previewSpec(t)
	spec.Workers = -2
	if err := spec.Validate(); err == nil {
		t.Error("negative worker count should fail validation")
	}
	spec = previewSpec(t)
	spec.Solver = "ssor-cg"
	spec.Workers = 2
	if err := spec.Validate(); err != nil {
		t.Errorf("valid solver spec rejected: %v", err)
	}
}
