package mg_test

// Mixed-precision guard on the real thermal model: the float32 V-cycle
// must not cost more than one extra outer CG iteration over the float64
// baseline on the model the benchmarks solve.

import (
	"os"
	"testing"

	"vcselnoc/internal/mg"
	"vcselnoc/internal/thermal"
)

// precisionPin solves one steady field of the paper model at resolution
// res from a zero start in each V-cycle precision. With a zero ambient
// the system's right-hand side is the power vector.
func precisionPin(t *testing.T, res thermal.Resolution) {
	t.Helper()
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = res
	spec.Ambient = 0
	m, err := thermal.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	power, err := m.PowerVector(thermal.Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3})
	if err != nil {
		t.Fatal(err)
	}
	sys := m.System()
	h, err := sys.Hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	iterations := func(precision string) int {
		s := mg.New(h, mg.WithPrecision(mg.Options{Tolerance: 1e-8}, precision))
		r, err := s.Solve(sys.Matrix(), power, make([]float64, sys.N()))
		if err != nil {
			t.Fatal(err)
		}
		return r.Iterations
	}
	i64 := iterations(mg.PrecisionFloat64)
	i32 := iterations(mg.PrecisionFloat32)
	t.Logf("outer CG iterations: float64 %d, float32 %d", i64, i32)
	if i32 > i64+1 {
		t.Fatalf("float32 V-cycle costs %d outer iterations vs float64's %d: more than +1", i32, i64)
	}
}

// TestModelPrecisionIterationPin runs the guard at preview resolution always,
// and additionally at the bench resolution when VCSELNOC_BENCH_RES names
// one (the benchmarks' default tier, fast, takes tens of seconds a solve:
// too slow for tier-1 test runs).
func TestModelPrecisionIterationPin(t *testing.T) {
	t.Run("preview", func(t *testing.T) {
		precisionPin(t, thermal.PreviewResolution())
	})
	t.Run("bench", func(t *testing.T) {
		name := os.Getenv("VCSELNOC_BENCH_RES")
		if name == "" {
			t.Skip("set VCSELNOC_BENCH_RES to pin the bench resolution tier")
		}
		res, err := thermal.ResolutionByName(name)
		if err != nil {
			t.Fatal(err)
		}
		precisionPin(t, res)
	})
}
