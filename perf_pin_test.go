package vcselnoc

// Mixed-precision guard on the real thermal model: the float32 V-cycle
// must not cost more than one extra outer CG iteration over the float64
// baseline on the model the benchmarks solve.

import (
	"os"
	"testing"

	"vcselnoc/internal/fvm"
	"vcselnoc/internal/thermal"
)

func solveIterations(t *testing.T, m *thermal.Model, precision string) int {
	t.Helper()
	power, err := m.PowerVector(thermal.Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.System().SolveSteady(power, fvm.SolveOptions{
		Tolerance:   1e-8,
		MGPrecision: precision,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sol.Stats.Iterations
}

func precisionPin(t *testing.T, res thermal.Resolution) {
	t.Helper()
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = res
	m, err := thermal.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	i64 := solveIterations(t, m, "float64")
	i32 := solveIterations(t, m, "float32")
	t.Logf("outer CG iterations: float64 %d, float32 %d", i64, i32)
	if i32 > i64+1 {
		t.Fatalf("float32 V-cycle costs %d outer iterations vs float64's %d: more than +1", i32, i64)
	}
}

// TestMGPrecisionIterationPin runs the guard at preview resolution always,
// and additionally at the bench resolution when VCSELNOC_BENCH_RES is set
// explicitly (the default bench tier is "fast", where a solve takes tens
// of seconds — too slow for tier-1 test runs).
func TestMGPrecisionIterationPin(t *testing.T) {
	t.Run("preview", func(t *testing.T) {
		precisionPin(t, thermal.PreviewResolution())
	})
	t.Run("bench", func(t *testing.T) {
		if os.Getenv("VCSELNOC_BENCH_RES") == "" {
			t.Skip("set VCSELNOC_BENCH_RES to pin the bench resolution tier")
		}
		precisionPin(t, benchResolution())
	})
}
