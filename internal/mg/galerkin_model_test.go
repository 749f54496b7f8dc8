package mg_test

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"vcselnoc/internal/mg"
	"vcselnoc/internal/sparse"
	"vcselnoc/internal/thermal"
)

// TestGalerkinMatchesReference checks every coarse operator the per-line
// Galerkin product builds against the per-row scatter product it
// replaced, bit for bit: on the graded test mesh and the graded
// worker-test mesh (on which 4 workers split the first product four
// ways) at 1–4 workers, on 200 random graded meshes, on the preview
// thermal model and, when VCSELNOC_BENCH_RES=fast is set, on the fast
// one.
func TestGalerkinMatchesReference(t *testing.T) {
	t.Run("graded", func(t *testing.T) {
		_, small, smallHint := mg.GradedTestHierarchy(t)
		large, largeHint := mg.WorkersTestSystem(t)
		for _, mesh := range []struct {
			a    *sparse.CSR
			hint sparse.GridHint
		}{{small, smallHint}, {large, largeHint}} {
			for workers := 1; workers <= 4; workers++ {
				h, err := mg.BuildHierarchy(mesh.a, mesh.hint, mg.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := mg.CheckGalerkin(h); err != nil {
					t.Fatalf("%d cells, %d workers: %v", mesh.a.N(), workers, err)
				}
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		// Runs of fine cells between cells up to 1000× wider, as in
		// TestMergeProperties, on stacks of 1–4 layers.
		rng := rand.New(rand.NewSource(29))
		axis := func(maxCells int) []float64 {
			lines := []float64{0}
			for c := 1 + rng.Intn(maxCells); c > 0; c-- {
				lines = append(lines, lines[len(lines)-1]+math.Pow(1000, rng.Float64()*rng.Float64()))
			}
			return lines
		}
		for trial := 0; trial < 200; trial++ {
			xl, yl, zl := axis(24), axis(24), axis(4)
			a, hint := mg.HeatSystem(t, xl, yl, zl)
			workers := 1 + rng.Intn(4)
			h, err := mg.BuildHierarchy(a, hint, mg.Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d (%d×%d×%d cells): %v", trial, len(xl)-1, len(yl)-1, len(zl)-1, err)
			}
			if err := mg.CheckGalerkin(h); err != nil {
				t.Fatalf("trial %d (%d×%d×%d cells, %d levels, %d workers): %v",
					trial, len(xl)-1, len(yl)-1, len(zl)-1, h.Depth(), workers, err)
			}
		}
	})
	for _, tier := range []string{"preview", "fast"} {
		t.Run(tier, func(t *testing.T) {
			if tier != "preview" && os.Getenv("VCSELNOC_BENCH_RES") != tier {
				t.Skipf("set VCSELNOC_BENCH_RES=%s to check this tier", tier)
			}
			res, err := thermal.ResolutionByName(tier)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := thermal.PaperSpec()
			if err != nil {
				t.Fatal(err)
			}
			spec.Res = res
			m, err := thermal.NewModel(spec)
			if err != nil {
				t.Fatal(err)
			}
			h, err := m.System().Hierarchy()
			if err != nil {
				t.Fatal(err)
			}
			if err := mg.CheckGalerkin(h); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d levels, %d → %d cells", tier, h.Depth(), h.Fine().N(), h.CoarseOperator().N())
		})
	}
}
