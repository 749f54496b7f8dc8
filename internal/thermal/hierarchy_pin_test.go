package thermal_test

import (
	"os"
	"testing"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/sparse"
	"vcselnoc/internal/thermal"
)

// coarseBudget is internal/mg's defaultCoarseBudget: the most entries the
// coarsest level's Cholesky factor may store.
const coarseBudget = 1 << 20

// TestHierarchyIterationPin pins, per resolution tier, the multigrid
// hierarchy a PaperSpec model solves on and what it costs in outer
// iterations: the coarsest level's factor fits the budget, and the
// uniform basis and a diagonal rebuild converge within the tier's
// bound. Preview always runs and coarse unless -short; fast and paper
// run when VCSELNOC_BENCH_RES names them (a fast model takes a few
// seconds, a paper one tens).
func TestHierarchyIterationPin(t *testing.T) {
	for _, tier := range []struct {
		name     string
		maxIters int
	}{
		{"preview", 4},
		{"coarse", 5},
		{"fast", 5},
		{"paper", 8},
	} {
		t.Run(tier.name, func(t *testing.T) {
			switch tier.name {
			case "coarse":
				if testing.Short() {
					t.Skip("the coarse tier is skipped under -short")
				}
			case "fast", "paper":
				if os.Getenv("VCSELNOC_BENCH_RES") != tier.name {
					t.Skipf("set VCSELNOC_BENCH_RES=%s to pin this tier", tier.name)
				}
			}
			hierarchyPin(t, tier.name, tier.maxIters)
		})
	}
}

// hierarchyPin checks one tier: a PaperSpec model's hierarchy, its
// coarsest factor's fit, and the outer iterations of its uniform basis
// and of a diagonal rebuild against maxIters.
func hierarchyPin(t *testing.T, tier string, maxIters int) {
	t.Helper()
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
	an, err := sparse.AnalyzeCholesky(h.CoarseOperator(), h.CoarseOrdering(), coarseBudget)
	if err != nil {
		t.Fatalf("coarsest level (%d cells, level %d) does not fit the %d-entry factor budget: %v",
			h.CoarseOperator().N(), h.Depth(), coarseBudget, err)
	}
	uniform, err := m.Basis(nil)
	if err != nil {
		t.Fatal(err)
	}
	diagonal, err := m.Basis(activity.Diagonal{})
	if err != nil {
		t.Fatal(err)
	}
	us, ds := uniform.BuildStats(), diagonal.BuildStats()
	t.Logf("%s: %d cells, %d levels, coarsest %d cells, factor %d entries; iterations: uniform basis %d, diagonal rebuild %d",
		tier, m.System().N(), us.Levels, us.CoarseCells, an.Nnz(), us.Iterations, ds.Iterations)
	if us.Levels != h.Depth() || us.CoarseCells != h.CoarseOperator().N() {
		t.Errorf("uniform basis reports %d levels and %d coarse cells, its hierarchy has %d and %d",
			us.Levels, us.CoarseCells, h.Depth(), h.CoarseOperator().N())
	}
	if us.Iterations > maxIters || ds.Iterations > maxIters {
		t.Errorf("%s: uniform basis %d and diagonal rebuild %d outer iterations, want ≤ %d",
			tier, us.Iterations, ds.Iterations, maxIters)
	}
}
