package sparse

// The external tests of this directory import the multigrid stack (and
// so this package) to reach real coarse operators; these let them check
// a factor against the up-looking reference and its solve against the
// column sweep.
var (
	AssertMatchesUpLooking        = assertMatchesUpLooking
	AssertSolveMatchesColumnSweep = assertSolveMatchesColumnSweep
)
