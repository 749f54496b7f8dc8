package sparse

// AssertMatchesUpLooking lets the external tests of this directory, which
// import the multigrid stack (and so this package) to reach real coarse
// operators, check a factor against the up-looking reference.
var AssertMatchesUpLooking = assertMatchesUpLooking
