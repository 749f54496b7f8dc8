package mg

// Test fixtures shared with the external-package tests of this
// directory, which import the thermal stack (and so, through fvm, this
// package) and therefore cannot live in package mg.
var (
	GradedTestHierarchy = testHierarchy
	ShiftVector         = shiftVector
	RandRHS             = randRHS
)
