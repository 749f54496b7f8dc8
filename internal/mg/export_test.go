package mg

// Test fixtures shared with the external-package tests of this
// directory, which import the thermal stack (and so, through fvm, this
// package) and therefore cannot live in package mg.
var (
	GradedTestHierarchy = testHierarchy
	WorkersTestSystem   = workersTestSystem
	HeatSystem          = buildHeatSystem
	ShiftVector         = shiftVector
	RandRHS             = randRHS
	CheckGalerkin       = checkGalerkin
)

// The V-cycle precisions the precision test hook accepts.
const (
	PrecisionFloat64 = precisionFloat64
	PrecisionFloat32 = precisionFloat32
)

// WithPrecision returns opts with the V-cycle's precision forced to
// PrecisionFloat32 or PrecisionFloat64 through the test hook.
func WithPrecision(opts Options, precision string) Options {
	opts.precision = precision
	return opts
}
