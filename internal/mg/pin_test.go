package mg_test

// Bit-identity pin for refactors of the V-cycle: the float64 bits of
// mg-cg solutions on the graded synthetic mesh, for both V-cycle
// precisions, steady and shifted, of the four unit fields of a preview
// thermal basis and of the chip field of a preview diagonal-activity
// basis, are hashed and compared against constants recorded before the
// refactor. A refactor that changes any rounding anywhere in the cycle
// changes a hash.

import (
	"fmt"
	"runtime"
	"testing"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/mg"
	"vcselnoc/internal/thermal"
)

// fingerprint renders an iteration count and the FNV-1a hash of a
// field's IEEE-754 bits.
func fingerprint(iters int, x []float64) string {
	return fmt.Sprintf("%d:%016x", iters, fvm.HashFloat64s(x))
}

func TestBitIdentityPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other architectures may fuse multiply-adds")
	}
	t.Run("graded", func(t *testing.T) {
		h, a, hint := mg.GradedTestHierarchy(t)
		b := mg.RandRHS(a.N(), 61)
		sh, err := h.Shifted(mg.ShiftVector(hint.X, hint.Y, hint.Z))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name, prec string
			shifted    bool
			want       string
		}{
			{"float64/steady", mg.PrecisionFloat64, false, "7:d99122e8e65c8bd4"},
			{"float64/shifted", mg.PrecisionFloat64, true, "6:97e1ca84465321a5"},
			{"float32/steady", mg.PrecisionFloat32, false, "7:f4e6bd1d8b828731"},
			{"float32/shifted", mg.PrecisionFloat32, true, "6:69779a627e10107b"},
		} {
			t.Run(tc.name, func(t *testing.T) {
				hier := h
				if tc.shifted {
					hier = sh
				}
				s := mg.New(hier, mg.WithPrecision(mg.Options{Tolerance: 1e-9, Workers: 2}, tc.prec))
				x := make([]float64, a.N())
				res, err := s.Solve(hier.Fine(), b, x)
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(res.Iterations, x); got != tc.want {
					t.Errorf("solution fingerprint %s, want %s", got, tc.want)
				}
			})
		}
	})
	t.Run("preview-basis", func(t *testing.T) {
		spec, err := thermal.PaperSpec()
		if err != nil {
			t.Fatal(err)
		}
		spec.Res = thermal.PreviewResolution()
		// With a zero ambient, Evaluate at one watt of one group returns
		// that group's unit field exactly (a scaled copy for the
		// per-device groups).
		spec.Ambient = 0
		m, err := thermal.NewModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		basis, err := m.BuildBasis(nil)
		if err != nil {
			t.Fatal(err)
		}
		iters := basis.BuildStats().Iterations
		for _, tc := range []struct {
			name string
			p    thermal.Powers
			want string
		}{
			{"chip", thermal.Powers{Chip: 1}, "6:ea83533a613365f9"},
			{"vcsel", thermal.Powers{VCSEL: 1}, "6:388e6244d1a872b1"},
			{"driver", thermal.Powers{Driver: 1}, "6:01d7bfccd980560a"},
			{"heater", thermal.Powers{Heater: 1}, "6:0ba08c4f425f6c8a"},
		} {
			r, err := basis.Evaluate(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(iters, r.Field()); got != tc.want {
				t.Errorf("%s unit field fingerprint %s, want %s", tc.name, got, tc.want)
			}
		}
		// A non-uniform basis solves only its chip column: one SolveSteady
		// on the model's cached hierarchy, the rebuild each activity
		// scenario of the design flow pays.
		diag, err := m.BuildBasis(activity.Diagonal{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := diag.Evaluate(thermal.Powers{Chip: 1})
		if err != nil {
			t.Fatal(err)
		}
		const want = "5:8f77031d9ac427c6"
		if got := fingerprint(diag.BuildStats().Iterations, r.Field()); got != want {
			t.Errorf("diagonal chip field fingerprint %s, want %s", got, want)
		}
	})
}
