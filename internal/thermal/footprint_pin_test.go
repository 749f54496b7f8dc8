package thermal_test

import (
	"os"
	"testing"

	"vcselnoc/internal/fvm"
	"vcselnoc/internal/mg"
	"vcselnoc/internal/thermal"
)

// TestHierarchyFootprintPin pins, per resolution tier, the bytes a
// PaperSpec model's multigrid hierarchy holds after the uniform basis
// (mg.FootprintOf, computed from array lengths, so exact on any
// machine), checks that the basis's float32 solves left no float64
// packed couplings, and checks that a transient stepper's shifted
// hierarchy adds only its own values and Thomas arrays: counted
// together, the two hierarchies hold the steady one's structure and
// packed couplings once, the shifted one's values are the steady ones
// plus its finest operator's, and its float32 copies match the steady
// ones in size. Preview always runs; fast runs when
// VCSELNOC_BENCH_RES=fast.
func TestHierarchyFootprintPin(t *testing.T) {
	for _, tier := range []struct {
		name            string
		steady, stepper int64 // hierarchy bytes; bytes the stepper's shifted hierarchy adds
	}{
		{"preview", 23_990_028, 19_189_272},
		{"fast", 203_733_556, 129_049_272},
	} {
		t.Run(tier.name, func(t *testing.T) {
			if tier.name != "preview" && os.Getenv("VCSELNOC_BENCH_RES") != tier.name {
				t.Skipf("set VCSELNOC_BENCH_RES=%s to pin this tier", tier.name)
			}
			m := tierModel(t, tier.name)
			uniform, err := m.Basis(nil)
			if err != nil {
				t.Fatal(err)
			}
			h, err := m.System().Hierarchy()
			if err != nil {
				t.Fatal(err)
			}
			fp, bs := mg.FootprintOf(h), uniform.BuildStats()
			t.Logf("%s: hierarchy %d bytes (%.1f MiB): %+v", tier.name, fp.Total(), float64(fp.Total())/(1<<20), fp)
			if bs.Precision != "float32" || fp.Packed64 != 0 || fp.Packed32 == 0 {
				t.Errorf("uniform basis ran the %q cycle and left %d float64 and %d float32 packed bytes; want float32 alone",
					bs.Precision, fp.Packed64, fp.Packed32)
			}
			if fp.Total() != tier.steady || bs.HierarchyBytes != fp.Total() {
				t.Errorf("hierarchy holds %d bytes (basis reports %d), want %d", fp.Total(), bs.HierarchyBytes, tier.steady)
			}

			power, err := m.PowerVector(thermal.Powers{Chip: 25})
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.System().NewTransientStepper(power, fvm.TransientOptions{TimeStep: 0.02, InitialUniform: 25})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Step(); err != nil {
				t.Fatal(err)
			}
			both := mg.FootprintOf(h, st.Hierarchy())
			added := both.Total() - fp.Total()
			t.Logf("%s: the stepper's shifted hierarchy adds %d bytes (%.1f MiB): %+v", tier.name, added, float64(added)/(1<<20), both)
			if both.Structure != fp.Structure || both.Packed32 != fp.Packed32 || both.Packed64 != 0 ||
				both.Values != 2*fp.Values+8*int64(m.System().Matrix().NNZ()) || both.Float32 != 2*fp.Float32 {
				t.Errorf("steady and shifted hierarchies hold %+v, the steady one alone %+v: want the structure and packed couplings once, and the shifted one's values and Thomas arrays",
					both, fp)
			}
			if added != tier.stepper {
				t.Errorf("the shifted hierarchy adds %d bytes, want %d", added, tier.stepper)
			}
		})
	}
}
