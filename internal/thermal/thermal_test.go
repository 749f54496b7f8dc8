package thermal

import (
	"math"
	"sync"
	"testing"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/oni"
)

// Tests share one coarse model and basis: building them is the expensive
// part, and every test only reads. Under -short the fixture drops to the
// preview mesh — structural and equivalence tests still hold there, while
// tests asserting the paper's quantitative bands skip via fullRes.
var (
	once      sync.Once
	shared    *Model
	sharedB   *Basis
	sharedErr error
)

// fullRes skips tests whose assertions are calibrated against the coarse
// (20 µm) mesh and are not meaningful on the preview mesh used by -short
// and -race runs.
func fullRes(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("quantitative thermal bands need the full coarse mesh; skipped under -short/-race")
	}
}

func testModel(t *testing.T) (*Model, *Basis) {
	t.Helper()
	once.Do(func() {
		spec, err := PaperSpec()
		if err != nil {
			sharedErr = err
			return
		}
		spec.Res = CoarseResolution()
		if testing.Short() || raceEnabled {
			spec.Res = PreviewResolution()
		}
		spec.SolverTol = 1e-7
		shared, sharedErr = NewModel(spec)
		if sharedErr != nil {
			return
		}
		sharedB, sharedErr = shared.BuildBasis(nil)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return shared, sharedB
}

func TestResolutionValidate(t *testing.T) {
	if err := PaperResolution().Validate(); err != nil {
		t.Error(err)
	}
	if err := FastResolution().Validate(); err != nil {
		t.Error(err)
	}
	if err := CoarseResolution().Validate(); err != nil {
		t.Error(err)
	}
	bad := Resolution{ONICell: 0, DieCell: 1e-3, MaxZCell: 1e-3}
	if err := bad.Validate(); err == nil {
		t.Error("zero ONI cell should fail")
	}
	bad = Resolution{ONICell: 1e-3, DieCell: 1e-6, MaxZCell: 1e-3}
	if err := bad.Validate(); err == nil {
		t.Error("ONI cell > die cell should fail")
	}
}

func TestSpecValidation(t *testing.T) {
	spec, err := PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	s := spec
	s.Floorplan = nil
	if err := s.Validate(); err == nil {
		t.Error("nil floorplan should fail")
	}
	s = spec
	s.Stack = nil
	if err := s.Validate(); err == nil {
		t.Error("nil stack should fail")
	}
	s = spec
	s.BoardH = -1
	if err := s.Validate(); err == nil {
		t.Error("negative board H should fail")
	}
	s = spec
	s.Ambient = math.NaN()
	if err := s.Validate(); err == nil {
		t.Error("NaN ambient should fail")
	}
	s = spec
	s.HeaterFootprintScale = 9
	if err := s.Validate(); err == nil {
		t.Error("absurd heater scale should fail")
	}
}

func TestPowersValidation(t *testing.T) {
	if err := (Powers{Chip: 25, VCSEL: 1e-3}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Powers{Chip: -1}).Validate(); err == nil {
		t.Error("negative chip power should fail")
	}
	if err := (Powers{VCSEL: math.NaN()}).Validate(); err == nil {
		t.Error("NaN power should fail")
	}
}

func TestModelStructure(t *testing.T) {
	m, _ := testModel(t)
	if got := len(m.ONIs()); got != 16 {
		t.Fatalf("%d ONIs, want 16", got)
	}
	if m.NumCells() < 1000 {
		t.Fatalf("suspiciously small mesh: %d cells", m.NumCells())
	}
	// The mesh must resolve the optical layer: at least one z-slice there.
	found := false
	g := m.Grid()
	for k := 0; k < g.NZ(); k++ {
		zc := g.CellCenter(0, 0, k).Z
		if sp, err := m.spec.Stack.LayerAt(zc); err == nil && sp.Name == "optical" {
			found = true
		}
	}
	if !found {
		t.Error("no z-slice centred in the optical layer")
	}
}

func TestBaselineTemperatures(t *testing.T) {
	fullRes(t)
	_, b := testModel(t)
	res, err := b.Evaluate(Powers{Chip: 25})
	if err != nil {
		t.Fatal(err)
	}
	mean := res.MeanONITemp()
	// Calibration target: the paper's ~49 °C at 25 W uniform (generous
	// band; coarse mesh shifts it slightly).
	if mean < 42 || mean > 56 {
		t.Errorf("mean ONI temp at 25 W = %.1f °C, want 42–56", mean)
	}
	// All ONIs above ambient, chip hotter than ambient.
	for _, o := range res.ONIs {
		if o.AvgTemp <= m25Ambient(t) {
			t.Errorf("ONI %d at %g °C not above ambient", o.Index, o.AvgTemp)
		}
		if len(o.VCSELTemps) != 16 || len(o.MRTemps) != 16 {
			t.Errorf("ONI %d device temps %d/%d, want 16/16", o.Index, len(o.VCSELTemps), len(o.MRTemps))
		}
	}
	if res.ChipAvg <= m25Ambient(t) {
		t.Error("chip average not above ambient")
	}
}

func m25Ambient(t *testing.T) float64 {
	m, _ := testModel(t)
	return m.spec.Ambient
}

func TestMonotoneInChipPower(t *testing.T) {
	_, b := testModel(t)
	prev := -math.MaxFloat64
	for _, chip := range []float64{5, 15, 25, 35} {
		res, err := b.Evaluate(Powers{Chip: chip})
		if err != nil {
			t.Fatal(err)
		}
		mean := res.MeanONITemp()
		if mean <= prev {
			t.Errorf("mean ONI temp not increasing with chip power at %g W", chip)
		}
		prev = mean
	}
}

func TestVCSELPowerHeatsONIs(t *testing.T) {
	fullRes(t)
	_, b := testModel(t)
	base, err := b.Evaluate(Powers{Chip: 25})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := b.Evaluate(Powers{Chip: 25, VCSEL: 6e-3, Driver: 6e-3})
	if err != nil {
		t.Fatal(err)
	}
	rise := hot.MeanONITemp() - base.MeanONITemp()
	// Paper: ≈ +11 °C for +6 mW; accept the right order of magnitude.
	if rise < 4 || rise > 20 {
		t.Errorf("ONI rise for 6 mW VCSEL+driver = %.1f °C, want 4–20", rise)
	}
	// The gradient must grow substantially when lasers turn on.
	if hot.MaxONIGradient() < base.MaxONIGradient()+1 {
		t.Errorf("gradient barely moved: %.2f -> %.2f", base.MaxONIGradient(), hot.MaxONIGradient())
	}
	// VCSELs must be the hot devices without heaters.
	o := hot.ONIs[5]
	if o.MeanVCSELTemp() <= o.MeanMRTemp() {
		t.Error("VCSELs should run hotter than MRs without heater power")
	}
}

// TestHeaterVShape reproduces the core of Fig. 9-b at coarse resolution:
// sweeping the heater power at fixed P_VCSEL produces a V-shaped mean
// gradient with an interior minimum at a fraction of P_VCSEL.
func TestHeaterVShape(t *testing.T) {
	fullRes(t)
	_, b := testModel(t)
	const pv = 4e-3
	var grads []float64
	phs := []float64{0, 0.4e-3, 0.8e-3, 1.2e-3, 1.6e-3, 2.4e-3, 3.2e-3, 4e-3}
	for _, ph := range phs {
		res, err := b.Evaluate(Powers{Chip: 25, VCSEL: pv, Driver: pv, Heater: ph})
		if err != nil {
			t.Fatal(err)
		}
		var mean float64
		for _, o := range res.ONIs {
			mean += o.Gradient
		}
		grads = append(grads, mean/float64(len(res.ONIs)))
	}
	minIdx := 0
	for i, g := range grads {
		if g < grads[minIdx] {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(grads)-1 {
		t.Fatalf("gradient minimum at sweep boundary (idx %d): %v", minIdx, grads)
	}
	ratio := phs[minIdx] / pv
	if ratio < 0.05 || ratio > 0.6 {
		t.Errorf("optimal heater ratio = %.2f, want an interior fraction (paper: 0.3)", ratio)
	}
	// The heater must meaningfully reduce the gradient.
	if grads[minIdx] > 0.9*grads[0] {
		t.Errorf("heater barely helps: %.2f -> %.2f", grads[0], grads[minIdx])
	}
}

// TestSuperpositionMatchesDirect verifies that Basis.Evaluate agrees with a
// direct assembled solve — the correctness condition for all the fast
// sweeps.
func TestSuperpositionMatchesDirect(t *testing.T) {
	m, b := testModel(t)
	p := Powers{Chip: 20, VCSEL: 3e-3, Driver: 3e-3, Heater: 1e-3}
	direct, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	super, err := b.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.MeanONITemp()-super.MeanONITemp()) > 0.05 {
		t.Errorf("mean ONI: direct %.3f vs basis %.3f", direct.MeanONITemp(), super.MeanONITemp())
	}
	for i := range direct.ONIs {
		d := direct.ONIs[i]
		s := super.ONIs[i]
		if math.Abs(d.AvgTemp-s.AvgTemp) > 0.1 {
			t.Errorf("ONI %d avg: direct %.3f vs basis %.3f", i, d.AvgTemp, s.AvgTemp)
		}
		if math.Abs(d.Gradient-s.Gradient) > 0.1 {
			t.Errorf("ONI %d gradient: direct %.3f vs basis %.3f", i, d.Gradient, s.Gradient)
		}
	}
}

// TestDiagonalActivitySkew: the diagonal scenario must heat the hot
// quadrants' ONIs more than the cold ones and widen the inter-ONI spread.
func TestDiagonalActivitySkew(t *testing.T) {
	m, _ := testModel(t)
	resU, err := m.Solve(Powers{Chip: 24, Activity: activity.Uniform{}})
	if err != nil {
		t.Fatal(err)
	}
	resD, err := m.Solve(Powers{Chip: 24, Activity: activity.Diagonal{}})
	if err != nil {
		t.Fatal(err)
	}
	minU, maxU := resU.ONITempRange()
	minD, maxD := resD.ONITempRange()
	if (maxD - minD) <= (maxU - minU) {
		t.Errorf("diagonal spread %.2f not wider than uniform %.2f", maxD-minD, maxU-minU)
	}
	// ONI 0 is lower-left (cold quadrant), ONI 15 upper-right (cold);
	// ONI 3 lower-right (hot), ONI 12 upper-left (hot).
	d := resD.ONIs
	if !(d[3].AvgTemp > d[0].AvgTemp) || !(d[12].AvgTemp > d[15].AvgTemp) {
		t.Errorf("diagonal pattern wrong: %f %f %f %f",
			d[0].AvgTemp, d[3].AvgTemp, d[12].AvgTemp, d[15].AvgTemp)
	}
}

func TestChessboardBeatsClustered(t *testing.T) {
	fullRes(t)
	spec, err := PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = CoarseResolution()
	spec.SolverTol = 1e-7
	spec.ONIStyle = oni.Clustered
	mc, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := mc.Solve(Powers{Chip: 25, VCSEL: 4e-3, Driver: 4e-3})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := testModel(t)
	chess, err := m.Solve(Powers{Chip: 25, VCSEL: 4e-3, Driver: 4e-3})
	if err != nil {
		t.Fatal(err)
	}
	var gc, gx float64
	for i := range clustered.ONIs {
		gc += clustered.ONIs[i].Gradient
		gx += chess.ONIs[i].Gradient
	}
	// The chessboard layout exists to pre-spread VCSEL heat: its mean
	// gradient must not be worse than the clustered one.
	if gx > gc*1.02 {
		t.Errorf("chessboard gradient %.3f worse than clustered %.3f", gx/16, gc/16)
	}
}

func TestSolveRejectsBadPowers(t *testing.T) {
	m, _ := testModel(t)
	if _, err := m.Solve(Powers{Chip: -5}); err == nil {
		t.Error("negative chip power should error")
	}
	if _, err := m.Solve(Powers{VCSEL: math.Inf(1)}); err == nil {
		t.Error("infinite power should error")
	}
}

func TestBasisEvaluateRejectsBadPowers(t *testing.T) {
	_, b := testModel(t)
	if _, err := b.Evaluate(Powers{Heater: -1}); err == nil {
		t.Error("negative heater power should error")
	}
}

func TestONIReportHelpers(t *testing.T) {
	_, b := testModel(t)
	res, err := b.Evaluate(Powers{Chip: 25, VCSEL: 2e-3, Driver: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	o := res.ONIs[0]
	if o.HottestDevice == "" || o.ColdestDevice == "" {
		t.Error("extreme device names missing")
	}
	if o.Gradient < 0 {
		t.Error("negative gradient")
	}
	if math.IsNaN(o.MeanVCSELTemp()) || math.IsNaN(o.MeanMRTemp()) {
		t.Error("NaN device means")
	}
	min, max := res.ONITempRange()
	if min > max {
		t.Error("inverted ONI range")
	}
}

// TestSystemTransient: starting from the chip-only steady state and
// switching the lasers on, the ONI temperatures must rise monotonically
// toward the lasers-on steady state.
func TestSystemTransient(t *testing.T) {
	m, b := testModel(t)
	before, err := b.Evaluate(Powers{Chip: 25})
	if err != nil {
		t.Fatal(err)
	}
	after, err := b.Evaluate(Powers{Chip: 25, VCSEL: 4e-3, Driver: 4e-3})
	if err != nil {
		t.Fatal(err)
	}
	var snaps int
	prev := before.MeanONITemp()
	final, err := m.SolveTransient(
		Powers{Chip: 25, VCSEL: 4e-3, Driver: 4e-3},
		TransientSpec{
			TimeStep: 0.05,
			Steps:    8,
			Initial:  before,
			Snapshot: func(step int, tm float64, r *Result) {
				snaps++
				mean := r.MeanONITemp()
				if mean < prev-0.05 {
					t.Errorf("step %d: ONI mean fell %.3f -> %.3f", step, prev, mean)
				}
				prev = mean
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if snaps != 8 {
		t.Errorf("%d snapshots, want 8", snaps)
	}
	// The final transient state lies between the two steady states.
	if final.MeanONITemp() <= before.MeanONITemp() {
		t.Error("transient did not heat up")
	}
	if final.MeanONITemp() > after.MeanONITemp()+0.1 {
		t.Errorf("transient %.2f overshot steady %.2f", final.MeanONITemp(), after.MeanONITemp())
	}
}

func TestSystemTransientErrors(t *testing.T) {
	m, _ := testModel(t)
	if _, err := m.SolveTransient(Powers{Chip: -1}, TransientSpec{TimeStep: 1, Steps: 1}); err == nil {
		t.Error("bad powers should error")
	}
	if _, err := m.SolveTransient(Powers{Chip: 10}, TransientSpec{TimeStep: 0, Steps: 1}); err == nil {
		t.Error("zero dt should error")
	}
	bad := &Result{t: []float64{1, 2, 3}}
	if _, err := m.SolveTransient(Powers{Chip: 10}, TransientSpec{TimeStep: 1, Steps: 1, Initial: bad}); err == nil {
		t.Error("mismatched initial field should error")
	}
}
