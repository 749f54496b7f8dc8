package core

import (
	"math"
	"sync"
	"testing"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/ornoc"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/thermal"
)

var (
	once      sync.Once
	shared    *Methodology
	sharedErr error
)

// fullRes skips tests whose assertions are calibrated against the coarse
// (20 µm) mesh and are not meaningful on the -short preview mesh.
func fullRes(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("quantitative SNR/gradient bands need the full coarse mesh; skipped under -short")
	}
}

func methodology(t *testing.T) *Methodology {
	t.Helper()
	once.Do(func() {
		spec, err := thermal.PaperSpec()
		if err != nil {
			sharedErr = err
			return
		}
		spec.Res = thermal.CoarseResolution()
		if testing.Short() {
			spec.Res = thermal.PreviewResolution()
		}
		spec.SolverTol = 1e-7
		shared, sharedErr = NewWithSpec(spec, snr.DefaultConfig())
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return shared
}

func TestNewWithBadConfig(t *testing.T) {
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := snr.DefaultConfig()
	cfg.CouplingEfficiency = 0
	if _, err := NewWithSpec(spec, cfg); err == nil {
		t.Error("invalid SNR config should error")
	}
	bad := spec
	bad.Floorplan = nil
	if _, err := NewWithSpec(bad, snr.DefaultConfig()); err == nil {
		t.Error("invalid spec should error")
	}
}

func TestAccessors(t *testing.T) {
	m := methodology(t)
	if m.Model() == nil {
		t.Error("nil model")
	}
	if m.Spec().Floorplan == nil {
		t.Error("spec floorplan missing")
	}
	if m.SNRConfig().BaseLambdaNM != 1550 {
		t.Error("snr config wrong")
	}
}

func TestBasisCaching(t *testing.T) {
	m := methodology(t)
	b1, err := m.BasisFor(activity.Uniform{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m.BasisFor(nil) // nil means uniform
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("uniform basis not cached/shared")
	}
}

func TestThermalAnalysisUsesBasis(t *testing.T) {
	m := methodology(t)
	if _, err := m.BasisFor(activity.Uniform{}); err != nil {
		t.Fatal(err)
	}
	res, err := m.ThermalAnalysis(thermal.Powers{Chip: 25, VCSEL: 2e-3, Driver: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ONIs) != 16 {
		t.Fatalf("%d ONIs", len(res.ONIs))
	}
	if res.MeanONITemp() < 30 {
		t.Errorf("mean ONI temp %.1f suspiciously low", res.MeanONITemp())
	}
}

func TestSNRScenarioValidation(t *testing.T) {
	good := SNRScenario{Case: ornoc.Case18mm, ChipPower: 24, PVCSEL: 3.6e-3, PHeater: 1.08e-3, Pattern: Neighbour}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.ChipPower = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative chip power should fail")
	}
	bad = good
	bad.Pattern = CommPattern(9)
	if err := bad.Validate(); err == nil {
		t.Error("unknown pattern should fail")
	}
}

func TestCommPatternString(t *testing.T) {
	if Neighbour.String() != "neighbour" || Paired.String() != "paired" {
		t.Error("pattern strings wrong")
	}
	if CommPattern(9).String() == "" {
		t.Error("unknown pattern should stringify")
	}
}

// TestFig12Structure reproduces the qualitative structure of Fig. 12:
// SNR decreases with ring length, and the diagonal activity yields a lower
// SNR than uniform at the longest case.
func TestFig12Structure(t *testing.T) {
	fullRes(t)
	m := methodology(t)
	run := func(cs ornoc.CaseStudy, act activity.Scenario) *SNRResult {
		t.Helper()
		r, err := m.SNRAnalysis(SNRScenario{
			Case: cs, Activity: act, ChipPower: 24,
			PVCSEL: 3.6e-3, PHeater: 1.08e-3, Pattern: Neighbour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var prevSNR = math.Inf(1)
	var prevSpread = -1.0
	for _, cs := range []ornoc.CaseStudy{ornoc.Case18mm, ornoc.Case32mm, ornoc.Case47mm} {
		r := run(cs, activity.Uniform{})
		if r.Report.WorstSNRdB >= prevSNR {
			t.Errorf("%v: uniform SNR %.1f dB not decreasing", cs, r.Report.WorstSNRdB)
		}
		prevSNR = r.Report.WorstSNRdB
		spread := r.NodeTempMax - r.NodeTempMin
		if spread < prevSpread {
			t.Errorf("%v: ONI spread %.2f shrank", cs, spread)
		}
		prevSpread = spread
		if !r.Report.AllDetected {
			t.Errorf("%v: signals below detector floor", cs)
		}
		if r.Report.MeanSignalW < 0.05e-3 || r.Report.MeanSignalW > 1e-3 {
			t.Errorf("%v: mean signal %.3g W outside the paper's range", cs, r.Report.MeanSignalW)
		}
	}
	// Diagonal worse than uniform on the long ring.
	u := run(ornoc.Case47mm, activity.Uniform{})
	d := run(ornoc.Case47mm, activity.Diagonal{})
	if d.Report.WorstSNRdB >= u.Report.WorstSNRdB {
		t.Errorf("diagonal SNR %.1f not below uniform %.1f",
			d.Report.WorstSNRdB, u.Report.WorstSNRdB)
	}
	// Diagonal widens the inter-ONI spread.
	if (d.NodeTempMax - d.NodeTempMin) <= (u.NodeTempMax - u.NodeTempMin) {
		t.Error("diagonal should widen the ONI temperature spread")
	}
}

func TestSNRAnalysisErrors(t *testing.T) {
	m := methodology(t)
	if _, err := m.SNRAnalysis(SNRScenario{Case: ornoc.Case18mm, ChipPower: -1, Pattern: Neighbour}); err == nil {
		t.Error("invalid scenario should error")
	}
	if _, err := m.SNRAnalysis(SNRScenario{Case: ornoc.CaseStudy(9), ChipPower: 24, Pattern: Neighbour}); err == nil {
		t.Error("unknown case should error")
	}
}

// TestEvaluateDesign exercises the design tension at the heart of the
// paper: a too-small modulation current leaves the lasers dark (thermally
// fine, optically dead), while a large current without enough heater power
// violates the 1 °C gradient constraint (optically fine, thermally
// infeasible).
func TestEvaluateDesign(t *testing.T) {
	fullRes(t)
	m := methodology(t)
	// Sub-threshold laser: feasible but no light.
	low, err := m.EvaluateDesign(SNRScenario{
		Case: ornoc.Case32mm, Activity: activity.Uniform{}, ChipPower: 24,
		PVCSEL: 0.5e-3, PHeater: 0.15e-3, Pattern: Neighbour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !low.Feasibility.Feasible {
		t.Errorf("0.5 mW should satisfy the gradient constraint (max %.2f)",
			low.Feasibility.MaxGradient)
	}
	if low.SNR.Report.AllDetected {
		t.Error("sub-threshold lasers should not clear the detector floor")
	}
	if low.Reliable {
		t.Error("dark design must not be reliable")
	}
	// ONoC power accounting: 16 ONIs × (16 lasers × 2×P_VCSEL + 16 heaters × P_heater).
	want := 16 * (16*(0.5e-3+0.5e-3) + 16*0.15e-3)
	if math.Abs(low.ONoCPower-want) > 1e-12 {
		t.Errorf("ONoC power %.4f W, want %.4f", low.ONoCPower, want)
	}

	// Strong laser without heater: good SNR, infeasible gradient.
	high, err := m.EvaluateDesign(SNRScenario{
		Case: ornoc.Case32mm, Activity: activity.Uniform{}, ChipPower: 24,
		PVCSEL: 6e-3, PHeater: 0, Pattern: Neighbour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if high.Feasibility.Feasible {
		t.Error("6 mW without heater should violate the gradient constraint")
	}
	if !high.SNR.Report.AllDetected {
		t.Error("6 mW lasers should be detected")
	}
	if high.Reliable {
		t.Error("gradient-infeasible design must not be reliable")
	}
	// Verdict consistency.
	for _, ev := range []*DesignEvaluation{low, high} {
		wantReliable := ev.Feasibility.Feasible && ev.SNR.Report.AllDetected && ev.SNR.Report.WorstSNRdB > 0
		if ev.Reliable != wantReliable {
			t.Errorf("verdict inconsistent: %v vs %v", ev.Reliable, wantReliable)
		}
	}
}

func TestOptimalHeaterRatio(t *testing.T) {
	fullRes(t)
	m := methodology(t)
	opt, err := m.OptimalHeaterRatio(activity.Uniform{}, 25, 4e-3)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Ratio <= 0 || opt.Ratio >= 1 {
		t.Errorf("ratio %.2f outside (0, 1)", opt.Ratio)
	}
	if opt.MeanGradient >= opt.GradientNoHeater {
		t.Error("optimal heater should reduce the gradient")
	}
}
