package vcselnoc

import (
	"math"
	"sync"
	"testing"
)

// The public-API tests share one coarse methodology.
var (
	apiOnce sync.Once
	apiM    *Methodology
	apiErr  error
)

func apiMethodology(t *testing.T) *Methodology {
	t.Helper()
	apiOnce.Do(func() {
		spec, err := PaperSpec()
		if err != nil {
			apiErr = err
			return
		}
		spec.Res = CoarseResolution()
		spec.SolverTol = 1e-7
		apiM, apiErr = NewWithSpec(spec, DefaultSNRConfig())
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiM
}

func TestPublicDeviceModels(t *testing.T) {
	laser, err := NewVCSEL(DefaultVCSELParams())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := laser.Operate(4e-3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Efficiency <= 0.05 || pt.Efficiency > 0.25 {
		t.Errorf("η(4mA, 40°C) = %.1f%%", pt.Efficiency*100)
	}

	ring, err := NewMR(DefaultMRParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := ring.DropFraction(1550.775, 1550); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("drop at half-FWHM = %g", got)
	}

	det, err := NewDetector(DefaultDetectorParams())
	if err != nil {
		t.Fatal(err)
	}
	if !det.Detects(1e-3) || det.Detects(1e-6) {
		t.Error("detector thresholds wrong")
	}

	if err := DefaultLossBudget().Validate(); err != nil {
		t.Error(err)
	}
}

func TestPublicArchitecture(t *testing.T) {
	fp, err := NewSCCFloorplan()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Tiles) != 24 || len(fp.ONISites) != 16 {
		t.Fatalf("floorplan: %d tiles, %d ONI sites", len(fp.Tiles), len(fp.ONISites))
	}
	st, err := DefaultPackageStack()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalThickness() <= 0 {
		t.Error("stack has no thickness")
	}
	hs := DefaultHeatSink()
	if err := hs.Validate(); err != nil {
		t.Error(err)
	}
	layout, err := GenerateONI(NewONISite(0, 0, 360e-6, 200e-6), Chessboard)
	if err != nil {
		t.Fatal(err)
	}
	if err := layout.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPublicActivities(t *testing.T) {
	for _, name := range []string{"uniform", "diagonal", "random", "hotspot", "checkerboard"} {
		s, err := ActivityByName(name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, err := s.Weights(6, 4)
		if err != nil || len(w) != 24 {
			t.Errorf("%s weights: %v", name, err)
		}
	}
	if _, err := ActivityByName("nope", 0); err == nil {
		t.Error("unknown activity should error")
	}
}

func TestPublicRings(t *testing.T) {
	fp, err := NewSCCFloorplan()
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range []CaseStudy{Case18mm, Case32mm, Case47mm} {
		r, err := BuildCase(fp, cs)
		if err != nil {
			t.Fatalf("%v: %v", cs, err)
		}
		if r.Length() <= 0 {
			t.Errorf("%v: non-positive length", cs)
		}
	}
	custom, err := NewRing([]RingNode{
		{SiteIndex: 0, X: 0, Y: 0},
		{SiteIndex: 1, X: 1e-3, Y: 0},
		{SiteIndex: 2, X: 1e-3, Y: 1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if custom.N() != 3 {
		t.Error("custom ring size wrong")
	}
}

func TestPublicXbars(t *testing.T) {
	cmp, err := CompareXbars(8, 2e-3, DefaultLossBudget())
	if err != nil {
		t.Fatal(err)
	}
	orn := cmp.Results[TopoORNoC]
	for _, topo := range []XbarTopology{TopoMatrix, TopoLambdaRouter, TopoSnake} {
		if orn.WorstLossDB >= cmp.Results[topo].WorstLossDB {
			t.Errorf("ORNoC not better than %v", topo)
		}
	}
	if _, err := AnalyzeXbar(XbarDesign{Topology: TopoSnake, N: 4, Pitch: 1e-3, Budget: DefaultLossBudget()}); err != nil {
		t.Error(err)
	}
}

func TestPublicMeshAndFVM(t *testing.T) {
	// Build a tiny custom structure through the public API and solve it.
	xb := NewMeshAxisBuilder(0, 1e-3, 0.25e-3)
	xs, err := xb.Build()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewMeshGrid(xs, []float64{0, 0.5e-3, 1e-3}, []float64{0, 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	n := grid.NumCells()
	cond := make([]float64, n)
	power := make([]float64, n)
	for i := range cond {
		cond[i] = 100
	}
	power[0] = 0.1
	sol, err := SolveSteady(&FVMProblem{
		Grid:         grid,
		Conductivity: cond,
		Power:        power,
		ZMax:         FVMBoundary{Type: Convection, H: 1e4, Value: 25},
	}, FVMSolveOptions{Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	st := sol.GlobalStats()
	if st.Min < 25 || st.Max <= st.Min {
		t.Errorf("field out of range: [%g, %g]", st.Min, st.Max)
	}
	if e := sol.EnergyBalanceError(); e > 1e-6 {
		t.Errorf("energy imbalance %g", e)
	}
}

// TestNonFiniteSolverTolerance: an infinite tolerance would accept the
// zero initial guess as every solve's answer, and a NaN one is never met,
// so the methodology refuses either SolverTol up front and the raw
// solves refuse either before iterating.
func TestNonFiniteSolverTolerance(t *testing.T) {
	for _, tol := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewWithOptions(Options{Res: CoarseResolution(), SolverTol: tol}); err == nil {
			t.Errorf("NewWithOptions accepted solver tolerance %g", tol)
		}
	}
	grid, err := NewMeshGrid([]float64{0, 0.5e-3, 1e-3}, []float64{0, 0.5e-3, 1e-3}, []float64{0, 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	n := grid.NumCells()
	cond, power, heatCap := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range cond {
		cond[i], heatCap[i] = 100, 1.6e6
	}
	power[0] = 0.1
	p := &FVMProblem{
		Grid:         grid,
		Conductivity: cond,
		Power:        power,
		HeatCapacity: heatCap,
		ZMax:         FVMBoundary{Type: Convection, H: 1e4, Value: 25},
	}
	for _, tol := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := SolveSteady(p, FVMSolveOptions{Tolerance: tol}); err == nil {
			t.Errorf("SolveSteady accepted tolerance %g", tol)
		}
		if _, err := SolveTransient(p, FVMTransientOptions{TimeStep: 1e-3, Steps: 1, InitialUniform: 25, Tolerance: tol}); err == nil {
			t.Errorf("SolveTransient accepted tolerance %g", tol)
		}
	}
}

func TestPublicMethodologyFlow(t *testing.T) {
	m := apiMethodology(t)
	res, err := m.ThermalAnalysis(Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ONIs) != 16 {
		t.Fatalf("%d ONIs", len(res.ONIs))
	}
	lm, err := res.OpticalLayerSlice()
	if err != nil {
		t.Fatal(err)
	}
	if lm.Max <= lm.Min {
		t.Error("layer map degenerate")
	}
	ev, err := m.EvaluateDesign(SNRScenario{
		Case: Case32mm, ChipPower: 24, PVCSEL: 3.6e-3, PHeater: 1.08e-3, Pattern: Neighbour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.SNR.Report.WorstSNRdB < 5 {
		t.Errorf("worst SNR %.1f dB suspiciously low", ev.SNR.Report.WorstSNRdB)
	}
	if ev.ONoCPower <= 0 {
		t.Error("ONoC power not accounted")
	}
}

func TestGradientLimitConstant(t *testing.T) {
	if GradientLimit != 1.0 {
		t.Errorf("gradient limit %g, want the paper's 1 °C", GradientLimit)
	}
}
