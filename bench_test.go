package vcselnoc

// The benchmark suite doubles as the experiment harness: every table and
// figure of the paper's evaluation section has a benchmark that
// regenerates its rows/series and prints them (once) alongside the paper's
// values. Run with:
//
//	go test -bench=. -benchmem
//
// Mesh resolution for the thermal benches comes from VCSELNOC_BENCH_RES
// (coarse|fast|paper, default fast). Ablation benches always run coarse to
// keep the suite's wall-clock bounded.

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/core"
	"vcselnoc/internal/dse"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/mg"
	"vcselnoc/internal/mrr"
	"vcselnoc/internal/oni"
	"vcselnoc/internal/ornoc"
	"vcselnoc/internal/serve"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/sparse"
	"vcselnoc/internal/thermal"
	"vcselnoc/internal/units"
	"vcselnoc/internal/vcsel"
	"vcselnoc/internal/waveguide"
	"vcselnoc/internal/xbar"
)

func benchResolution() thermal.Resolution {
	switch os.Getenv("VCSELNOC_BENCH_RES") {
	case "preview":
		return thermal.PreviewResolution()
	case "coarse":
		return thermal.CoarseResolution()
	case "paper":
		return thermal.PaperResolution()
	default:
		return thermal.FastResolution()
	}
}

// benchWorkers reads the cmd/perfab sweep axis from the environment:
// VCSELNOC_WORKERS caps solver goroutines. Unset (or not a positive
// count) returns 0, GOMAXPROCS.
func benchWorkers() int {
	n, err := strconv.Atoi(os.Getenv("VCSELNOC_WORKERS"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

var (
	benchOnce sync.Once
	benchM    *core.Methodology
	benchErr  error
)

func benchMethodology(b *testing.B) *core.Methodology {
	b.Helper()
	benchOnce.Do(func() {
		spec, err := thermal.PaperSpec()
		if err != nil {
			benchErr = err
			return
		}
		spec.Res = benchResolution()
		benchM, benchErr = core.NewWithSpec(spec, snr.DefaultConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchM
}

var printOnce sync.Map

func printSeries(key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(s)
	}
}

// BenchmarkTable1Parameters echoes the technology constants of Table 1 and
// times the consistency checks that validate them.
func BenchmarkTable1Parameters(b *testing.B) {
	mr := mrr.DefaultParams()
	det := DefaultDetectorParams()
	loss := DefaultLossBudget()
	printSeries("table1", fmt.Sprintf(`
Table 1 — technological parameters (paper value in parentheses)
  wavelength range        : %g nm           (1550 nm)
  MR 3dB bandwidth        : %g nm           (1.55 nm)
  photodetector threshold : %g dBm          (-20 dBm)
  thermal sensitivity     : %g nm/°C        (0.1 nm/°C)
  propagation loss        : %g dB/cm        (0.5 dB/cm)
`, mr.ResonanceNM, mr.FWHMNM, det.SensitivityDBm, mr.DLambdaDT, loss.PropagationDBPerCM))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mr.Validate(); err != nil {
			b.Fatal(err)
		}
		if err := det.Validate(); err != nil {
			b.Fatal(err)
		}
		if err := loss.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5bMRTransmission regenerates the MR drop/through curves of
// Fig. 5-b.
func BenchmarkFig5bMRTransmission(b *testing.B) {
	ring, err := mrr.New(mrr.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	var sb []byte
	sb = append(sb, "\nFig. 5-b — MR transmission vs misalignment (50% drop at ±0.775 nm)\n  δ(nm)   drop    through\n"...)
	for _, d := range []float64{-2, -1.55, -0.775, -0.3, 0, 0.3, 0.775, 1.55, 2} {
		sb = append(sb, fmt.Sprintf("  %+5.2f   %5.3f   %5.3f\n",
			d, ring.DropFraction(1550+d, 1550), ring.ThroughFraction(1550+d, 1550))...)
	}
	printSeries("fig5b", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := -2.0; d <= 2; d += 0.01 {
			_ = ring.DropFraction(1550+d, 1550)
		}
	}
}

// BenchmarkFig8bVCSELEfficiency regenerates the wall-plug efficiency
// curves of Fig. 8-b (anchors: ~18 % peak at 10 °C, ~15 % at 40 °C, ~4 %
// at 60 °C).
func BenchmarkFig8bVCSELEfficiency(b *testing.B) {
	dev, err := vcsel.New(vcsel.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	currents := make([]float64, 60)
	for i := range currents {
		currents[i] = float64(i+1) * 0.25e-3
	}
	var sb []byte
	sb = append(sb, "\nFig. 8-b — peak wall-plug efficiency vs temperature\n  T(°C)  peak η    at I(mA)   [paper: 18% @10°C, 15% @40°C, 4% @60°C]\n"...)
	for _, temp := range []float64{10, 20, 30, 40, 50, 60, 70} {
		eff, cur, err := dev.PeakEfficiency(temp)
		if err != nil {
			b.Fatal(err)
		}
		sb = append(sb, fmt.Sprintf("  %4.0f   %5.1f%%   %5.2f\n", temp, eff*100, cur*1e3)...)
	}
	printSeries("fig8b", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, temp := range []float64{10, 30, 50, 70} {
			if _, err := dev.EfficiencyCurve(temp, currents); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig8cVCSELOutput regenerates the optical-output vs dissipated
// power curves of Fig. 8-c (sub-linear rise, thermal rollover).
func BenchmarkFig8cVCSELOutput(b *testing.B) {
	dev, err := vcsel.New(vcsel.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	currents := make([]float64, 30)
	for i := range currents {
		currents[i] = float64(i+1) * 0.5e-3
	}
	var sb []byte
	sb = append(sb, "\nFig. 8-c — OP_VCSEL vs P_VCSEL (dissipated), T = 40 °C\n  Pdiss(mW)  OP(mW)\n"...)
	diss, op, err := dev.PowerCurve(40, currents)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < len(diss); i += 4 {
		sb = append(sb, fmt.Sprintf("  %8.2f   %.3f\n", diss[i]*1e3, op[i]*1e3)...)
	}
	printSeries("fig8c", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dev.PowerCurve(40, currents); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9aAvgTemp regenerates Fig. 9-a: mean ONI temperature vs
// P_VCSEL for four chip powers (paper: ~+3.3 °C per +6.25 W chip, ~+11 °C
// per +6 mW laser).
func BenchmarkFig9aAvgTemp(b *testing.B) {
	m := benchMethodology(b)
	ex, err := m.Explorer(nil)
	if err != nil {
		b.Fatal(err)
	}
	chips := []float64{12.5, 18.75, 25, 31.25}
	lasers := []float64{0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3}
	table, err := ex.SweepAvgTemp(chips, lasers)
	if err != nil {
		b.Fatal(err)
	}
	var sb []byte
	sb = append(sb, "\nFig. 9-a — mean ONI temperature (°C) vs P_VCSEL × P_chip\n  Pchip\\Pv(mW):      0      1      2      3      4      5      6\n"...)
	for i, row := range table {
		sb = append(sb, fmt.Sprintf("  %6.2f W    ", chips[i])...)
		for _, pt := range row {
			sb = append(sb, fmt.Sprintf(" %6.2f", pt.MeanONITemp)...)
		}
		sb = append(sb, '\n')
	}
	dChip := table[3][0].MeanONITemp - table[0][0].MeanONITemp
	dLaser := table[2][6].MeanONITemp - table[2][0].MeanONITemp
	sb = append(sb, fmt.Sprintf("  chip-power response: %+.1f °C / 18.75 W (paper ~ +9.9)\n", dChip)...)
	sb = append(sb, fmt.Sprintf("  laser-power response: %+.1f °C / 6 mW   (paper ~ +11)\n", dLaser)...)
	printSeries("fig9a", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.SweepAvgTemp(chips, lasers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9bGradient regenerates Fig. 9-b: intra-ONI gradient vs
// P_heater for four laser powers; the minimum of every curve sits near
// P_heater = 0.3 × P_VCSEL.
func BenchmarkFig9bGradient(b *testing.B) {
	m := benchMethodology(b)
	ex, err := m.Explorer(nil)
	if err != nil {
		b.Fatal(err)
	}
	lasers := []float64{1e-3, 2e-3, 4e-3, 6e-3}
	heaters := make([]float64, 21)
	for i := range heaters {
		heaters[i] = float64(i) * 0.2e-3
	}
	table, err := ex.SweepGradient(25, lasers, heaters)
	if err != nil {
		b.Fatal(err)
	}
	var sb []byte
	sb = append(sb, "\nFig. 9-b — mean intra-ONI gradient (°C) vs P_heater; V-minimum per row\n"...)
	for i, row := range table {
		minIdx, err := dse.GradientCurveMinimum(row)
		if err != nil {
			b.Fatal(err)
		}
		sb = append(sb, fmt.Sprintf("  Pv=%3.0f mW: grad(0)=%5.2f  min=%5.2f at Ph=%.2f mW  ratio=%.2f (paper 0.30)\n",
			lasers[i]*1e3, row[0].MeanGradient, row[minIdx].MeanGradient,
			row[minIdx].PHeater*1e3, row[minIdx].PHeater/lasers[i])...)
	}
	printSeries("fig9b", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.SweepGradient(25, lasers, heaters); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10HeaterComparison regenerates Fig. 10: average and gradient
// temperatures with and without the MR heater at P_heater = 0.3 P_VCSEL.
func BenchmarkFig10HeaterComparison(b *testing.B) {
	m := benchMethodology(b)
	ex, err := m.Explorer(nil)
	if err != nil {
		b.Fatal(err)
	}
	lasers := []float64{1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3}
	rows, err := ex.HeaterComparison(25, lasers, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	var sb []byte
	sb = append(sb, "\nFig. 10 — heater off vs on (ratio 0.3); paper: grad 1.0→0.3 °C @1 mW, 5.8→1.3 °C @6 mW, avg cost ≤0.8 °C\n  Pv(mW)  grad w/o  grad w/   avg w/o   avg w/\n"...)
	for _, r := range rows {
		sb = append(sb, fmt.Sprintf("  %5.0f   %7.2f   %6.2f   %7.2f   %6.2f\n",
			r.PVCSEL*1e3, r.GradientWithout, r.GradientWith, r.AvgTempWithout, r.AvgTempWith)...)
	}
	printSeries("fig10", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.HeaterComparison(25, lasers, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12SNR regenerates Fig. 12: worst-case SNR plus signal and
// crosstalk powers for the three placements under uniform, diagonal and
// random activities (paper SNRs — U: 38/25/13, D: 19/13/10, R: 20/17/12 dB).
func BenchmarkFig12SNR(b *testing.B) {
	m := benchMethodology(b)
	acts := []activity.Scenario{
		activity.Uniform{},
		activity.Diagonal{},
		activity.Random{Seed: 7, Min: 0.5, Max: 1.5},
	}
	cases := []ornoc.CaseStudy{ornoc.Case18mm, ornoc.Case32mm, ornoc.Case47mm}
	run := func(act activity.Scenario, cs ornoc.CaseStudy) (*core.SNRResult, error) {
		return m.SNRAnalysis(core.SNRScenario{
			Case: cs, Activity: act, ChipPower: 24,
			PVCSEL: 3.6e-3, PHeater: 1.08e-3, Pattern: core.Neighbour,
		})
	}
	var sb []byte
	sb = append(sb, "\nFig. 12 — worst-case SNR per placement and activity (Pv=3.6 mW, Ph=1.08 mW)\n"...)
	for _, act := range acts {
		sb = append(sb, fmt.Sprintf("  %-8s:", act.Name())...)
		for _, cs := range cases {
			r, err := run(act, cs)
			if err != nil {
				b.Fatal(err)
			}
			sb = append(sb, fmt.Sprintf("  %5.1fmm %6.1f dB (sig %.3f mW, xt %.4f mW, ΔT %.2f °C)",
				r.RingLengthM*1e3, r.Report.WorstSNRdB,
				r.Report.MeanSignalW*1e3, r.Report.MeanCrosstalkW*1e3,
				r.NodeTempMax-r.NodeTempMin)...)
		}
		sb = append(sb, '\n')
	}
	sb = append(sb, "  paper   :  uniform 38/25/13 dB, diagonal 19/13/10 dB, random 20/17/12 dB\n"...)
	printSeries("fig12", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(acts[1], ornoc.Case47mm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossbarLosses regenerates the related-work loss comparison
// (ref [20]): ORNoC vs Matrix, λ-router and Snake at 4×4 scale (paper:
// ~42.5 % worst-case and ~38 % average reduction).
func BenchmarkCrossbarLosses(b *testing.B) {
	budget := waveguide.DefaultLossBudget()
	cmp, err := xbar.Compare(16, 2e-3, budget)
	if err != nil {
		b.Fatal(err)
	}
	var sb []byte
	sb = append(sb, "\nRef [20] — insertion loss at 16 interfaces (4×4)\n  topology        worst(dB)  avg(dB)\n"...)
	for _, topo := range xbar.AllTopologies() {
		a := cmp.Results[topo]
		sb = append(sb, fmt.Sprintf("  %-14s  %8.2f  %7.2f\n", topo, a.WorstLossDB, a.AverageLossDB)...)
	}
	sb = append(sb, fmt.Sprintf("  ORNoC saving: worst %.1f%% (paper 42.5%%), average %.1f%% (paper 38%%)\n",
		cmp.WorstSaving*100, cmp.AverageSaving*100)...)
	printSeries("xbar", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xbar.Compare(16, 2e-3, budget); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (always coarse resolution) ---

func coarseModel(b *testing.B, style oni.Style) *thermal.Model {
	b.Helper()
	spec, err := thermal.PaperSpec()
	if err != nil {
		b.Fatal(err)
	}
	spec.Res = thermal.CoarseResolution()
	spec.SolverTol = 1e-7
	spec.ONIStyle = style
	m, err := thermal.NewModel(spec)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblationChessboard compares the paper's chessboard ONI layout
// against a clustered TX/RX layout — the design choice motivated in
// Section III-B.
func BenchmarkAblationChessboard(b *testing.B) {
	p := thermal.Powers{Chip: 25, VCSEL: 4e-3, Driver: 4e-3}
	chess := coarseModel(b, oni.Chessboard)
	clustered := coarseModel(b, oni.Clustered)
	rc, err := chess.Solve(p)
	if err != nil {
		b.Fatal(err)
	}
	rl, err := clustered.Solve(p)
	if err != nil {
		b.Fatal(err)
	}
	meanGrad := func(r *thermal.Result) float64 {
		var s float64
		for _, o := range r.ONIs {
			s += o.Gradient
		}
		return s / float64(len(r.ONIs))
	}
	printSeries("ablation-chessboard", fmt.Sprintf(`
Ablation — ONI device placement at Pv=4 mW (coarse mesh)
  chessboard: mean gradient %.2f °C, max %.2f °C
  clustered : mean gradient %.2f °C, max %.2f °C
`, meanGrad(rc), rc.MaxONIGradient(), meanGrad(rl), rl.MaxONIGradient()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chess.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSuperposition verifies and times the superposition
// shortcut against a direct assembled solve.
func BenchmarkAblationSuperposition(b *testing.B) {
	m := coarseModel(b, oni.Chessboard)
	basis, err := m.BuildBasis(nil)
	if err != nil {
		b.Fatal(err)
	}
	p := thermal.Powers{Chip: 25, VCSEL: 3e-3, Driver: 3e-3, Heater: 0.9e-3}
	direct, err := m.Solve(p)
	if err != nil {
		b.Fatal(err)
	}
	super, err := basis.Evaluate(p)
	if err != nil {
		b.Fatal(err)
	}
	printSeries("ablation-superposition", fmt.Sprintf(`
Ablation — superposition vs direct solve (coarse mesh)
  direct mean ONI: %.3f °C, basis mean ONI: %.3f °C (|Δ| = %.2e °C)
`, direct.MeanONITemp(), super.MeanONITemp(),
		math.Abs(direct.MeanONITemp()-super.MeanONITemp())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := basis.Evaluate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHeaterRatio probes the sensitivity of the 0.3 optimum
// to the heater footprint assumption.
func BenchmarkAblationHeaterRatio(b *testing.B) {
	var sb []byte
	sb = append(sb, "\nAblation — optimal heater ratio vs heater footprint scale (coarse mesh)\n"...)
	var explorers []*dse.Explorer
	for _, scale := range []float64{1.5, 2.5, 3.5} {
		spec, err := thermal.PaperSpec()
		if err != nil {
			b.Fatal(err)
		}
		spec.Res = thermal.CoarseResolution()
		spec.SolverTol = 1e-7
		spec.HeaterFootprintScale = scale
		m, err := thermal.NewModel(spec)
		if err != nil {
			b.Fatal(err)
		}
		basis, err := m.BuildBasis(nil)
		if err != nil {
			b.Fatal(err)
		}
		ex, err := dse.NewExplorer(basis)
		if err != nil {
			b.Fatal(err)
		}
		explorers = append(explorers, ex)
		opt, err := ex.OptimalHeater(25, 4e-3, 4e-3)
		if err != nil {
			b.Fatal(err)
		}
		sb = append(sb, fmt.Sprintf("  footprint ×%.1f: optimal ratio %.2f (gradient %.2f → %.2f °C)\n",
			scale, opt.Ratio, opt.GradientNoHeater, opt.MeanGradient)...)
	}
	printSeries("ablation-ratio", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explorers[i%len(explorers)].OptimalHeater(25, 4e-3, 4e-3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMeshResolution quantifies the mesh-dependence of the
// headline quantities (gradient, mean ONI temperature).
func BenchmarkAblationMeshResolution(b *testing.B) {
	p := thermal.Powers{Chip: 25, VCSEL: 4e-3, Driver: 4e-3}
	var sb []byte
	sb = append(sb, "\nAblation — mesh resolution (Pv=4 mW, no heater)\n"...)
	resolutions := []struct {
		name string
		res  thermal.Resolution
	}{
		{"coarse-20um", thermal.CoarseResolution()},
		{"fast-10um", thermal.FastResolution()},
	}
	var solveModel *thermal.Model
	for _, rc := range resolutions {
		spec, err := thermal.PaperSpec()
		if err != nil {
			b.Fatal(err)
		}
		spec.Res = rc.res
		spec.SolverTol = 1e-7
		m, err := thermal.NewModel(spec)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, o := range res.ONIs {
			mean += o.Gradient
		}
		mean /= float64(len(res.ONIs))
		sb = append(sb, fmt.Sprintf("  %-12s %8d cells: mean ONI %.2f °C, mean gradient %.2f °C\n",
			rc.name, m.NumCells(), res.MeanONITemp(), mean)...)
		if rc.name == "coarse-20um" {
			solveModel = m
		}
	}
	printSeries("ablation-mesh", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveModel.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSNREvaluation times the analytical SNR model alone on the
// largest ring (useful for scaling studies).
func BenchmarkSNREvaluation(b *testing.B) {
	m := benchMethodology(b)
	ring, err := ornoc.BuildCase(m.Spec().Floorplan, ornoc.Case47mm)
	if err != nil {
		b.Fatal(err)
	}
	comms := ornoc.NeighbourPattern(ring.N())
	if _, err := ring.AssignChannels(comms); err != nil {
		b.Fatal(err)
	}
	temps := make([]float64, ring.N())
	for i := range temps {
		temps[i] = 52 + float64(i%4)
	}
	cfg := snr.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snr.Evaluate(cfg, snr.Input{Ring: ring, Comms: comms, NodeTemps: temps}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalDirectSolve times one full assembled solve at the bench
// resolution — the unit of cost the superposition basis amortises.
func BenchmarkThermalDirectSolve(b *testing.B) {
	m := benchMethodology(b)
	p := thermal.Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Model().Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBasisEvaluate times one full superposition evaluation: every
// per-ONI report, as SNR analysis, maps and the facade read it.
func BenchmarkBasisEvaluate(b *testing.B) {
	m := benchMethodology(b)
	basis, err := m.BasisFor(nil)
	if err != nil {
		b.Fatal(err)
	}
	p := thermal.Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := basis.Evaluate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBasisSummary times one design query's answer (the path every
// dse sweep and search and vcseld's gradient query take): the same
// operating point as BenchmarkBasisEvaluate, no allocation.
func BenchmarkBasisSummary(b *testing.B) {
	m := benchMethodology(b)
	basis, err := m.BasisFor(nil)
	if err != nil {
		b.Fatal(err)
	}
	p := thermal.Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := basis.Summary(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverBackends times one mg-cg steady solve of the bench
// model's FVM system at the paper's operating point. The V-cycle makes
// the iteration count mesh-independent: compare the iters/solve metric
// across VCSELNOC_BENCH_RES=preview|fast|paper runs. The mg-cg sub-bench
// keeps the name CI's perfab sweep and the baseline file use; on a fresh
// process its first solve also builds the hierarchy and factors the
// coarsest level, which dominate a -benchtime 1x run. mg-cg-warm solves
// once untimed, so it times only warm solves: the V-cycles a basis
// rebuild on the cached hierarchy pays.
func BenchmarkSolverBackends(b *testing.B) {
	m := benchMethodology(b).Model()
	power, err := m.PowerVector(thermal.Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3})
	if err != nil {
		b.Fatal(err)
	}
	opts := fvm.SolveOptions{Tolerance: 1e-8, Workers: benchWorkers()}
	solves := func(b *testing.B) {
		var iters int
		before := m.System().PhaseStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol, err := m.System().SolveSteady(power, opts)
			if err != nil {
				b.Fatal(err)
			}
			iters = sol.Stats.Iterations
		}
		b.ReportMetric(float64(iters), "iters/solve")
		// Break the solve down into V-cycle phase time fractions
		// (fraction of total benchmark wall-clock spent smoothing,
		// restricting — residualfrac its residuals' share —,
		// prolongating and coarse-solving) — machine-dependent, so
		// benchguard reports them without gating.
		if b.Elapsed() > 0 {
			ph := m.System().PhaseStats().Sub(before)
			total := b.Elapsed().Seconds()
			b.ReportMetric(ph.Smooth.Seconds()/total, "smoothfrac")
			b.ReportMetric(ph.Restrict.Seconds()/total, "restrictfrac")
			b.ReportMetric(ph.Residual.Seconds()/total, "residualfrac")
			b.ReportMetric(ph.Prolong.Seconds()/total, "prolongfrac")
			b.ReportMetric(ph.Coarse.Seconds()/total, "coarsefrac")
		}
	}
	b.Run(fvm.SolverName, solves)
	b.Run(fvm.SolverName+"-warm", func(b *testing.B) {
		if _, err := m.System().SolveSteady(power, opts); err != nil {
			b.Fatal(err)
		}
		solves(b)
	})
}

// BenchmarkCoarseSolve isolates the coarsest-level direct solve the
// V-cycle leans on, splitting the one-off cost from the recurring one:
// "factor" is the sparse-Cholesky setup (symbolic analysis plus numeric
// factorisation under the fill-reducing nested-dissection ordering, on
// the VCSELNOC_WORKERS goroutine cap) paid once per hierarchy, "solve"
// the permuted triangular solve every V-cycle buys with it, on as many
// goroutines as the V-cycle gives it. Read them against the coarsefrac
// metric of BenchmarkSolverBackends/mg-cg: factor amortises across the
// whole basis build, solve is the term that replaced the coarse-grid PCG
// iterations.
func BenchmarkCoarseSolve(b *testing.B) {
	m := benchMethodology(b).Model()
	h, err := m.System().Hierarchy()
	if err != nil {
		b.Fatal(err)
	}
	a := h.CoarseOperator()
	perm := h.CoarseOrdering()
	workers := benchWorkers()
	factor := func(b *testing.B) *sparse.SparseCholesky {
		an, err := sparse.AnalyzeCholesky(a, perm, 0)
		if err != nil {
			b.Fatal(err)
		}
		c, err := an.Factor(a, workers)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	b.Run("factor", func(b *testing.B) {
		var nnz int
		for i := 0; i < b.N; i++ {
			nnz = factor(b).Nnz()
		}
		b.ReportMetric(float64(a.N()), "cells")
		b.ReportMetric(float64(nnz), "entries")
	})
	b.Run("solve", func(b *testing.B) {
		c := factor(b)
		scratch := sparse.NewCholeskyScratch[float64](c, sparse.MulVecWorkers(a.N(), workers))
		rhs := make([]float64, a.N())
		for i := range rhs {
			rhs[i] = 1 + float64(i%7)
		}
		x := make([]float64, a.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(x, rhs)
			sparse.CholeskySolve(c, c.Values(), x, scratch)
		}
	})
}

// BenchmarkBuildBasis contrasts the seed's basis-construction path (a
// fresh operator assembly, and so a fresh hierarchy, inside every one of
// the four unit solves) against the cached one (one assembly and
// hierarchy, the four unit solves running concurrently on it), and times
// a non-uniform rebuild, which solves only its chip field.
func BenchmarkBuildBasis(b *testing.B) {
	m := benchMethodology(b).Model()
	units := []thermal.Powers{
		{Chip: 1},
		{VCSEL: 0.5e-3},
		{Driver: 0.5e-3},
		{Heater: 0.5e-3},
	}
	b.Run("seed-reassemble", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range units {
				prob, err := m.Problem(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fvm.SolveSteady(prob, fvm.SolveOptions{Tolerance: 1e-8}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cached-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.BuildBasis(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A warm model caches its uniform basis, whose VCSEL, driver and
	// heater fields every other basis copies, so a diagonal basis is one
	// chip-field solve.
	b.Run("activity", func(b *testing.B) {
		if _, err := m.Basis(nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var iters int
		for i := 0; i < b.N; i++ {
			basis, err := m.BuildBasis(activity.Diagonal{})
			if err != nil {
				b.Fatal(err)
			}
			iters = basis.BuildStats().Iterations
		}
		b.ReportMetric(float64(iters), "iters/solve")
	})
	batch := make([][]float64, len(units))
	for i, p := range units {
		power, err := m.PowerVector(p)
		if err != nil {
			b.Fatal(err)
		}
		batch[i] = power
	}
	// The headline path: the four unit right-hand sides solve
	// concurrently, one mg-cg solve each, all on the system's cached
	// hierarchy. iters/solve is the largest column's count.
	b.Run("cached-block-mg", func(b *testing.B) {
		opts := fvm.SolveOptions{Tolerance: 1e-8}
		var iters int
		for i := 0; i < b.N; i++ {
			sols, err := m.System().SolveSteadyBlock(batch, opts)
			if err != nil {
				b.Fatal(err)
			}
			iters = 0
			for _, sol := range sols {
				iters = max(iters, sol.Stats.Iterations)
			}
		}
		b.ReportMetric(float64(iters), "iters/solve")
	})
}

// BenchmarkTransientSteps times one warm implicit-Euler transient step
// per iteration against the cached per-dt transient operator,
// preconditioned by mg-cg's shifted V-cycle (derived from the system's
// steady hierarchy — only the Galerkin diagonals rebuilt for the C/dt
// bump). The iters/step metric is the machine-independent signal: it
// stays in the steady solves' low single digits at every resolution.
func BenchmarkTransientSteps(b *testing.B) {
	m := benchMethodology(b).Model()
	power, err := m.PowerVector(thermal.Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fvm.SolverName, func(b *testing.B) {
		// Set-up stays outside the timer: stepper construction (with the
		// shifted-hierarchy derivation) and one untimed step, which
		// builds the shifted hierarchy's coarse factor and the V-cycle
		// workspace. The steady state measured is the per-step cost of
		// a long run.
		st, err := m.System().NewTransientStepper(power, fvm.TransientOptions{
			TimeStep: 1e-3, InitialUniform: 25, Tolerance: 1e-8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Step(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var iters int
		for i := 0; i < b.N; i++ {
			stats, err := st.Step()
			if err != nil {
				b.Fatal(err)
			}
			iters = stats.Iterations
		}
		b.ReportMetric(float64(iters), "iters/step")
	})
}

// BenchmarkHierarchyBuild times one cold multigrid hierarchy of the
// bench model's operator: the Galerkin products (galerkinfrac, their
// share of the last build), the line smoothers' factorisations and the
// coarsest level's symbolic analysis, which every new floorplan, package
// or mesh pays before its coarse factor and first basis. It builds with
// the VCSELNOC_WORKERS goroutine cap (GOMAXPROCS when unset, as fvm
// builds its hierarchy), so a perfab -workers sweep shows how the cold
// path scales. The operator is assembled once, before
// the timer starts; every iteration builds a fresh hierarchy of it. It
// comes after the other solver benches so the hierarchies it drops do
// not land in their timings.
func BenchmarkHierarchyBuild(b *testing.B) {
	m := benchMethodology(b).Model()
	g := m.Grid()
	hint := sparse.GridHint{X: g.X, Y: g.Y, Z: g.Z}
	opts := mg.Options{Workers: benchWorkers()}
	var h *mg.Hierarchy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if h, err = mg.BuildHierarchy(m.System().Matrix(), hint, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(h.Depth()), "levels")
	b.ReportMetric(float64(h.CoarseOperator().N()), "coarsecells")
	ph := h.PhaseStats()
	b.ReportMetric(ph.Galerkin.Seconds()/ph.Hierarchy.Seconds(), "galerkinfrac")
}

// BenchmarkVCSELOperate times the laser self-heating fixed point.
func BenchmarkVCSELOperate(b *testing.B) {
	dev, err := vcsel.New(vcsel.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Operate(4e-3, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBConversions times the hot-path dB helpers.
func BenchmarkDBConversions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = units.FromDB(units.DB(0.5))
	}
}

// BenchmarkServeGradientQueries measures the warm thermal-analysis
// service's query throughput: concurrent /v1/gradient requests against a
// prebuilt basis, each evaluated inline on its request's goroutine with
// its spans recorded. Every request uses a fresh operating point on the
// same warm basis; ns/op is the per-query cost under concurrency —
// invert for queries/sec.
func BenchmarkServeGradientQueries(b *testing.B) {
	spec, err := thermal.PaperSpec()
	if err != nil {
		b.Fatal(err)
	}
	spec.Res = benchResolution()
	srv, err := serve.New(serve.Config{Spec: spec})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	if err := srv.Warm(); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// A fresh laser power per query on the same warm basis.
			pv := 1e-3 + float64(seq.Add(1))*1e-9
			body := fmt.Sprintf(`{"chip": 25, "pvcsel": %g, "pheater": 1e-3}`, pv)
			req := httptest.NewRequest(http.MethodPost, "/v1/gradient", strings.NewReader(body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
			}
		}
	})
}
