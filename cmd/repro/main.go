// Command repro regenerates every table and figure of the paper's
// evaluation section in one run and prints paper-vs-measured values.
//
// Usage:
//
//	repro [-res coarse|fast|paper] [-experiment all|fig8|fig9a|fig9b|fig10|fig12|xbar|table1|transient]
//	      [-workers 0] [-steps 200] [-dt 1e-3]
//	      [-checkpoint warmup.ckpt] [-resume warmup.ckpt]
//
// The fast (10 µm) resolution reproduces the paper's trends in a few
// minutes; paper (5 µm) matches the published meshing strategy but takes
// considerably longer.
//
// The transient experiment (explicit only — not part of "all") integrates
// the lasers-on warm-up from the chip-only steady state. -checkpoint
// writes a resumable checkpoint file every 25 steps (and at the end);
// -resume continues a previous run from such a file — the restored
// trajectory is bit-identical to an uninterrupted one, and a checkpoint
// taken on a different mesh, power vector or solver refuses cleanly.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/core"
	"vcselnoc/internal/dse"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/mrr"
	"vcselnoc/internal/ornoc"
	"vcselnoc/internal/photodiode"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/thermal"
	"vcselnoc/internal/vcsel"
	"vcselnoc/internal/waveguide"
	"vcselnoc/internal/xbar"
)

func main() {
	res := flag.String("res", "fast", "mesh resolution: preview, coarse, fast or paper")
	exp := flag.String("experiment", "all", "which experiment to run: all, table1, fig5b, fig8, fig9a, fig9b, fig10, fig12, xbar, transient (explicit only)")
	workers := flag.Int("workers", 0, "parallel solver/sweep workers (0 = all CPUs)")
	steps := flag.Int("steps", 200, "transient experiment: implicit-Euler steps to integrate")
	dt := flag.Float64("dt", 1e-3, "transient experiment: time step in seconds")
	checkpoint := flag.String("checkpoint", "", "transient experiment: write a resumable checkpoint to this file every 25 steps")
	resume := flag.String("resume", "", "transient experiment: resume from a checkpoint file written by -checkpoint")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("repro: ")

	spec, err := thermal.PaperSpec()
	if err != nil {
		log.Fatal(err)
	}
	if spec.Res, err = thermal.ResolutionByName(*res); err != nil {
		log.Fatal(err)
	}
	spec.Workers = *workers

	all := *exp == "all"
	want := func(name string) bool { return all || *exp == name }
	ranAny := false

	// The transient warm-up is long-running and parameterised, so it only
	// runs when asked for explicitly.
	if *exp == "transient" {
		runTransient(spec, *steps, *dt, *checkpoint, *resume)
		return
	}

	if want("table1") {
		table1()
		ranAny = true
	}
	if want("fig5b") {
		fig5b()
		ranAny = true
	}
	if want("fig8") {
		fig8()
		ranAny = true
	}
	if want("xbar") {
		xbarTable()
		ranAny = true
	}
	if want("fig9a") || want("fig9b") || want("fig10") || want("fig12") {
		m, err := core.NewWithSpec(spec, snr.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		fmt.Printf("building thermal model (%d cells) and uniform basis...\n", m.Model().NumCells())
		ex, err := m.Explorer(nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("basis ready in %v\n", time.Since(start))
		if want("fig9a") {
			fig9a(ex)
		}
		if want("fig9b") {
			fig9b(ex)
		}
		if want("fig10") {
			fig10(ex)
		}
		if want("fig12") {
			fig12(m)
		}
		ranAny = true
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// runTransient integrates the lasers-on warm-up (extension beyond the
// paper's steady-state study) with optional checkpointing and resume.
func runTransient(spec thermal.Spec, steps int, dt float64, checkpointPath, resumePath string) {
	m, err := thermal.NewModel(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transient warm-up: %d cells, dt=%g s, %d steps\n", m.NumCells(), dt, steps)
	powers := thermal.Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3}
	ts := thermal.TransientSpec{
		TimeStep: dt,
		Steps:    steps,
		Observer: func(o thermal.TransientObservation) {
			if o.Step%10 == 0 || o.Step == steps {
				fmt.Printf("  step %4d  t=%7.3f s  peak %6.2f °C  max gradient %5.3f °C  (%d solver iters)\n",
					o.Step, o.TimeS, o.PeakTemp, o.MaxGradient, o.SolverIterations)
			}
		},
	}
	if resumePath != "" {
		f, err := os.Open(resumePath)
		if err != nil {
			log.Fatal(err)
		}
		cp, err := fvm.DecodeTransientCheckpoint(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		ts.Resume = cp
		fmt.Printf("  resuming from %s (step %d)\n", resumePath, cp.Step)
	}
	if checkpointPath != "" {
		ts.Checkpoint = func(cp *fvm.TransientCheckpoint) error {
			tmp := checkpointPath + ".tmp"
			f, err := os.Create(tmp)
			if err != nil {
				return err
			}
			if err := cp.Encode(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			return os.Rename(tmp, checkpointPath)
		}
	}
	start := time.Now()
	res, err := m.SolveTransient(powers, ts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v: mean ONI %.2f °C, max gradient %.3f °C, chip max %.2f °C\n",
		time.Since(start).Round(time.Millisecond), res.MeanONITemp(), res.MaxONIGradient(), res.ChipMax)
	if checkpointPath != "" {
		fmt.Printf("checkpoint written to %s\n", checkpointPath)
	}
}

func table1() {
	mr := mrr.DefaultParams()
	det := photodiode.DefaultParams()
	loss := waveguide.DefaultLossBudget()
	fmt.Println("\n=== Table 1: technological parameters ===")
	fmt.Printf("  wavelength range        : %g nm     (paper 1550 nm)\n", mr.ResonanceNM)
	fmt.Printf("  BW 3dB                  : %g nm     (paper 1.55 nm)\n", mr.FWHMNM)
	fmt.Printf("  photodetector threshold : %g dBm    (paper -20 dBm)\n", det.SensitivityDBm)
	fmt.Printf("  thermal sensitivity     : %g nm/°C  (paper 0.1 nm/°C)\n", mr.DLambdaDT)
	fmt.Printf("  propagation loss        : %g dB/cm  (paper 0.5 dB/cm)\n", loss.PropagationDBPerCM)
}

func fig5b() {
	ring, err := mrr.New(mrr.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Fig. 5-b: MR transmission vs misalignment ===")
	fmt.Println("  δ(nm)    drop   through")
	for _, d := range []float64{-2, -1.55, -0.775, -0.3, -0.1, 0, 0.1, 0.3, 0.775, 1.55, 2} {
		fmt.Printf("  %+5.2f   %5.3f   %5.3f\n",
			d, ring.DropFraction(1550+d, 1550), ring.ThroughFraction(1550+d, 1550))
	}
	det, err := ring.DetuningForDrop(0.5)
	if err != nil {
		log.Fatal(err)
	}
	dt, err := ring.TemperatureForDetuning(det)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  50%% wrongly dropped at ±%.3f nm ≡ %.2f °C (paper: 0.77 nm / 7.7 °C)\n", det, dt)
}

func fig8() {
	dev, err := vcsel.New(vcsel.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Fig. 8-b: VCSEL wall-plug efficiency vs temperature ===")
	fmt.Println("  T(°C)   peak η   at I(mA)    [paper anchors: ~18% @10, ~15% @40, ~4% @60]")
	for _, temp := range []float64{10, 20, 30, 40, 50, 60, 70} {
		eff, cur, err := dev.PeakEfficiency(temp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4.0f    %5.1f%%   %5.2f\n", temp, eff*100, cur*1e3)
	}
	fmt.Println("\n=== Fig. 8-c: OP vs dissipated power (thermal rollover) ===")
	for _, temp := range []float64{40, 55, 70} {
		fmt.Printf("  T=%2.0f°C:", temp)
		for _, i := range []float64{2e-3, 4e-3, 6e-3, 8e-3, 10e-3} {
			pt, err := dev.Operate(i, temp)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  (%.1f→%.2f)", pt.DissipatedPower*1e3, pt.OpticalPower*1e3)
		}
		fmt.Println("   [Pdiss(mW)→OP(mW)]")
	}
}

func fig9a(ex *dse.Explorer) {
	chips := []float64{12.5, 18.75, 25, 31.25}
	lasers := []float64{0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3}
	table, err := ex.SweepAvgTemp(chips, lasers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Fig. 9-a: mean ONI temperature (°C) ===")
	fmt.Println("  Pchip\\Pv(mW):     0      1      2      3      4      5      6")
	for i, row := range table {
		fmt.Printf("  %6.2f W   ", chips[i])
		for _, pt := range row {
			fmt.Printf(" %6.2f", pt.MeanONITemp)
		}
		fmt.Println()
	}
	fmt.Printf("  responses: %+.1f °C per 18.75 W chip power (paper ~+9.9), %+.1f °C per 6 mW laser power (paper ~+11)\n",
		table[3][0].MeanONITemp-table[0][0].MeanONITemp,
		table[2][6].MeanONITemp-table[2][0].MeanONITemp)
}

func fig9b(ex *dse.Explorer) {
	lasers := []float64{1e-3, 2e-3, 4e-3, 6e-3}
	fmt.Println("\n=== Fig. 9-b: gradient vs heater power (V-curves) ===")
	for _, pv := range lasers {
		opt, err := ex.OptimalHeater(25, pv, pv)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Pv=%3.0f mW: gradient %.2f °C (no heater) → %.2f °C at Ph=%.2f mW, ratio %.2f (paper 0.30)\n",
			pv*1e3, opt.GradientNoHeater, opt.MeanGradient, opt.PHeater*1e3, opt.Ratio)
	}
}

func fig10(ex *dse.Explorer) {
	lasers := []float64{1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3}
	rows, err := ex.HeaterComparison(25, lasers, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Fig. 10: with vs without MR heater (ratio 0.3) ===")
	fmt.Println("  Pv(mW)  grad w/o  grad w/   avg w/o   avg w/")
	for _, r := range rows {
		fmt.Printf("  %5.0f   %7.2f   %6.2f   %7.2f   %6.2f\n",
			r.PVCSEL*1e3, r.GradientWithout, r.GradientWith, r.AvgTempWithout, r.AvgTempWith)
	}
	fmt.Println("  paper: 1.0→0.3 °C at 1 mW, 5.8→1.3 °C at 6 mW, average-temperature cost ≤ 0.8 °C")
}

func fig12(m *core.Methodology) {
	acts := []activity.Scenario{
		activity.Uniform{},
		activity.Diagonal{},
		activity.Random{Seed: 7, Min: 0.5, Max: 1.5},
	}
	fmt.Println("\n=== Fig. 12: worst-case SNR (Pv=3.6 mW, Ph=1.08 mW, 24 W chip) ===")
	for _, act := range acts {
		fmt.Printf("  %-8s:", act.Name())
		for _, cs := range []ornoc.CaseStudy{ornoc.Case18mm, ornoc.Case32mm, ornoc.Case47mm} {
			r, err := m.SNRAnalysis(core.SNRScenario{
				Case: cs, Activity: act, ChipPower: 24,
				PVCSEL: 3.6e-3, PHeater: 1.08e-3, Pattern: core.Neighbour,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %5.1fmm %6.1f dB (sig %.3f mW, ΔT %.2f °C)",
				r.RingLengthM*1e3, r.Report.WorstSNRdB, r.Report.MeanSignalW*1e3,
				r.NodeTempMax-r.NodeTempMin)
		}
		fmt.Println()
	}
	fmt.Println("  paper: uniform 38/25/13 dB, diagonal 19/13/10 dB, random 20/17/12 dB")
}

func xbarTable() {
	fmt.Println("\n=== Ref [20]: crossbar insertion-loss comparison ===")
	for _, n := range []int{4, 8, 16} {
		cmp, err := xbar.Compare(n, 2e-3, waveguide.DefaultLossBudget())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d interfaces:", n)
		for _, topo := range xbar.AllTopologies() {
			a := cmp.Results[topo]
			fmt.Printf("  %s %.2f/%.2f dB", topo, a.WorstLossDB, a.AverageLossDB)
		}
		fmt.Printf("\n                ORNoC saves %.1f%% worst / %.1f%% avg (paper at 4×4: 42.5%%/38%%)\n",
			cmp.WorstSaving*100, cmp.AverageSaving*100)
	}
}
