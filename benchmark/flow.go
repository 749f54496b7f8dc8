package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime/debug"
	"time"

	"vcselnoc"
)

// previewRes is vcseld's -res preview mesh (40 µm ONI cells); the facade
// exports no constructor for it. Tests run the workloads at this tier.
var previewRes = vcselnoc.Resolution{ONICell: 40e-6, DieCell: 4e-3, MaxZCell: 1.2e-3}

// specFor is the paper's system at a named mesh tier, matching what
// `vcseld -res <name>` builds.
func specFor(res string) (vcselnoc.ThermalSpec, error) {
	spec, err := vcselnoc.PaperSpec()
	if err != nil {
		return spec, err
	}
	switch res {
	case "fast":
		spec.Res = vcselnoc.FastResolution()
	case "preview":
		spec.Res = previewRes
	default:
		return spec, fmt.Errorf("unknown resolution %q", res)
	}
	return spec, nil
}

// fig10Ratio is the paper's optimal heater ratio, used for Fig. 10.
const fig10Ratio = 0.3

// sweepPasses is how many times a repetition runs the sweeps: once in the
// flow and again for more samples of the in-process query rate.
const sweepPasses = 3

// basisColumns is the number of unit fields (chip, VCSEL, driver, heater)
// a basis build solves as one block.
const basisColumns = 4

// flowRep is what one design-flow repetition measured.
type flowRep struct {
	// setup is model + hierarchy + uniform basis; flow everything after.
	setup, flow time.Duration
	// Time spent in each facade layer (the benchmark's spans).
	assemble, hierarchy, basis, rebuild, sweep, heater, snr time.Duration
	// stages are the flow's steps in order: sweeps, heater searches,
	// diagonal basis, random basis, SNR scenarios.
	stages []time.Duration
	// sweeps times every pass over the sweeps; sweepMismatches counts
	// passes whose outputs differed from the flow's own pass.
	sweeps          []time.Duration
	sweepMismatches int
	// Block-CG iterations of the uniform basis build.
	iters int
	// V-cycle phase times and block-solve wall time summed over the three
	// bases the repetition builds.
	smooth, restrict, prolong, coarse, basisWall time.Duration
	// digest covers every sweep, heater and SNR output bit for bit.
	digest uint64
	// ratios9b is each Fig. 9-b row's gradient-minimising heater ratio.
	ratios9b []float64
	// rssMB is the largest resident set the repetition reached.
	rssMB float64
}

type flowRun struct {
	cfg  config
	in   flowInputs
	spec vcselnoc.ThermalSpec
	tr   *tracer
	res  *result
	reps []flowRep
	// evalGap is the largest |basis − direct solve| difference seen (°C).
	evalGap float64
}

// sweepPoints is the number of operating points the Fig. 9-a, Fig. 9-b
// and Fig. 10 sweeps evaluate per repetition.
func (in flowInputs) sweepPoints() int {
	return len(in.chips9a)*len(in.lasers9a) + len(in.lasers9b)*len(in.heaters) + 2*len(in.lasers10)
}

func runDesignFlow(cfg config) (*result, error) {
	spec, err := specFor(cfg.res)
	if err != nil {
		return nil, err
	}
	f := &flowRun{cfg: cfg, in: newFlowInputs(cfg.seed), spec: spec, res: newResult(designFlow, cfg)}
	if cfg.trace {
		f.tr = newTracer()
	}
	for len(f.reps) < flowReps {
		// The previous repetition's Methodology is garbage now. Returning
		// it to the OS here, untimed, starts every repetition from the same
		// heap, so GC timing stays out of set-up time and peak RSS.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("reset peak RSS: %w", err)
		}
		if err := f.rep(); err != nil {
			f.res.failed++
			return f.res, err
		}
	}
	f.checks()
	f.report()
	if f.tr != nil {
		if err := f.tr.write(cfg.tracePath(designFlow), designFlow, cfg.seed, 0, 0); err != nil {
			return nil, err
		}
	}
	return f.res, nil
}

type digest struct{ h hash.Hash64 }

func (d digest) add(vs ...float64) {
	for _, v := range vs {
		d.addBits(math.Float64bits(v))
	}
}

func (d digest) addBits(u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	d.h.Write(b[:])
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// rep runs one repetition of the design flow on a fresh Methodology, the
// way a CLI user's process runs it cold.
func (f *flowRun) rep() error {
	var rp flowRep
	in := f.in
	dg := digest{fnv.New64a()}
	traceID, rootID := f.tr.id(), f.tr.id()
	parent := rootID
	repStart := time.Now()
	step := func(name string, fn func() error) (time.Duration, error) {
		start := time.Now()
		err := fn()
		end := time.Now()
		f.tr.add(traceID, parent, name, start, end)
		f.res.attempted++
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return end.Sub(start), nil
	}

	var m *vcselnoc.Methodology
	var uniform, diagonal, random *vcselnoc.ThermalBasis
	var err error
	if rp.assemble, err = step("thermal.assemble", func() (err error) {
		m, err = vcselnoc.NewWithSpec(f.spec, vcselnoc.DefaultSNRConfig())
		return err
	}); err != nil {
		return err
	}
	if rp.hierarchy, err = step("mg.hierarchy", func() error {
		_, err := m.Model().System().Hierarchy()
		return err
	}); err != nil {
		return err
	}
	if rp.basis, err = step("thermal.basis_build", func() (err error) {
		uniform, err = m.BasisFor(nil)
		return err
	}); err != nil {
		return err
	}
	rp.setup = time.Since(repStart)

	// sweeps runs the Fig. 9-a, Fig. 9-b and Fig. 10 sweeps and returns
	// their time, a digest of their outputs and each Fig. 9-b row's
	// gradient-minimising heater ratio.
	sweeps := func() (d time.Duration, sum uint64, ratios []float64, err error) {
		sdg := digest{fnv.New64a()}
		ex, err := m.Explorer(nil)
		if err != nil {
			return 0, 0, nil, err
		}
		for _, sweep := range []func() error{
			func() error {
				rows, err := ex.SweepAvgTemp(in.chips9a, in.lasers9a)
				for _, row := range rows {
					for _, p := range row {
						sdg.add(p.MeanONITemp)
					}
				}
				return err
			},
			func() error {
				rows, err := ex.SweepGradient(in.chip9b, in.lasers9b, in.heaters)
				for i, row := range rows {
					best := 0
					for j, p := range row {
						sdg.add(p.MeanGradient, p.MaxGradient)
						if p.MeanGradient < row[best].MeanGradient {
							best = j
						}
					}
					ratios = append(ratios, in.heaters[best]/in.lasers9b[i])
				}
				return err
			},
			func() error {
				rows, err := ex.HeaterComparison(in.chip10, in.lasers10, fig10Ratio)
				for _, r := range rows {
					sdg.add(r.GradientWithout, r.GradientWith, r.AvgTempWithout, r.AvgTempWith)
				}
				return err
			},
		} {
			t, err := step("dse.sweep", sweep)
			if err != nil {
				return 0, 0, nil, err
			}
			d += t
		}
		return d, sdg.h.Sum64(), ratios, nil
	}

	flowStart := time.Now()
	sweepTime, sweepSum, ratios, err := sweeps()
	if err != nil {
		return err
	}
	rp.sweep, rp.ratios9b = sweepTime, ratios
	dg.addBits(sweepSum)
	if rp.heater, err = step("dse.heater_search", func() error {
		for i := range in.heaterChips {
			opt, err := m.OptimalHeaterRatio(nil, in.heaterChips[i], in.heaterLasers[i])
			if err != nil {
				return err
			}
			dg.add(opt.PHeater, opt.Ratio, opt.MeanGradient, opt.GradientNoHeater)
		}
		return nil
	}); err != nil {
		return err
	}
	diagTime, err := step("thermal.basis_rebuild", func() (err error) {
		diagonal, err = m.BasisFor(vcselnoc.DiagonalActivity{})
		return err
	})
	if err != nil {
		return err
	}
	randomTime, err := step("thermal.basis_rebuild", func() (err error) {
		random, err = m.BasisFor(vcselnoc.RandomActivity{Seed: in.randomSeed})
		return err
	})
	if err != nil {
		return err
	}
	rp.rebuild = diagTime + randomTime
	if rp.snr, err = step("core.snr", func() error {
		for _, c := range []vcselnoc.CaseStudy{vcselnoc.Case18mm, vcselnoc.Case32mm, vcselnoc.Case47mm} {
			for _, act := range []vcselnoc.ActivityScenario{nil, vcselnoc.DiagonalActivity{}, vcselnoc.RandomActivity{Seed: in.randomSeed}} {
				s, err := m.SNRAnalysis(vcselnoc.SNRScenario{
					Case: c, Activity: act, ChipPower: in.snrChip,
					PVCSEL: in.snrLaser, PHeater: fig10Ratio * in.snrLaser, Pattern: vcselnoc.Neighbour,
				})
				if err != nil {
					return err
				}
				dg.add(s.Report.WorstSNRdB, s.NodeTempMin, s.NodeTempMax, boolf(s.Report.AllDetected))
			}
		}
		return nil
	}); err != nil {
		return err
	}
	end := time.Now()
	rp.flow = end.Sub(flowStart)
	rp.stages = []time.Duration{rp.sweep, rp.heater, diagTime, randomTime, rp.snr}
	f.tr.record(traceID, rootID, "", "flow.repetition", repStart, end)
	// The peak is read here, before the extra sweep passes: their garbage
	// would raise it by whatever the GC happened to leave uncollected.
	if rp.rssMB, err = peakRSSMB(os.Getpid()); err != nil {
		return err
	}

	// More passes over the sweeps, outside the flow, give the in-process
	// query rate more samples; they must reproduce the flow's outputs.
	rp.sweeps = []time.Duration{rp.sweep}
	for i := 1; i < sweepPasses; i++ {
		traceID, parent = f.tr.id(), ""
		d, sum, _, err := sweeps()
		if err != nil {
			return err
		}
		rp.sweeps = append(rp.sweeps, d)
		if sum != sweepSum {
			rp.sweepMismatches++
		}
	}

	rp.iters = uniform.BuildStats().Iterations
	for _, b := range []*vcselnoc.ThermalBasis{uniform, diagonal, random} {
		bs := b.BuildStats()
		rp.smooth += bs.Phases.Smooth
		rp.restrict += bs.Phases.Restrict
		rp.prolong += bs.Phases.Prolong
		rp.coarse += bs.Phases.Coarse
		rp.basisWall += bs.Wall
	}
	rp.digest = dg.h.Sum64()
	if len(f.reps) == 0 {
		if err := f.compareDirect(m, uniform); err != nil {
			return err
		}
	}
	f.reps = append(f.reps, rp)
	return nil
}

// compareDirect checks the superposition answer against a direct solve
// at one operating point (outside the timed regions).
func (f *flowRun) compareDirect(m *vcselnoc.Methodology, b *vcselnoc.ThermalBasis) error {
	p := f.in.check
	pw := vcselnoc.Powers{Chip: p.Chip, VCSEL: p.PV, Driver: p.PV, Heater: p.PH}
	ev, err := b.Evaluate(pw)
	if err != nil {
		return err
	}
	dir, err := m.Model().Solve(pw)
	if err != nil {
		return err
	}
	gap := math.Abs(ev.ChipMax - dir.ChipMax)
	for i := range ev.ONIs {
		gap = math.Max(gap, math.Abs(ev.ONIs[i].AvgTemp-dir.ONIs[i].AvgTemp))
		gap = math.Max(gap, math.Abs(ev.ONIs[i].Gradient-dir.ONIs[i].Gradient))
	}
	if math.IsNaN(gap) || len(ev.ONIs) != len(dir.ONIs) || len(ev.ONIs) == 0 {
		gap = math.Inf(1)
	}
	f.evalGap = gap
	return nil
}

func (f *flowRun) checks() {
	r, first := f.res, f.reps[0]
	same, itersSame, sweepMismatches := true, true, 0
	for _, rp := range f.reps {
		same = same && rp.digest == first.digest
		itersSame = itersSame && rp.iters == first.iters
		sweepMismatches += rp.sweepMismatches
	}
	r.fingerprint = fmt.Sprintf("%016x", first.digest)
	r.check("repetitions_identical", same, "%d repetitions, output digest %s", len(f.reps), r.fingerprint)
	r.check("sweep_passes_identical", sweepMismatches == 0,
		"%d of %d extra sweep passes differ from their repetition's flow", sweepMismatches, len(f.reps)*(sweepPasses-1))
	r.check("basis_iters_repeat", itersSame, "uniform basis block-CG iterations %d in every repetition", first.iters)
	// The preview mesh does not resolve device temperatures (its optimum
	// runs off the heater axis), so the paper's interior optimum is checked
	// at the fast tier only.
	if f.cfg.res == "fast" {
		inside := len(first.ratios9b) == len(f.in.lasers9b)
		for _, x := range first.ratios9b {
			inside = inside && x > 0.05 && x < 0.8
		}
		r.check("fig9b_optimum_interior", inside, "Fig. 9-b optimum heater ratios %.3g, want each in (0.05, 0.8)", first.ratios9b)
	}
	r.check("basis_matches_direct_solve", f.evalGap <= 1e-6,
		"max |Evaluate − Solve| %.3g °C over every ONI avg/gradient and ChipMax", f.evalGap)
}

// per returns the median over repetitions of one measured quantity.
func (f *flowRun) per(get func(flowRep) float64) float64 {
	xs := make([]float64, len(f.reps))
	for i, rp := range f.reps {
		xs[i] = get(rp)
	}
	return median(xs)
}

func (f *flowRun) report() {
	r, n := f.res, len(f.reps)
	if !f.cfg.trace {
		r.set("setup_s", f.per(func(rp flowRep) float64 { return rp.setup.Seconds() }), n,
			"model + hierarchy + uniform basis, median of cold builds")
		// Summing each stage's median over repetitions keeps a slowdown that
		// hits one stage of one repetition out of the total.
		flow := 0.0
		for i := range f.reps[0].stages {
			flow += f.per(func(rp flowRep) float64 { return ms(rp.stages[i]) })
		}
		r.set("latency_ms", flow, n, "rest of the design flow: sum over its stages of their median over repetitions")
		var rates []float64
		pts := float64(f.in.sweepPoints())
		for _, rp := range f.reps {
			for _, d := range rp.sweeps {
				rates = append(rates, pts/d.Seconds())
			}
		}
		r.set("throughput_per_s", median(rates), len(rates),
			fmt.Sprintf("design points per second over the %g-point Fig. 9-a/9-b/10 sweeps, median of passes", pts))
		r.set("peak_rss_mb", f.per(func(rp flowRep) float64 { return rp.rssMB }), n,
			"VmHWM over each repetition's set-up and flow (reset before it), median")
		return
	}
	sec := func(name, note string, get func(flowRep) time.Duration) {
		r.set(name, f.per(func(rp flowRep) float64 { return get(rp).Seconds() }), n, note)
	}
	const reps = "median of repetitions"
	sec("thermal.assemble_s", reps, func(rp flowRep) time.Duration { return rp.assemble })
	sec("mg.hierarchy_s", reps, func(rp flowRep) time.Duration { return rp.hierarchy })
	sec("thermal.basis_build_s", reps, func(rp flowRep) time.Duration { return rp.basis })
	sec("thermal.basis_rebuild_s", reps, func(rp flowRep) time.Duration { return rp.rebuild })
	sec("dse.sweep_s", reps, func(rp flowRep) time.Duration { return rp.sweep })
	sec("dse.heater_search_s", reps, func(rp flowRep) time.Duration { return rp.heater })
	sec("core.snr_s", reps, func(rp flowRep) time.Duration { return rp.snr })
	r.set("fvm.basis_iters", float64(f.reps[0].iters), n, "uniform basis, identical in every repetition")
	// Block CG preconditions its unit-field columns in concurrent
	// goroutines, each timing its own V-cycle phases, so the phase sums
	// count each second of V-cycle wall time once per column.
	const phases = "summed over the three bases' concurrent per-column V-cycles"
	sec("mg.smooth_s", phases, func(rp flowRep) time.Duration { return rp.smooth })
	sec("mg.restrict_s", phases, func(rp flowRep) time.Duration { return rp.restrict })
	sec("mg.prolong_s", phases, func(rp flowRep) time.Duration { return rp.prolong })
	sec("mg.coarse_s", phases, func(rp flowRep) time.Duration { return rp.coarse })
	r.set("fvm.krylov_other_s", f.per(func(rp flowRep) float64 {
		vcycles := rp.smooth + rp.restrict + rp.prolong + rp.coarse
		return (rp.basisWall - vcycles/basisColumns).Seconds()
	}), n, "block-solve wall − V-cycle wall (phase sums / 4 columns): SpMV, dots, block-CG, set-up")
	r.set("flow.attributed_frac", f.per(func(rp flowRep) float64 {
		spans := rp.assemble + rp.hierarchy + rp.basis + rp.sweep + rp.heater + rp.rebuild + rp.snr
		return spans.Seconds() / (rp.setup + rp.flow).Seconds()
	}), n, "layer spans / (setup + flow) wall time")
}
