// Package dse implements the design-space exploration at the heart of the
// paper's methodology: sweeping the VCSEL dissipated power (set by the
// modulation current) and the MR heater power over steady-state thermal
// evaluations, locating the heater power that minimises the intra-ONI
// gradient, and checking the 1 °C gradient constraint that makes run-time
// MR calibration practical.
//
// Every sweep, search and check reads thermal.Basis.Summary: a
// superposition of unit-power solves projected onto the report's
// functionals, which costs a few microseconds and no allocation per
// operating point whatever the mesh, instead of a finite-volume solve.
package dse

import (
	"fmt"
	"math"
	"runtime"

	"vcselnoc/internal/parallel"
	"vcselnoc/internal/thermal"
)

// GradientLimit is the paper's intra-ONI gradient constraint (°C): with
// 1.55 nm-BW rings and 0.1 nm/°C drift, 1 °C keeps the transmission
// penalty below ~7 %.
const GradientLimit = 1.0

// Explorer runs sweeps over a prepared thermal basis. Sweep grid cells
// are independent basis evaluations, so SweepAvgTemp, SweepGradient and
// HeaterComparison fan them out across a worker pool; sequential searches
// (OptimalHeater, MaxFeasibleLaserPower) stay serial by nature.
type Explorer struct {
	basis   *thermal.Basis
	workers int
}

// NewExplorer wraps a thermal basis. The worker pool defaults to
// GOMAXPROCS; tune it with SetWorkers.
func NewExplorer(b *thermal.Basis) (*Explorer, error) {
	if b == nil {
		return nil, fmt.Errorf("dse: nil basis")
	}
	return &Explorer{basis: b}, nil
}

// SetWorkers caps the goroutines used by sweeps; n <= 0 restores the
// GOMAXPROCS default.
func (e *Explorer) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	e.workers = n
}

// poolSize resolves the worker count for a sweep of n independent cells.
func (e *Explorer) poolSize(n int) int {
	w := e.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEach evaluates fn for every index in [0, n) across the worker pool
// and returns the first error; remaining cells are skipped after a
// failure.
func (e *Explorer) forEach(n int, fn func(i int) error) error {
	return parallel.ForEach(e.poolSize(n), n, func(_, i int) error { return fn(i) })
}

// AvgTempPoint is one cell of the Fig. 9-a sweep.
type AvgTempPoint struct {
	ChipPower float64 // W
	PVCSEL    float64 // W per laser (driver matched)
	// MeanONITemp averages the per-ONI average temperatures (°C).
	MeanONITemp float64
}

// SweepAvgTemp reproduces Fig. 9-a: mean ONI temperature across a
// chip-power × laser-power grid (P_driver = P_VCSEL, the paper's worst
// case). Rows iterate chip powers, columns laser powers.
func (e *Explorer) SweepAvgTemp(chipPowers, laserPowers []float64) ([][]AvgTempPoint, error) {
	if len(chipPowers) == 0 || len(laserPowers) == 0 {
		return nil, fmt.Errorf("dse: empty sweep axes")
	}
	out := make([][]AvgTempPoint, len(chipPowers))
	for i := range out {
		out[i] = make([]AvgTempPoint, len(laserPowers))
	}
	cols := len(laserPowers)
	err := e.forEach(len(chipPowers)*cols, func(k int) error {
		i, j := k/cols, k%cols
		chip, pv := chipPowers[i], laserPowers[j]
		s, err := e.basis.Summary(thermal.Powers{Chip: chip, VCSEL: pv, Driver: pv})
		if err != nil {
			return err
		}
		out[i][j] = AvgTempPoint{ChipPower: chip, PVCSEL: pv, MeanONITemp: s.MeanONITemp}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GradientPoint is one cell of the Fig. 9-b sweep.
type GradientPoint struct {
	PVCSEL  float64
	PHeater float64
	// MeanGradient averages the per-ONI gradient temperatures (°C).
	MeanGradient float64
	// MaxGradient is the worst ONI's gradient (°C).
	MaxGradient float64
}

// SweepGradient reproduces Fig. 9-b: intra-ONI gradient across a laser ×
// heater power grid at fixed chip power.
func (e *Explorer) SweepGradient(chip float64, laserPowers, heaterPowers []float64) ([][]GradientPoint, error) {
	if len(laserPowers) == 0 || len(heaterPowers) == 0 {
		return nil, fmt.Errorf("dse: empty sweep axes")
	}
	out := make([][]GradientPoint, len(laserPowers))
	for i := range out {
		out[i] = make([]GradientPoint, len(heaterPowers))
	}
	cols := len(heaterPowers)
	err := e.forEach(len(laserPowers)*cols, func(k int) error {
		i, j := k/cols, k%cols
		gp, err := e.gradientAt(chip, laserPowers[i], heaterPowers[j])
		if err != nil {
			return err
		}
		out[i][j] = gp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Explorer) gradientAt(chip, pv, ph float64) (GradientPoint, error) {
	s, err := e.basis.Summary(thermal.Powers{Chip: chip, VCSEL: pv, Driver: pv, Heater: ph})
	if err != nil {
		return GradientPoint{}, err
	}
	return GradientPoint{
		PVCSEL:       pv,
		PHeater:      ph,
		MeanGradient: s.MeanGradient,
		MaxGradient:  s.MaxGradient,
	}, nil
}

// HeaterOptimum is the result of the heater-power search.
type HeaterOptimum struct {
	PVCSEL  float64
	PHeater float64
	// Ratio is PHeater/PVCSEL — the paper's headline is ≈0.3.
	Ratio float64
	// MeanGradient is the gradient at the optimum.
	MeanGradient float64
	// GradientNoHeater is the gradient with the heater off.
	GradientNoHeater float64
}

// OptimalHeater finds the heater power in [0, maxHeater] minimising the
// mean intra-ONI gradient at the given chip and laser power, by golden
// -section search (the gradient is unimodal in the heater power: heating
// first closes the VCSEL–MR gap, then overshoots).
func (e *Explorer) OptimalHeater(chip, pv, maxHeater float64) (HeaterOptimum, error) {
	if pv <= 0 {
		return HeaterOptimum{}, fmt.Errorf("dse: laser power %g must be > 0", pv)
	}
	if maxHeater <= 0 {
		return HeaterOptimum{}, fmt.Errorf("dse: heater bound %g must be > 0", maxHeater)
	}
	f := func(ph float64) (float64, error) {
		gp, err := e.gradientAt(chip, pv, ph)
		if err != nil {
			return 0, err
		}
		return gp.MeanGradient, nil
	}
	base, err := f(0)
	if err != nil {
		return HeaterOptimum{}, err
	}

	const phi = 0.6180339887498949
	lo, hi := 0.0, maxHeater
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, err := f(x1)
	if err != nil {
		return HeaterOptimum{}, err
	}
	f2, err := f(x2)
	if err != nil {
		return HeaterOptimum{}, err
	}
	for iter := 0; iter < 60 && hi-lo > maxHeater*1e-4; iter++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			if f1, err = f(x1); err != nil {
				return HeaterOptimum{}, err
			}
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			if f2, err = f(x2); err != nil {
				return HeaterOptimum{}, err
			}
		}
	}
	best := (lo + hi) / 2
	bestG, err := f(best)
	if err != nil {
		return HeaterOptimum{}, err
	}
	// The heater never helps? Then 0 is optimal.
	if base <= bestG {
		best, bestG = 0, base
	}
	return HeaterOptimum{
		PVCSEL:           pv,
		PHeater:          best,
		Ratio:            best / pv,
		MeanGradient:     bestG,
		GradientNoHeater: base,
	}, nil
}

// ComparisonRow is one Fig. 10 row: gradient and average temperature with
// and without the MR heater at P_heater = ratio × P_VCSEL.
type ComparisonRow struct {
	PVCSEL                      float64
	GradientWithout             float64
	GradientWith                float64
	AvgTempWithout, AvgTempWith float64
}

// HeaterComparison reproduces Fig. 10 for the given heater ratio
// (the paper's optimum is 0.3).
func (e *Explorer) HeaterComparison(chip float64, laserPowers []float64, ratio float64) ([]ComparisonRow, error) {
	if ratio < 0 {
		return nil, fmt.Errorf("dse: negative heater ratio %g", ratio)
	}
	rows := make([]ComparisonRow, len(laserPowers))
	err := e.forEach(len(laserPowers), func(i int) error {
		pv := laserPowers[i]
		off, err := e.basis.Summary(thermal.Powers{Chip: chip, VCSEL: pv, Driver: pv})
		if err != nil {
			return err
		}
		on, err := e.basis.Summary(thermal.Powers{Chip: chip, VCSEL: pv, Driver: pv, Heater: ratio * pv})
		if err != nil {
			return err
		}
		rows[i] = ComparisonRow{
			PVCSEL:          pv,
			GradientWithout: off.MeanGradient,
			GradientWith:    on.MeanGradient,
			AvgTempWithout:  off.MeanONITemp,
			AvgTempWith:     on.MeanONITemp,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Feasibility reports whether an operating point satisfies the 1 °C
// intra-ONI gradient constraint and records the margins.
type Feasibility struct {
	Powers       thermal.Powers
	MeanGradient float64
	MaxGradient  float64
	// Feasible means every ONI satisfies the GradientLimit.
	Feasible bool
}

// CheckFeasibility evaluates the gradient constraint at one point.
func (e *Explorer) CheckFeasibility(p thermal.Powers) (Feasibility, error) {
	s, err := e.basis.Summary(p)
	if err != nil {
		return Feasibility{}, err
	}
	f := Feasibility{
		Powers:       p,
		MeanGradient: s.MeanGradient,
		MaxGradient:  s.MaxGradient,
	}
	f.Feasible = f.MaxGradient <= GradientLimit
	return f, nil
}

// MaxFeasibleLaserPower finds (by bisection) the largest P_VCSEL whose
// optimal-heater configuration still satisfies the gradient constraint.
// Returns 0 if even the smallest probe violates it.
func (e *Explorer) MaxFeasibleLaserPower(chip, ratio, bound float64) (float64, error) {
	if bound <= 0 {
		return 0, fmt.Errorf("dse: bound %g must be > 0", bound)
	}
	feasible := func(pv float64) (bool, error) {
		s, err := e.basis.Summary(thermal.Powers{Chip: chip, VCSEL: pv, Driver: pv, Heater: ratio * pv})
		if err != nil {
			return false, err
		}
		return s.MaxGradient <= GradientLimit, nil
	}
	ok, err := feasible(bound)
	if err != nil {
		return 0, err
	}
	if ok {
		return bound, nil
	}
	lo, hi := 0.0, bound
	for iter := 0; iter < 50; iter++ {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// GradientCurveMinimum scans a gradient row (fixed PVCSEL, swept heater)
// and returns the index of its minimum — a helper for verifying the
// V-shape in tests and benches.
func GradientCurveMinimum(row []GradientPoint) (int, error) {
	if len(row) == 0 {
		return 0, fmt.Errorf("dse: empty row")
	}
	min := 0
	for i, p := range row {
		if math.IsNaN(p.MeanGradient) {
			return 0, fmt.Errorf("dse: NaN gradient at index %d", i)
		}
		if p.MeanGradient < row[min].MeanGradient {
			min = i
		}
	}
	return min, nil
}
