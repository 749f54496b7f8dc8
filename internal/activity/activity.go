// Package activity generates the chip activity scenarios the paper uses to
// drive thermal simulation: uniform, diagonal, random, plus hotspot and
// checkerboard extensions. A scenario yields per-tile weights for a
// cols×rows tile mesh; the weights are relative and are normalised by the
// floorplan's power mapper.
package activity

import (
	"fmt"
	"math/rand"
)

// Scenario produces per-tile activity weights.
type Scenario interface {
	// Name identifies the scenario in reports.
	Name() string
	// Weights returns cols*rows non-negative weights in row-major order
	// (row 0 at the bottom).
	Weights(cols, rows int) ([]float64, error)
}

func checkDims(cols, rows int) error {
	if cols <= 0 || rows <= 0 {
		return fmt.Errorf("activity: invalid mesh %dx%d", cols, rows)
	}
	return nil
}

// Uniform loads every tile equally.
type Uniform struct{}

// Name implements Scenario.
func (Uniform) Name() string { return "uniform" }

// Weights implements Scenario.
func (Uniform) Weights(cols, rows int) ([]float64, error) {
	if err := checkDims(cols, rows); err != nil {
		return nil, err
	}
	w := make([]float64, cols*rows)
	for i := range w {
		w[i] = 1
	}
	return w, nil
}

// Diagonal reproduces the paper's diagonal activity: the upper-left and
// lower-right quadrants dissipate twice the power of the upper-right and
// lower-left quadrants (8 W vs 4 W per quadrant in the paper's 24 W case).
type Diagonal struct {
	// HotWeight and ColdWeight set the per-tile weights of the hot and
	// cold quadrants. Zero values default to 2 and 1.
	HotWeight, ColdWeight float64
}

// Name implements Scenario.
func (Diagonal) Name() string { return "diagonal" }

// Weights implements Scenario.
func (d Diagonal) Weights(cols, rows int) ([]float64, error) {
	if err := checkDims(cols, rows); err != nil {
		return nil, err
	}
	hot, cold := d.HotWeight, d.ColdWeight
	if hot == 0 && cold == 0 {
		hot, cold = 2, 1
	}
	if hot < 0 || cold < 0 {
		return nil, fmt.Errorf("activity: negative diagonal weights %g, %g", hot, cold)
	}
	w := make([]float64, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			left := c < cols/2
			bottom := r < rows/2
			// Hot quadrants: upper-left and lower-right.
			if (left && !bottom) || (!left && bottom) {
				w[r*cols+c] = hot
			} else {
				w[r*cols+c] = cold
			}
		}
	}
	return w, nil
}

// Random assigns each tile an independent weight drawn uniformly from
// [Min, Max] with a deterministic seed.
type Random struct {
	Seed     int64
	Min, Max float64
}

// Name implements Scenario.
func (Random) Name() string { return "random" }

// Weights implements Scenario.
func (r Random) Weights(cols, rows int) ([]float64, error) {
	if err := checkDims(cols, rows); err != nil {
		return nil, err
	}
	lo, hi := r.Min, r.Max
	if lo == 0 && hi == 0 {
		lo, hi = 0.25, 1.75
	}
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("activity: invalid random range [%g, %g]", lo, hi)
	}
	rng := rand.New(rand.NewSource(r.Seed))
	w := make([]float64, cols*rows)
	for i := range w {
		w[i] = lo + rng.Float64()*(hi-lo)
	}
	return w, nil
}

// Hotspot concentrates activity on one tile, with a background level
// elsewhere.
type Hotspot struct {
	Col, Row   int
	Background float64 // weight of the other tiles, default 0.1
}

// Name implements Scenario.
func (Hotspot) Name() string { return "hotspot" }

// Weights implements Scenario.
func (h Hotspot) Weights(cols, rows int) ([]float64, error) {
	if err := checkDims(cols, rows); err != nil {
		return nil, err
	}
	if h.Col < 0 || h.Col >= cols || h.Row < 0 || h.Row >= rows {
		return nil, fmt.Errorf("activity: hotspot (%d,%d) outside %dx%d mesh", h.Col, h.Row, cols, rows)
	}
	bg := h.Background
	if bg == 0 {
		bg = 0.1
	}
	if bg < 0 {
		return nil, fmt.Errorf("activity: negative background %g", bg)
	}
	w := make([]float64, cols*rows)
	for i := range w {
		w[i] = bg
	}
	w[h.Row*cols+h.Col] = float64(cols*rows) * 1.0
	return w, nil
}

// Checkerboard alternates high/low tiles, a stress pattern for intra-die
// gradients.
type Checkerboard struct {
	High, Low float64 // default 2 and 0.5
}

// Name implements Scenario.
func (Checkerboard) Name() string { return "checkerboard" }

// Weights implements Scenario.
func (c Checkerboard) Weights(cols, rows int) ([]float64, error) {
	if err := checkDims(cols, rows); err != nil {
		return nil, err
	}
	high, low := c.High, c.Low
	if high == 0 && low == 0 {
		high, low = 2, 0.5
	}
	if high < 0 || low < 0 {
		return nil, fmt.Errorf("activity: negative checkerboard weights")
	}
	w := make([]float64, cols*rows)
	for r := 0; r < rows; r++ {
		for col := 0; col < cols; col++ {
			if (r+col)%2 == 0 {
				w[r*cols+col] = high
			} else {
				w[r*cols+col] = low
			}
		}
	}
	return w, nil
}

// Key identifies a scenario for caching its basis or its answers (nil
// means uniform). Name alone is not enough: parameterised scenarios
// (Random's seed, Hotspot's tile) share a name, and a long-lived cache
// must not answer a seed-2 query from a seed-1 basis, so the key appends
// the scenario's field values.
func Key(s Scenario) string {
	if s == nil {
		s = Uniform{}
	}
	return fmt.Sprintf("%s|%+v", s.Name(), s)
}

// ByName returns the scenario for a CLI-style name. Random uses the given
// seed.
func ByName(name string, seed int64) (Scenario, error) {
	switch name {
	case "uniform":
		return Uniform{}, nil
	case "diagonal":
		return Diagonal{}, nil
	case "random":
		return Random{Seed: seed}, nil
	case "hotspot":
		return Hotspot{Col: 1, Row: 1}, nil
	case "checkerboard":
		return Checkerboard{}, nil
	default:
		return nil, fmt.Errorf("activity: unknown scenario %q (want uniform, diagonal, random, hotspot or checkerboard)", name)
	}
}
