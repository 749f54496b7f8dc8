package thermal

import (
	"fmt"
	"io"
	"math"
	"strings"

	"vcselnoc/internal/stack"
)

// LayerMap is a lateral temperature slice through one stack layer,
// averaged over the layer's z-extent per (i, j) column.
type LayerMap struct {
	Layer string
	// X and Y are the cell-centre coordinates (m).
	X, Y []float64
	// T[j][i] is the temperature (°C) at (X[i], Y[j]).
	T [][]float64
	// Min and Max bound the slice.
	Min, Max float64
}

// LayerSlice extracts the lateral temperature map of the named stack
// layer from a solved result.
func (r *Result) LayerSlice(layerName string) (*LayerMap, error) {
	if r.model == nil {
		return nil, fmt.Errorf("thermal: result has no model attached")
	}
	sp, err := r.model.spec.Stack.Find(layerName)
	if err != nil {
		return nil, err
	}
	g := r.model.grid
	var ks []int
	for k := 0; k < g.NZ(); k++ {
		zc := g.CellCenter(0, 0, k).Z
		if zc >= sp.Z0 && zc < sp.Z1 {
			ks = append(ks, k)
		}
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("thermal: no z-slice centred in layer %q", layerName)
	}
	m := &LayerMap{
		Layer: layerName,
		X:     make([]float64, g.NX()),
		Y:     make([]float64, g.NY()),
		Min:   math.Inf(1),
		Max:   math.Inf(-1),
	}
	for i := 0; i < g.NX(); i++ {
		m.X[i] = g.CellCenter(i, 0, 0).X
	}
	for j := 0; j < g.NY(); j++ {
		m.Y[j] = g.CellCenter(0, j, 0).Y
	}
	t := r.Field()
	m.T = make([][]float64, g.NY())
	for j := 0; j < g.NY(); j++ {
		m.T[j] = make([]float64, g.NX())
		for i := 0; i < g.NX(); i++ {
			var sum float64
			for _, k := range ks {
				sum += t[g.Index(i, j, k)]
			}
			v := sum / float64(len(ks))
			m.T[j][i] = v
			if v < m.Min {
				m.Min = v
			}
			if v > m.Max {
				m.Max = v
			}
		}
	}
	return m, nil
}

// OpticalLayerSlice is a shorthand for the ONoC layer.
func (r *Result) OpticalLayerSlice() (*LayerMap, error) {
	return r.LayerSlice(stack.LayerOptical)
}

// WriteCSV emits the map as x,y,temperature rows with a header.
func (m *LayerMap) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "x_m,y_m,temp_c\n"); err != nil {
		return err
	}
	for j, y := range m.Y {
		for i, x := range m.X {
			if _, err := fmt.Fprintf(w, "%.6e,%.6e,%.4f\n", x, y, m.T[j][i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// asciiRamp maps normalised temperature to glyphs, cold → hot.
const asciiRamp = " .:-=+*#%@"

// RenderASCII draws a downsampled character map (roughly cols wide) with a
// temperature legend — a quick visual check of the thermal field.
func (m *LayerMap) RenderASCII(cols int) string {
	if cols < 8 {
		cols = 8
	}
	nx := len(m.X)
	ny := len(m.Y)
	stepX := (nx + cols - 1) / cols
	if stepX < 1 {
		stepX = 1
	}
	// Terminal cells are ~2:1 tall, so sample y twice as coarsely.
	stepY := stepX * 2
	span := m.Max - m.Min
	var b strings.Builder
	fmt.Fprintf(&b, "%s layer: %.2f °C (dark) … %.2f °C (bright)\n", m.Layer, m.Min, m.Max)
	for j := ny - 1; j >= 0; j -= stepY {
		for i := 0; i < nx; i += stepX {
			idx := 0
			if span > 0 {
				idx = int((m.T[j][i] - m.Min) / span * float64(len(asciiRamp)-1))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(asciiRamp) {
				idx = len(asciiRamp) - 1
			}
			b.WriteByte(asciiRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
