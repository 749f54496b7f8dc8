// Command thermalmap runs one steady-state thermal simulation of the SCC +
// ONoC system and renders the optical-layer temperature field, either as
// an ASCII map on stdout or as CSV.
//
// Usage:
//
//	thermalmap [-chip 25] [-pvcsel 3.6e-3] [-pheater 1.08e-3]
//	           [-activity uniform] [-seed 1] [-res fast]
//	           [-layer optical] [-csv out.csv] [-width 100] [-workers 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/thermal"
)

func main() {
	chip := flag.Float64("chip", 25, "total chip power in watts")
	pv := flag.Float64("pvcsel", 3.6e-3, "per-VCSEL dissipated power in watts (driver matched)")
	ph := flag.Float64("pheater", 1.08e-3, "per-MR heater power in watts")
	act := flag.String("activity", "uniform", "chip activity: uniform, diagonal, random, hotspot, checkerboard")
	seed := flag.Int64("seed", 1, "seed for the random activity")
	res := flag.String("res", "fast", "mesh resolution: preview, coarse, fast or paper")
	layer := flag.String("layer", "optical", "stack layer to render")
	csvPath := flag.String("csv", "", "write the map as CSV to this path instead of ASCII")
	width := flag.Int("width", 100, "ASCII map width in characters")
	workers := flag.Int("workers", 0, "parallel solver workers (0 = all CPUs)")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("thermalmap: ")

	spec, err := thermal.PaperSpec()
	if err != nil {
		log.Fatal(err)
	}
	if spec.Res, err = thermal.ResolutionByName(*res); err != nil {
		log.Fatal(err)
	}
	spec.Workers = *workers
	scenario, err := activity.ByName(*act, *seed)
	if err != nil {
		log.Fatal(err)
	}

	model, err := thermal.NewModel(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "solving %d cells...\n", model.NumCells())
	result, err := model.Solve(thermal.Powers{
		Chip:     *chip,
		Activity: scenario,
		VCSEL:    *pv,
		Driver:   *pv,
		Heater:   *ph,
	})
	if err != nil {
		log.Fatal(err)
	}

	m, err := result.LayerSlice(*layer)
	if err != nil {
		log.Fatal(err)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.WriteCSV(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	} else {
		fmt.Print(m.RenderASCII(*width))
	}

	fmt.Printf("\nchip: avg %.2f °C, max %.2f °C\n", result.ChipAvg, result.ChipMax)
	min, max := result.ONITempRange()
	fmt.Printf("ONIs: mean %.2f °C, spread [%.2f, %.2f], worst gradient %.2f °C\n",
		result.MeanONITemp(), min, max, result.MaxONIGradient())
	for _, o := range result.ONIs {
		fmt.Printf("  ONI %2d: avg %.2f °C, gradient %.2f °C (hottest %s, coldest %s)\n",
			o.Index, o.AvgTemp, o.Gradient, o.HottestDevice, o.ColdestDevice)
	}
}
