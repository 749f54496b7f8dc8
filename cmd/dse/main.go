// Command dse runs the paper's design-space explorations from the command
// line: the Fig. 9-a temperature sweep, the Fig. 9-b gradient grid, the
// Fig. 9-b/10 heater exploration, the feasibility frontier under the 1 °C
// gradient constraint, and the per-activity optimal heater ratio.
//
// Usage:
//
//	dse [-res fast] [-chip 25] [-activity uniform] [-seed 1]
//	    [-mode all|temps|grid|heater|feasible] [-workers 0]
//	    [-shards host1:8080,host2:8080] [-coordinator http://ctl:9090]
//
// With -shards, the temps and grid sweeps scatter their row windows
// across the named vcseld workers and gather the rows back in order;
// chunks whose worker fails are rerouted to surviving workers and only
// then recomputed locally, so the run always completes. With
// -coordinator, the sweeps go to a vcselctl fleet coordinator instead,
// which places chunks on its least-loaded alive workers and handles
// failures fleet-side. The sequential searches (heater, feasible) stay
// local either way.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"sync"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/core"
	"vcselnoc/internal/dse"
	"vcselnoc/internal/serve"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/thermal"
)

// sweeper is the grid-evaluation surface shared by the in-process
// Explorer and the sharded scatter/gather client.
type sweeper interface {
	SweepAvgTemp(chips, lasers []float64) ([][]dse.AvgTempPoint, error)
	SweepGradient(chip float64, lasers, heaters []float64) ([][]dse.GradientPoint, error)
}

func main() {
	res := flag.String("res", "fast", "mesh resolution: preview, coarse, fast or paper")
	chip := flag.Float64("chip", 25, "total chip power in watts")
	act := flag.String("activity", "uniform", "chip activity scenario")
	seed := flag.Int64("seed", 1, "seed for the random activity")
	mode := flag.String("mode", "all", "exploration: all, temps, grid, heater, feasible")
	workers := flag.Int("workers", 0, "parallel solver/sweep workers (0 = all CPUs)")
	shards := flag.String("shards", "", "comma-separated vcseld workers to scatter sweeps across (e.g. host1:8080,host2:8080)")
	coordinator := flag.String("coordinator", "", "vcselctl coordinator URL to route sweeps through (overrides -shards)")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("dse: ")

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

	// localExplorer builds the in-process model + basis on first use: the
	// default evaluation path, the sequential-search engine, and the
	// sharded client's retry fallback. Lazy so a fully sharded sweep run
	// never pays the local basis build.
	var once sync.Once
	var lex *dse.Explorer
	var lerr error
	localExplorer := func() (*dse.Explorer, error) {
		once.Do(func() {
			m, err := core.NewWithSpec(spec, snr.DefaultConfig())
			if err != nil {
				lerr = err
				return
			}
			fmt.Printf("model: %d cells; building %s basis...\n", m.Model().NumCells(), scenario.Name())
			lex, lerr = m.Explorer(scenario)
		})
		return lex, lerr
	}

	// -coordinator is sugar for -shards with the coordinator as the only
	// "worker": the coordinator serves the same sweep API and
	// sub-scatters across its fleet, while the preflight (GET /v1/specs)
	// and the local fallback keep working unchanged at this layer.
	targets := *shards
	if *coordinator != "" {
		targets = *coordinator
	}

	var grids sweeper
	if targets == "" {
		if grids, err = localExplorer(); err != nil {
			log.Fatal(err)
		}
	} else {
		client, err := serve.NewShardClient(targets, serve.Scenario{
			Activity: *act,
			Seed:     *seed,
		}, localExplorer)
		if err != nil {
			log.Fatal(err)
		}
		// Refuse to merge rows from workers meshing at a different
		// resolution than this run — locally retried chunks must be
		// exchangeable with fleet rows.
		client.ExpectRes = &spec.Res
		fmt.Printf("scattering sweeps across %d workers: %s\n", len(client.Workers), strings.Join(client.Workers, ", "))
		grids = client
	}

	all := *mode == "all"
	if all || *mode == "temps" {
		temps(grids, *chip)
	}
	if all || *mode == "grid" {
		grid(grids, *chip)
	}
	if all || *mode == "heater" {
		ex, err := localExplorer()
		if err != nil {
			log.Fatal(err)
		}
		heater(ex, *chip)
	}
	if all || *mode == "feasible" {
		ex, err := localExplorer()
		if err != nil {
			log.Fatal(err)
		}
		feasible(ex, *chip)
	}
}

func temps(sw sweeper, chip float64) {
	chips := []float64{chip * 0.5, chip * 0.75, chip, chip * 1.25}
	lasers := []float64{0, 2e-3, 4e-3, 6e-3}
	table, err := sw.SweepAvgTemp(chips, lasers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmean ONI temperature (°C):")
	fmt.Println("  Pchip\\Pv(mW):      0      2      4      6")
	for i, row := range table {
		fmt.Printf("  %6.2f W    ", chips[i])
		for _, pt := range row {
			fmt.Printf(" %6.2f", pt.MeanONITemp)
		}
		fmt.Println()
	}
}

func grid(sw sweeper, chip float64) {
	lasers := []float64{1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3}
	heaters := []float64{0, 0.5e-3, 1e-3, 1.5e-3, 2e-3}
	table, err := sw.SweepGradient(chip, lasers, heaters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmean intra-ONI gradient (°C):")
	fmt.Print("  Pv\\Ph(mW):  ")
	for _, ph := range heaters {
		fmt.Printf(" %6.1f", ph*1e3)
	}
	fmt.Println()
	for i, row := range table {
		fmt.Printf("  %4.0f mW     ", lasers[i]*1e3)
		for _, pt := range row {
			fmt.Printf(" %6.2f", pt.MeanGradient)
		}
		fmt.Println()
	}
}

func heater(ex *dse.Explorer, chip float64) {
	fmt.Println("\noptimal heater power per laser power:")
	for _, pv := range []float64{1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3} {
		opt, err := ex.OptimalHeater(chip, pv, pv)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Pv=%3.0f mW: Ph*=%.2f mW (ratio %.2f), gradient %.2f → %.2f °C\n",
			pv*1e3, opt.PHeater*1e3, opt.Ratio, opt.GradientNoHeater, opt.MeanGradient)
	}
}

func feasible(ex *dse.Explorer, chip float64) {
	fmt.Printf("\nfeasibility under the %.1f °C gradient constraint (heater ratio 0.3):\n", dse.GradientLimit)
	pvMax, err := ex.MaxFeasibleLaserPower(chip, 0.3, 10e-3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  max feasible P_VCSEL: %.2f mW\n", pvMax*1e3)
	for _, pv := range []float64{1e-3, 2e-3, 4e-3, 6e-3} {
		f, err := ex.CheckFeasibility(thermal.Powers{
			Chip: chip, VCSEL: pv, Driver: pv, Heater: 0.3 * pv,
		})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "violates"
		if f.Feasible {
			verdict = "satisfies"
		}
		fmt.Printf("  Pv=%3.0f mW: max gradient %.2f °C — %s the constraint\n",
			pv*1e3, f.MaxGradient, verdict)
	}
}
