// Command benchguard turns `go test -bench` output into a machine-readable
// benchmark artifact and gates performance regressions against a committed
// baseline. CI runs the solver benchmarks at preview resolution, feeds the
// text output through this tool, uploads the resulting BENCH_*.json, and
// fails the build when any benchmark slowed down by more than the allowed
// ratio relative to bench/BENCH_baseline.json.
//
// Usage:
//
//	go test -run '^$' -bench 'Solver|BuildBasis' -benchtime 1x . | \
//	    benchguard -baseline bench/BENCH_baseline.json -out BENCH_preview.json
//
// Flags:
//
//	-input      bench output file ("-" or empty reads stdin)
//	-baseline   committed baseline JSON; "" skips the comparison
//	-out        artifact to write; "" skips writing
//	-max-ratio  failure threshold on ns/op vs baseline (default 2.0)
//	-max-metric-ratio  threshold on custom metrics like iters/solve (1.5)
//	-resolution mesh-resolution tag stamped into the artifact
//	-write-baseline  overwrite the baseline with this run and exit
//
// Wall-clock (ns/op) gets the loose 2x gate because the committed
// baseline and the CI runner are different machines; the iters/solve
// metric the solver benches emit is machine-independent, so it gets the
// tight gate and is the reliable solver-regression signal. Metrics whose
// unit ends in "frac" (the V-cycle per-phase time fractions) are
// machine-dependent and reported without gating. Benchmarks present in
// only one of run/baseline are reported but never fail the gate, so
// adding or retiring benchmarks does not require lockstep baseline
// updates.
//
// Compare mode (-compare) diffs two artifacts — typically a before/after
// pair produced by this tool or by cmd/perfab — as a markdown table and
// exits non-zero when the new side regressed beyond the thresholds:
//
//	benchguard -compare old.json new.json
//
// Load-gating mode (-load-input) ingests cmd/loadgen report JSONs
// instead of bench text and gates them against bench/LOAD_baseline.json
// with the same philosophy: p99 within -load-max-ratio of the baseline
// (plus -load-slack-ms of absolute headroom), shed rate within the same
// ratio, and any 5xx under load an unconditional failure.
//
//	benchguard -load-input load_uniform.json,load_hotkey.json \
//	    -load-baseline bench/LOAD_baseline.json -load-out LOAD_preview.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"vcselnoc/internal/benchfmt"
	"vcselnoc/internal/loadreport"
)

func main() {
	input := flag.String("input", "", "bench output file (empty or - = stdin)")
	baseline := flag.String("baseline", "", "baseline JSON to compare against")
	out := flag.String("out", "", "artifact JSON to write")
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when ns/op exceeds baseline by this ratio")
	maxMetricRatio := flag.Float64("max-metric-ratio", 1.5, "fail when a custom metric (e.g. iters/solve) exceeds baseline by this ratio")
	resolution := flag.String("resolution", benchRes(), "mesh resolution tag recorded in the artifact (defaults to VCSELNOC_BENCH_RES or fast)")
	writeBaseline := flag.Bool("write-baseline", false, "overwrite the baseline with this run and exit")
	compare := flag.Bool("compare", false, "diff two artifact JSONs (positional: old.json new.json) as a markdown table; exit 1 on regression beyond the thresholds")
	loadInput := flag.String("load-input", "", "comma-separated loadgen report JSONs; switches to load-gating mode")
	loadBaseline := flag.String("load-baseline", "", "committed load baseline JSON (load mode)")
	loadOut := flag.String("load-out", "", "merged load artifact to write (load mode)")
	writeLoadBaseline := flag.Bool("write-load-baseline", false, "overwrite the load baseline with this run and exit")
	loadMaxRatio := flag.Float64("load-max-ratio", 2.0, "fail when a run's p99 or shed rate exceeds the load baseline by this ratio")
	loadSlackMs := flag.Float64("load-slack-ms", 25, "absolute p99 headroom added on top of the ratio gate (ms)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")

	if *loadInput != "" {
		loadMode(*loadInput, *loadBaseline, *loadOut, *resolution, *writeLoadBaseline, *loadMaxRatio, *loadSlackMs)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare needs exactly two artifact paths: old.json new.json")
		}
		if err := compareMode(os.Stdout, flag.Arg(0), flag.Arg(1), *maxRatio, *maxMetricRatio); err != nil {
			log.Fatal(err)
		}
		return
	}

	var r io.Reader = os.Stdin
	if *input != "" && *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	art, err := parse(r)
	if err != nil {
		log.Fatal(err)
	}
	art.Resolution = *resolution
	if len(art.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found in input")
	}
	if *writeBaseline {
		if *baseline == "" {
			log.Fatal("-write-baseline needs -baseline")
		}
		if err := writeJSON(*baseline, art); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline %s rewritten with %d benchmarks\n", *baseline, len(art.Benchmarks))
		return
	}
	if *out != "" {
		if err := writeJSON(*out, art); err != nil {
			log.Fatal(err)
		}
	}
	if *baseline == "" {
		return
	}
	base, err := readJSON(*baseline)
	if err != nil {
		log.Fatal(err)
	}
	if base.Resolution != art.Resolution {
		log.Fatalf("baseline resolution %q does not match run resolution %q", base.Resolution, art.Resolution)
	}
	failed := false
	for name, e := range art.Benchmarks {
		b, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("NEW   %-45s %12.0f ns/op (no baseline)\n", name, e.NsPerOp)
			continue
		}
		ratio := e.NsPerOp / b.NsPerOp
		verdict := "ok   "
		if ratio > *maxRatio {
			verdict = "FAIL "
			failed = true
		}
		fmt.Printf("%s %-45s %12.0f ns/op  baseline %12.0f  ratio %.2fx\n", verdict, name, e.NsPerOp, b.NsPerOp, ratio)
		// Custom metrics (iters/solve) are machine-independent, so they
		// get a tighter gate than wall-clock — an iteration-count jump is
		// a solver regression regardless of runner speed. Time-fraction
		// metrics (unit suffix "frac") are machine-dependent and stay
		// informational.
		for unit, v := range e.Metrics {
			bv, ok := b.Metrics[unit]
			if !ok || bv == 0 || benchfmt.Informational(unit) {
				continue
			}
			mr := v / bv
			if mr > *maxMetricRatio {
				failed = true
				fmt.Printf("FAIL  %-45s %12.3f %s  baseline %12.3f  ratio %.2fx\n", name, v, unit, bv, mr)
			}
		}
	}
	for name := range base.Benchmarks {
		if _, ok := art.Benchmarks[name]; !ok {
			fmt.Printf("GONE  %-45s (in baseline, not in run)\n", name)
		}
	}
	if failed {
		log.Fatalf("benchmark regression over %.1fx detected", *maxRatio)
	}
}

// loadMode merges one or more loadgen reports into a loadreport.Baseline
// document keyed by traffic shape and gates each run against the
// committed baseline (or rewrites it). It mirrors the bench path's
// philosophy: loose ratio gates because the baseline and the CI runner
// are different machines, resolution tags so artifacts from different
// mesh tiers never compare, and shapes present in only one side are
// reported but never fail the gate.
func loadMode(inputs, baselinePath, outPath, resolution string, writeBaseline bool, maxRatio, slackMs float64) {
	run := loadreport.Baseline{Resolution: resolution, Runs: map[string]loadreport.Report{}}
	for _, path := range strings.Split(inputs, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		var rep loadreport.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		if rep.Shape == "" {
			log.Fatalf("%s: report has no traffic shape", path)
		}
		if _, dup := run.Runs[rep.Shape]; dup {
			log.Fatalf("%s: duplicate report for shape %q", path, rep.Shape)
		}
		run.Runs[rep.Shape] = rep
	}
	if len(run.Runs) == 0 {
		log.Fatal("no load reports found in -load-input")
	}
	if writeBaseline {
		if baselinePath == "" {
			log.Fatal("-write-load-baseline needs -load-baseline")
		}
		if err := writeAnyJSON(baselinePath, run); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("load baseline %s rewritten with %d shapes\n", baselinePath, len(run.Runs))
		return
	}
	if outPath != "" {
		if err := writeAnyJSON(outPath, run); err != nil {
			log.Fatal(err)
		}
	}
	if baselinePath == "" {
		return
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	var base loadreport.Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("%s: %v", baselinePath, err)
	}
	if base.Resolution != run.Resolution {
		log.Fatalf("load baseline resolution %q does not match run resolution %q", base.Resolution, run.Resolution)
	}
	failed := false
	for shape, rep := range run.Runs {
		b, ok := base.Runs[shape]
		if !ok {
			fmt.Printf("NEW   %-8s p99 %8.2f ms  shed %.3f (no baseline)\n", shape, rep.Latency.P99, rep.ShedRate)
			continue
		}
		problems := loadreport.Gate(rep, b, maxRatio, slackMs)
		if len(problems) == 0 {
			fmt.Printf("ok    %-8s p99 %8.2f ms (baseline %8.2f)  shed %.3f (baseline %.3f)  evaluations %d\n",
				shape, rep.Latency.P99, b.Latency.P99, rep.ShedRate, b.ShedRate, rep.ServerSolves)
			continue
		}
		failed = true
		for _, p := range problems {
			fmt.Printf("FAIL  %s\n", p)
		}
	}
	for shape := range base.Runs {
		if _, ok := run.Runs[shape]; !ok {
			fmt.Printf("GONE  %-8s (in baseline, not in run)\n", shape)
		}
	}
	if failed {
		log.Fatalf("load regression over %.1fx detected", maxRatio)
	}
}

func writeAnyJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareMode diffs two artifacts as a markdown table and returns an
// error when the new side regressed beyond the thresholds. Mismatched
// resolutions are an error — a preview run never meaningfully compares
// against a fast one.
func compareMode(w io.Writer, oldPath, newPath string, maxRatio, maxMetricRatio float64) error {
	oldArt, err := readJSON(oldPath)
	if err != nil {
		return err
	}
	newArt, err := readJSON(newPath)
	if err != nil {
		return err
	}
	if oldArt.Resolution != newArt.Resolution {
		return fmt.Errorf("resolution mismatch: %s is %q, %s is %q", oldPath, oldArt.Resolution, newPath, newArt.Resolution)
	}
	deltas := benchfmt.Compare(oldArt, newArt)
	benchfmt.Markdown(w, deltas, oldPath, newPath)
	if regs := benchfmt.Regressions(deltas, maxRatio, maxMetricRatio); len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintf(w, "\nREGRESSION %s", r)
		}
		fmt.Fprintln(w)
		return fmt.Errorf("%d benchmark regression(s) beyond %.2fx", len(regs), maxRatio)
	}
	return nil
}

// parse converts go test bench output into an artifact stamped with the
// ambient bench resolution (see internal/benchfmt for the format).
func parse(r io.Reader) (*benchfmt.Artifact, error) {
	return benchfmt.Parse(r, benchRes())
}

func benchRes() string {
	if res := os.Getenv("VCSELNOC_BENCH_RES"); res != "" {
		return res
	}
	return "fast"
}

func readJSON(path string) (*benchfmt.Artifact, error) {
	return benchfmt.ReadFile(path)
}

func writeJSON(path string, art *benchfmt.Artifact) error {
	return benchfmt.WriteFile(path, art)
}
