// Command vcselbench is the repository's benchmark. It runs two
// workloads at the fast mesh tier, drives the system only through its
// public surfaces — the vcselnoc facade in process, and vcseld child
// processes over HTTP — checks every answer, and prints end-to-end
// metrics, or with -trace 1 the per-layer metrics of a traced run of the
// same calls. The last line of its output is one JSON object.
//
// From the repository root (run.sh builds this program and vcseld):
//
//	bash benchmark/run.sh -workload query_unique -seed 1 [-seconds 15] [-trace 0|1] [-out run.json]
//	bash benchmark/run.sh -seed 1                       # both workloads
//	bash benchmark/run.sh -compare 'A/*.json' 'B/*.json' # two sets of -out records
//
// See README.md for what each workload and metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// Set-up is sampled three times per run: the design flow runs three cold
// repetitions, and the query workload starts three warm daemons in turn,
// each serving a third of the load. Either way a run takes 40–60 s, and
// the set-ups spread the measured work over the whole of it.
const (
	flowReps     = 3
	queryDaemons = 3
)

// plan sizes the query workload's phases on each daemon.
type plan struct {
	// warmup is unmeasured closed-loop load before the measured phases.
	warmup time.Duration
	// closed and open are the measured closed-loop and open-loop phases.
	closed, open time.Duration
}

// newPlan fits the query workload's measured load into the given seconds:
// over the three daemons, closed-loop and open-loop phases take half of
// it each. At the default 15 s the open loop sends 1,125 requests, enough
// for ten beyond its p99. The design flow is a fixed amount of work.
func newPlan(seconds int) plan {
	s := time.Duration(seconds) * time.Second / queryDaemons
	return plan{warmup: s / 8, closed: s / 2, open: s / 2}
}

// workDir, under the directory the benchmark runs in, holds trace files.
const workDir = ".bench_build"

type config struct {
	seed int64
	// seconds is the run length the plan was sized for; run records carry
	// it so that -compare never mixes runs of different lengths.
	seconds int
	trace   bool
	// res is the mesh tier (vcseld's -res); tests use "preview".
	res    string
	vcseld string
	work   string
	plan   plan
}

// tracePath is where a traced run of the workload writes its spans.
func (c config) tracePath(workload string) string {
	return filepath.Join(c.work, fmt.Sprintf("trace-%s-seed%d.json", workload, c.seed))
}

func runWorkload(name string, cfg config) (*result, error) {
	switch name {
	case designFlow:
		return runDesignFlow(cfg)
	case queryUnique:
		return runQuery(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vcselbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", ")+" (empty runs both)")
	seed := fs.Int64("seed", 1, "seed every input is drawn from")
	seconds := fs.Int("seconds", defaultSeconds, "run length in seconds that the load phases are sized to; BENCHMARK.json's run_seconds, recorded in -out records")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "also write the run records, the input of -compare, to this file")
	vcseld := fs.String("vcseld", "", "vcseld binary the served workloads run")
	compare := fs.Bool("compare", false, "compare two sets of -out records: -compare 'A/*.json' 'B/*.json'")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "-compare takes two arguments: side A's and side B's record files (glob or directory)")
			return 2
		}
		code, err := compareRecords(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, err)
		}
		return code
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(stderr, "usage: vcselbench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out run.json]")
		return 2
	}
	names := workloads
	if *workload != "" {
		names = []string{*workload}
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1, res: "fast",
		vcseld: *vcseld, work: workDir, plan: newPlan(*seconds),
	}
	var results []*result
	for _, name := range names {
		r, err := runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		}
		r.printHuman(stdout)
		results = append(results, r)
	}
	s, err := summarise(results)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *out != "" {
		if err := writeRecords(*out, results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !s.Correct {
		return 1
	}
	return 0
}
