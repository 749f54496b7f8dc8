// Command perfab is the A/B performance harness for the mg-cg hot loop:
// it runs named benchmarks across a sweep of worker counts, optionally
// captures CPU and heap profiles per configuration, and emits one
// benchmark artifact per configuration plus a markdown delta report. The
// artifacts are the same JSON format cmd/benchguard consumes, so any pair
// can be diffed later with `benchguard -compare old.json new.json`; the
// first configuration of the sweep (by default 1 worker) is the in-report
// baseline every other configuration is compared against.
// Configurations are named w<workers>. The V-cycle's precision is not an
// axis: the benchmarks' tolerance and mesh fix it.
//
// Usage:
//
//	go run ./cmd/perfab -res preview -bench 'BenchmarkSolverBackends/mg-cg' \
//	    -workers 1,4 -profiles -out perfab_out
//
// Each configuration runs `go test -run '^$' -bench ...` in a child
// process with the worker count passed through the VCSELNOC_WORKERS
// environment variable the root-package benchmarks honour, and
// VCSELNOC_BENCH_RES selecting the mesh tier. When the sweep includes
// BenchmarkCoarseSolve the report additionally splits the one-off
// factorisation cost from the recurring per-cycle coarse solve. With
// -profiles the child also writes <config>.cpu.pprof and
// <config>.mem.pprof next to the artifacts, along with the test binary
// (<config>.test) needed to symbolise them:
//
//	go tool pprof perfab_out/w4.test perfab_out/w4.cpu.pprof
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"vcselnoc/internal/benchfmt"
)

// config is one point of the sweep: a worker count.
type config string

func (c config) name() string { return "w" + string(c) }

func main() {
	pkg := flag.String("pkg", ".", "package holding the benchmarks")
	bench := flag.String("bench", "BenchmarkSolverBackends/mg-cg", "benchmark regexp passed to go test -bench")
	res := flag.String("res", "preview", "mesh resolution tier (VCSELNOC_BENCH_RES)")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime per configuration")
	count := flag.Int("count", 1, "go test -count per configuration")
	workers := flag.String("workers", "1,4", "comma-separated worker counts to sweep")
	outDir := flag.String("out", "perfab_out", "directory for artifacts, profiles and the report")
	profiles := flag.Bool("profiles", false, "capture CPU and heap profiles per configuration")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfab: ")

	var configs []config
	for _, w := range splitList(*workers) {
		configs = append(configs, config(w))
	}
	if len(configs) == 0 {
		log.Fatal("empty sweep: need at least one worker count")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	absOut, err := filepath.Abs(*outDir)
	if err != nil {
		log.Fatal(err)
	}

	arts := make(map[string]*benchfmt.Artifact, len(configs))
	for _, c := range configs {
		log.Printf("running %s (%s, -benchtime %s)", c.name(), *bench, *benchtime)
		art, err := runConfig(c, *pkg, *bench, *res, *benchtime, *count, absOut, *profiles)
		if err != nil {
			log.Fatalf("%s: %v", c.name(), err)
		}
		if len(art.Benchmarks) == 0 {
			log.Fatalf("%s: no benchmark results — does -bench %q match anything?", c.name(), *bench)
		}
		path := filepath.Join(absOut, c.name()+".json")
		if err := benchfmt.WriteFile(path, art); err != nil {
			log.Fatal(err)
		}
		arts[c.name()] = art
	}

	var report bytes.Buffer
	writeReport(&report, configs, arts, *res, *bench)
	reportPath := filepath.Join(absOut, "report.md")
	if err := os.WriteFile(reportPath, report.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(report.Bytes())
	log.Printf("wrote %d artifacts and %s", len(arts), reportPath)
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// runConfig runs one benchmark child process and parses its output.
func runConfig(c config, pkg, bench, res, benchtime string, count int, absOut string, profiles bool) (*benchfmt.Artifact, error) {
	args := []string{"test", "-run", "^$", "-bench", bench,
		"-benchtime", benchtime, "-count", fmt.Sprint(count)}
	if profiles {
		// Keep the test binary: pprof needs it to symbolise the profiles.
		args = append(args,
			"-cpuprofile", c.name()+".cpu.pprof",
			"-memprofile", c.name()+".mem.pprof",
			"-outputdir", absOut,
			"-o", filepath.Join(absOut, c.name()+".test"))
	}
	args = append(args, pkg)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(),
		"VCSELNOC_BENCH_RES="+res,
		"VCSELNOC_WORKERS="+string(c),
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test failed: %v\n%s", err, out)
	}
	return benchfmt.Parse(bytes.NewReader(out), res)
}

// writeReport renders the sweep summary: a configs × benchmarks speedup
// matrix against the first configuration, then a full benchfmt delta
// table per non-baseline configuration.
func writeReport(w *bytes.Buffer, configs []config, arts map[string]*benchfmt.Artifact, res, bench string) {
	base := configs[0]
	baseArt := arts[base.name()]
	fmt.Fprintf(w, "# perfab sweep — %s @ %s\n\n", bench, res)
	fmt.Fprintf(w, "Baseline configuration: **%s**. Speedup is baseline ns/op ÷ config ns/op (higher is faster).\n\n", base.name())

	names := map[string]bool{}
	for _, art := range arts {
		for n := range art.Benchmarks {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	fmt.Fprintf(w, "| config |")
	for _, n := range sorted {
		fmt.Fprintf(w, " %s |", strings.TrimPrefix(n, "Benchmark"))
	}
	fmt.Fprintf(w, "\n|---|")
	for range sorted {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintln(w)
	for _, c := range configs {
		art := arts[c.name()]
		fmt.Fprintf(w, "| %s |", c.name())
		for _, n := range sorted {
			e, ok := art.Benchmarks[n]
			b, okBase := baseArt.Benchmarks[n]
			switch {
			case !ok:
				fmt.Fprintf(w, " — |")
			case !okBase || b.NsPerOp == 0 || c == base:
				fmt.Fprintf(w, " %.1f ms |", e.NsPerOp/1e6)
			default:
				fmt.Fprintf(w, " %.1f ms (%.2f×) |", e.NsPerOp/1e6, b.NsPerOp/e.NsPerOp)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	writeCoarseSplit(w, configs, arts)

	for _, c := range configs[1:] {
		fmt.Fprintf(w, "## %s vs %s\n\n", base.name(), c.name())
		benchfmt.Markdown(w, benchfmt.Compare(baseArt, arts[c.name()]), base.name(), c.name())
		fmt.Fprintln(w)
	}
}

// writeCoarseSplit separates the one-off coarse factorisation cost from
// the recurring per-cycle solve when the sweep ran BenchmarkCoarseSolve:
// the factor is paid once per hierarchy, so what matters for the hot
// loop is the solve column and how many V-cycles amortise the factor.
func writeCoarseSplit(w *bytes.Buffer, configs []config, arts map[string]*benchfmt.Artifact) {
	const (
		factorName = "BenchmarkCoarseSolve/factor"
		solveName  = "BenchmarkCoarseSolve/solve"
	)
	ran := false
	for _, art := range arts {
		if _, ok := art.Benchmarks[factorName]; ok {
			ran = true
			break
		}
		if _, ok := art.Benchmarks[solveName]; ok {
			ran = true
			break
		}
	}
	if !ran {
		return
	}
	fmt.Fprintf(w, "## Coarse solve: one-off factor vs per-cycle solve\n\n")
	fmt.Fprintf(w, "| config | factor (ms, once per hierarchy) | solve (ms, per V-cycle) | cycles to amortise factor |\n|---|---|---|---|\n")
	for _, c := range configs {
		art := arts[c.name()]
		f, okF := art.Benchmarks[factorName]
		s, okS := art.Benchmarks[solveName]
		row := func(e benchfmt.Entry, ok bool) string {
			if !ok {
				return "—"
			}
			return fmt.Sprintf("%.2f", e.NsPerOp/1e6)
		}
		amort := "—"
		if okF && okS && s.NsPerOp > 0 {
			amort = fmt.Sprintf("%.0f", f.NsPerOp/s.NsPerOp)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", c.name(), row(f, okF), row(s, okS), amort)
	}
	fmt.Fprintln(w)
}
