package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcselnoc/internal/loadreport"
)

func TestParse(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: vcselnoc
BenchmarkSolverBackends/mg-cg-8         	       1	 543166938 ns/op	         5.000 iters/solve
BenchmarkBuildBasis/cached-batch-16     	       2	 710932192 ns/op
BenchmarkWeird	garbage line that must be skipped
PASS
ok  	vcselnoc	4.958s
`
	art, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(art.Benchmarks), art.Benchmarks)
	}
	mg, ok := art.Benchmarks["BenchmarkSolverBackends/mg-cg"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if mg.NsPerOp != 543166938 {
		t.Errorf("ns/op = %g", mg.NsPerOp)
	}
	if mg.Metrics["iters/solve"] != 5 {
		t.Errorf("iters/solve metric = %g", mg.Metrics["iters/solve"])
	}
	bb := art.Benchmarks["BenchmarkBuildBasis/cached-batch"]
	if bb.NsPerOp != 710932192 || bb.Metrics != nil {
		t.Errorf("cached-batch entry wrong: %+v", bb)
	}
}

// writeReport writes one loadgen report JSON into dir and returns its path.
func writeReport(t *testing.T, dir string, rep loadreport.Report) string {
	t.Helper()
	path := filepath.Join(dir, rep.Shape+".json")
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadModeRoundTrip drives loadMode through its happy paths: rewrite
// the baseline from two shape reports, then gate a compliant run against
// it and check the merged artifact round-trips. (Failing-gate arithmetic
// is pinned in internal/loadreport's Gate tests; loadMode exits the
// process on failure, so only passing paths run in-process here.)
func TestLoadModeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	uniform := loadreport.Report{Shape: "uniform", DurationS: 5, Sent: 100, OK: 100, Latency: loadreport.Latency{P99: 40, Count: 100}}
	hotkey := loadreport.Report{Shape: "hotkey", DurationS: 5, Sent: 200, OK: 150, Shed: 50, ShedRate: 0.25,
		ServerSolves: 30, Latency: loadreport.Latency{P99: 25, Count: 200}}
	inputs := writeReport(t, dir, uniform) + "," + writeReport(t, dir, hotkey)

	basePath := filepath.Join(dir, "LOAD_baseline.json")
	loadMode(inputs, basePath, "", "preview", true, 2.0, 25)

	var base loadreport.Baseline
	data, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if base.Resolution != "preview" || len(base.Runs) != 2 {
		t.Fatalf("baseline = %+v", base)
	}
	if base.Runs["hotkey"].ServerSolves != 30 {
		t.Fatalf("hotkey run lost counters: %+v", base.Runs["hotkey"])
	}

	// Gate the same reports against the freshly written baseline: an
	// identical run must pass and the merged artifact must be written.
	outPath := filepath.Join(dir, "LOAD_preview.json")
	loadMode(inputs, basePath, outPath, "preview", false, 2.0, 25)
	var merged loadreport.Baseline
	data, err = os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &merged); err != nil {
		t.Fatal(err)
	}
	if len(merged.Runs) != 2 || merged.Runs["uniform"].Latency.P99 != 40 {
		t.Fatalf("merged artifact = %+v", merged)
	}
}
