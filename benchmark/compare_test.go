package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSide writes one design_flow record file per run; a run is correct
// unless its index is in failed.
func writeSide(t *testing.T, dir, side string, setups, latencies []float64, prints []string, failed ...int) {
	t.Helper()
	for i := range setups {
		correct, failedOps := true, 0
		for _, f := range failed {
			if f == i {
				correct, failedOps = false, 1
			}
		}
		rec := []record{{
			Workload: designFlow, Seed: 1, Seconds: defaultSeconds, Correct: correct,
			Attempted: 10, Failed: failedOps, Fingerprint: prints[i],
			Metrics: map[string]jsonMetric{
				"setup_s":          {Value: setups[i], Unit: "s"},
				"latency_ms":       {Value: latencies[i], Unit: "ms"},
				"throughput_per_s": {Value: 100, Unit: "1/s"},
				"peak_rss_mb":      {Value: 900, Unit: "MB"},
			},
		}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, side+string(rune('0'+i))+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareReportsRegressionsSpreadAndFingerprints(t *testing.T) {
	dir := t.TempDir()
	writeSide(t, dir, "a", []float64{10, 10.1, 9.9}, []float64{100, 101, 99}, []string{"f", "f", "f"})
	writeSide(t, dir, "b", []float64{13, 13.1, 12.9}, []float64{50, 100, 200}, []string{"f", "g", "f"})
	var out strings.Builder
	code, err := compareRecords(&out, filepath.Join(dir, "a*.json"), filepath.Join(dir, "b*.json"))
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if code != 1 {
		t.Errorf("exit code %d, want 1\n%s", code, text)
	}
	for _, want := range []string{"setup_s", "WORSE", "unresolved", "side B: fingerprint mismatch: design_flow seed 1: [f g]"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "side A: fingerprint") {
		t.Errorf("side A reported a mismatch:\n%s", text)
	}
}

// A change that breaks the correctness checks must not read as "no
// regression" because its failed runs drop out of the medians.
func TestCompareFailsWhenBRunsFail(t *testing.T) {
	same := []float64{10, 10.1, 9.9}
	prints := []string{"f", "f", "f"}
	for _, tc := range []struct {
		name        string
		failed      []int
		wantMissing bool
	}{
		{"every B run incorrect", []int{0, 1, 2}, true},
		{"one B run incorrect", []int{1}, false},
	} {
		dir := t.TempDir()
		writeSide(t, dir, "a", same, same, prints)
		writeSide(t, dir, "b", same, same, prints, tc.failed...)
		var out strings.Builder
		code, err := compareRecords(&out, filepath.Join(dir, "a*.json"), filepath.Join(dir, "b*.json"))
		if err != nil {
			t.Fatal(err)
		}
		text := out.String()
		if code != 1 {
			t.Errorf("%s: exit code %d, want 1\n%s", tc.name, code, text)
		}
		if !strings.Contains(text, "FAILS MORE") {
			t.Errorf("%s: output does not flag B's failures:\n%s", tc.name, text)
		}
		if got := strings.Contains(text, "on side B  MISSING"); got != tc.wantMissing {
			t.Errorf("%s: metrics reported missing on B: %v, want %v\n%s", tc.name, got, tc.wantMissing, text)
		}
	}
}

func TestCompareRefusesMixedRunLengths(t *testing.T) {
	dir := t.TempDir()
	same := []float64{10, 10.1, 9.9}
	writeSide(t, dir, "a", same, same, []string{"f", "f", "f"})
	b, err := json.Marshal([]record{{Workload: designFlow, Seed: 1, Seconds: 2 * defaultSeconds, Correct: true, Attempted: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b0.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := compareRecords(&out, filepath.Join(dir, "a*.json"), filepath.Join(dir, "b*.json"))
	if code != 2 || err == nil || !strings.Contains(err.Error(), "-seconds") {
		t.Errorf("mixed run lengths: exit code %d, error %v; want 2 and an error naming -seconds", code, err)
	}
}
