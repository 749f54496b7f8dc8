package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRecords reads every -out file a side names: a glob pattern, or a
// directory meaning all its *.json files.
func loadRecords(side string) ([]record, error) {
	pattern := side
	if st, err := os.Stat(side); err == nil && st.IsDir() {
		pattern = filepath.Join(side, "*.json")
	}
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no run records match %q", side)
	}
	var recs []record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rs []record
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, rs...)
	}
	return recs, nil
}

// sideStats summarises one side's values of one metric.
type sideStats struct {
	n           int
	q1, med, q3 float64
	spread      float64 // (q3 − q1) / median
}

func statsOf(xs []float64) sideStats {
	q1, med, q3 := quartiles(xs)
	return sideStats{n: len(xs), q1: q1, med: med, q3: q3, spread: ratio(q3-q1, med)}
}

// tally counts one side's runs of one workload and their failures.
type tally struct {
	runs, incorrect   int
	attempted, failed int
}

func tallyOf(recs []record, workload string) tally {
	var t tally
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		t.runs++
		if !r.Correct {
			t.incorrect++
		}
		t.attempted += r.Attempted
		t.failed += r.Failed
	}
	return t
}

func (t tally) String() string {
	return fmt.Sprintf("%d runs, %d incorrect, %d of %d operations failed", t.runs, t.incorrect, t.failed, t.attempted)
}

// failsMoreThan reports whether t has a larger share of incorrect runs or
// of failed operations than o.
func (t tally) failsMoreThan(o tally) bool {
	return ratio(float64(t.incorrect), float64(t.runs)) > ratio(float64(o.incorrect), float64(o.runs)) ||
		ratio(float64(t.failed), float64(t.attempted)) > ratio(float64(o.failed), float64(o.attempted))
}

// runLengths returns the distinct -seconds values the records were run
// with.
func runLengths(recs ...[]record) []int {
	seen := make(map[int]bool)
	var out []int
	for _, rs := range recs {
		for _, r := range rs {
			if !seen[r.Seconds] {
				seen[r.Seconds] = true
				out = append(out, r.Seconds)
			}
		}
	}
	sort.Ints(out)
	return out
}

// compareRecords prints, per workload, each side's runs and failures, and
// for each end-to-end metric both sides' medians and quartiles over their
// correct runs and B's change against A relative to the metric's bound. It
// returns 1 when B fails more often than A, a metric has no values on a
// side, a metric got worse by more than its bound, or a side disagrees
// with itself on an output fingerprint; 2 when the records cannot be
// compared at all.
func compareRecords(w io.Writer, sideA, sideB string) (int, error) {
	a, err := loadRecords(sideA)
	if err != nil {
		return 2, err
	}
	b, err := loadRecords(sideB)
	if err != nil {
		return 2, err
	}
	if ls := runLengths(a, b); len(ls) > 1 {
		return 2, fmt.Errorf("the records were run with different -seconds %v; compare runs of one length", ls)
	}
	code := 0
	for _, wl := range workloads {
		ta, tb := tallyOf(a, wl), tallyOf(b, wl)
		if ta.runs == 0 && tb.runs == 0 {
			continue
		}
		verdict := ""
		if tb.failsMoreThan(ta) {
			verdict = "  FAILS MORE"
			code = 1
		}
		fmt.Fprintf(w, "%-14s A: %s; B: %s%s\n", wl, ta, tb, verdict)
	}
	fmt.Fprintf(w, "%-14s %-17s %-32s %-32s %9s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "delta", "bound", "verdict")
	for _, wl := range workloads {
		if tallyOf(a, wl).runs == 0 && tallyOf(b, wl).runs == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(a, wl, d.name), values(b, wl, d.name)
			if len(va) == 0 || len(vb) == 0 {
				var missing []string
				if len(va) == 0 {
					missing = append(missing, "A")
				}
				if len(vb) == 0 {
					missing = append(missing, "B")
				}
				fmt.Fprintf(w, "%-14s %-17s no correct untraced run on side %s  MISSING\n", wl, d.name, strings.Join(missing, " and "))
				code = 1
				continue
			}
			sa, sb := statsOf(va), statsOf(vb)
			delta := ratio(sb.med-sa.med, sa.med)
			worse := delta
			if d.higher {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case sa.spread > d.bound || sb.spread > d.bound:
				verdict = fmt.Sprintf("unresolved (spread A %.1f%%, B %.1f%%)", 100*sa.spread, 100*sb.spread)
			case worse > d.bound:
				verdict = "WORSE"
				code = 1
			case worse < -d.bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-17s %-32s %-32s %+8.1f%% %5.0f%%  %s\n", wl, d.name,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", sa.med, sa.q1, sa.q3, sa.n),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", sb.med, sb.q1, sb.q3, sb.n),
				100*delta, 100*d.bound, verdict)
		}
	}
	for _, side := range []struct {
		name string
		recs []record
	}{{"A", a}, {"B", b}} {
		for _, msg := range fingerprintMismatches(side.recs) {
			fmt.Fprintf(w, "side %s: fingerprint mismatch: %s\n", side.name, msg)
			code = 1
		}
	}
	return code, nil
}

// values collects one metric of one workload over a side's untraced,
// correct runs.
func values(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace || !r.Correct {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// fingerprintMismatches reports every workload and seed whose runs on one
// side produced different output fingerprints: the same inputs must give
// bit-identical outputs.
func fingerprintMismatches(recs []record) []string {
	seen := make(map[string]map[string]bool)
	for _, r := range recs {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if r.Fingerprint == "" {
			continue
		}
		if seen[key] == nil {
			seen[key] = make(map[string]bool)
		}
		seen[key][r.Fingerprint] = true
	}
	var out []string
	for key, fps := range seen {
		if len(fps) > 1 {
			var list []string
			for fp := range fps {
				list = append(list, fp)
			}
			sort.Strings(list)
			out = append(out, fmt.Sprintf("%s: %v", key, list))
		}
	}
	sort.Strings(out)
	return out
}
