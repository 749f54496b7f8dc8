package loadreport

import (
	"math"
	"strings"
	"testing"
)

func TestSummarizePercentiles(t *testing.T) {
	// 1..1000 ms: percentiles are exact order statistics.
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	lat, hist := Summarize(samples)
	if lat.P50 != 500 || lat.P90 != 900 || lat.P99 != 990 || lat.P999 != 999 || lat.Max != 1000 {
		t.Fatalf("percentiles = %+v", lat)
	}
	if lat.Count != 1000 || math.Abs(lat.Mean-500.5) > 1e-9 {
		t.Fatalf("count/mean = %d/%g", lat.Count, lat.Mean)
	}
	// Histogram is cumulative; the +Inf bucket holds everything.
	if len(hist) != len(HistBucketsMs)+1 {
		t.Fatalf("%d buckets", len(hist))
	}
	for _, b := range hist {
		switch b.LeMs {
		case 256:
			if b.Count != 256 {
				t.Fatalf("le=256 count %d", b.Count)
			}
		case 0:
			if b.Count != 1000 {
				t.Fatalf("+Inf count %d", b.Count)
			}
		}
	}
}

func TestSummarizeSmall(t *testing.T) {
	lat, _ := Summarize([]float64{3})
	if lat.P50 != 3 || lat.P999 != 3 || lat.Count != 1 {
		t.Fatalf("single sample: %+v", lat)
	}
	if lat, hist := Summarize(nil); lat.Count != 0 || hist != nil {
		t.Fatal("empty samples should yield a zero summary")
	}
}

func TestDerive(t *testing.T) {
	r := Report{DurationS: 2, Sent: 100, OK: 80, Shed: 20}
	r.Derive()
	if r.ShedRate != 0.2 || r.SentQPS != 50 {
		t.Fatalf("derived = %+v", r)
	}
}

func TestGate(t *testing.T) {
	base := Report{Shape: "hotkey", Latency: Latency{P99: 10}, ShedRate: 0.2}
	pass := Report{Shape: "hotkey", Latency: Latency{P99: 19}, ShedRate: 0.3}
	if problems := Gate(pass, base, 2.0, 25); len(problems) != 0 {
		t.Fatalf("pass run failed gate: %v", problems)
	}
	// p99 regression beyond ratio + slack.
	slow := Report{Shape: "hotkey", Latency: Latency{P99: 50}, ShedRate: 0.2}
	problems := Gate(slow, base, 2.0, 25)
	if len(problems) != 1 || !strings.Contains(problems[0], "p99") {
		t.Fatalf("slow run: %v", problems)
	}
	// Shed-rate regression.
	shedding := Report{Shape: "hotkey", Latency: Latency{P99: 10}, ShedRate: 0.5}
	problems = Gate(shedding, base, 2.0, 25)
	if len(problems) != 1 || !strings.Contains(problems[0], "shed rate") {
		t.Fatalf("shedding run: %v", problems)
	}
	// 5xx is an unconditional failure even when fast.
	erroring := Report{Shape: "hotkey", Latency: Latency{P99: 1}, Err5xx: 3}
	problems = Gate(erroring, base, 2.0, 25)
	if len(problems) != 1 || !strings.Contains(problems[0], "5xx") {
		t.Fatalf("erroring run: %v", problems)
	}
	// Tiny baseline: absolute slack absorbs scheduler noise.
	tiny := Report{Shape: "uniform", Latency: Latency{P99: 20}}
	if problems := Gate(tiny, Report{Shape: "uniform", Latency: Latency{P99: 0.5}}, 2.0, 25); len(problems) != 0 {
		t.Fatalf("tiny baseline: %v", problems)
	}
}
