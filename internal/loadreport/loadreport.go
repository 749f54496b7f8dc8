// Package loadreport defines the machine-readable artifact cmd/loadgen
// emits and cmd/benchguard gates: one Report per load run (traffic
// shape, client- and server-side counters, a latency histogram with
// p50/p99/p999), plus the regression-gate logic comparing a run against
// a committed baseline. It lives in its own package so the generator and
// the gate can never drift on the wire format.
package loadreport

import (
	"fmt"
	"math"
	"sort"
)

// HistBucketsMs are the latency histogram's upper bounds (milliseconds),
// log-spaced; the final +Inf bucket is implicit.
var HistBucketsMs = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Latency summarises a run's latency distribution (milliseconds).
type Latency struct {
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	P999  float64 `json:"p999_ms"`
	Max   float64 `json:"max_ms"`
	Mean  float64 `json:"mean_ms"`
	Count int64   `json:"count"`
}

// Bucket is one histogram bin: requests with latency ≤ LeMs
// (cumulative, Prometheus-style; LeMs 0 encodes +Inf).
type Bucket struct {
	LeMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// Report is one load run's artifact.
type Report struct {
	// Shape is the traffic shape: "hotkey" or "uniform".
	Shape string `json:"shape"`
	// DurationS is the measured run length; OfferedQPS the configured
	// offered rate (0 = closed loop) and SentQPS the achieved send rate.
	DurationS  float64 `json:"duration_s"`
	OfferedQPS float64 `json:"offered_qps"`
	SentQPS    float64 `json:"sent_qps"`
	// Client-side outcome counts.
	Sent     int64 `json:"sent"`
	OK       int64 `json:"ok"`
	Shed     int64 `json:"shed"`
	Err5xx   int64 `json:"err_5xx"`
	ErrOther int64 `json:"err_other"`
	// Server-side deltas scraped from /healthz around the run.
	// ServerSolves counts basis evaluations: one per admitted query.
	ServerAdmitted int64 `json:"server_admitted"`
	ServerShed     int64 `json:"server_shed"`
	ServerSolves   int64 `json:"server_solves"`
	// ShedRate is the client-observed 429 fraction of sent.
	ShedRate float64  `json:"shed_rate"`
	Latency  Latency  `json:"latency"`
	Hist     []Bucket `json:"hist,omitempty"`
	// Server is the server's own view of the run, deltaed from the
	// worker's /healthz latency histogram around it (absent against
	// daemons that predate the histograms).
	Server *ServerLatency `json:"server_latency,omitempty"`
}

// ServerLatency summarises the server-side latency histogram delta for a
// run, with the client-vs-server percentile skew: the network, client
// stack and accept-queue time the client pays that the server's own
// timer never sees. A large skew with a small server p99 means the
// bottleneck is in front of the daemon, not inside it.
type ServerLatency struct {
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	P99     float64 `json:"p99_ms"`
	Count   int64   `json:"count"`
	SkewP50 float64 `json:"skew_p50_ms"`
	SkewP99 float64 `json:"skew_p99_ms"`
}

// Derive fills the derived rate fields from the counts.
func (r *Report) Derive() {
	if r.Sent > 0 {
		r.ShedRate = float64(r.Shed) / float64(r.Sent)
		r.SentQPS = float64(r.Sent) / r.DurationS
	}
}

// Baseline is the committed bench/LOAD_baseline.json document: one
// reference Report per traffic shape, tagged with the mesh resolution
// the runs used so artifacts from different tiers never compare.
type Baseline struct {
	Resolution string            `json:"resolution"`
	Runs       map[string]Report `json:"runs"`
}

// Summarize computes the latency summary and histogram from raw
// per-request latencies (milliseconds). The sample slice is sorted in
// place.
func Summarize(samplesMs []float64) (Latency, []Bucket) {
	n := len(samplesMs)
	if n == 0 {
		return Latency{}, nil
	}
	sort.Float64s(samplesMs)
	pct := func(q float64) float64 {
		i := int(math.Ceil(q*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return samplesMs[i]
	}
	sum := 0.0
	for _, v := range samplesMs {
		sum += v
	}
	lat := Latency{
		P50:   pct(0.50),
		P90:   pct(0.90),
		P99:   pct(0.99),
		P999:  pct(0.999),
		Max:   samplesMs[n-1],
		Mean:  sum / float64(n),
		Count: int64(n),
	}
	hist := make([]Bucket, 0, len(HistBucketsMs)+1)
	for _, le := range HistBucketsMs {
		// Cumulative count ≤ le: first index past le in the sorted slice.
		idx := sort.SearchFloat64s(samplesMs, math.Nextafter(le, math.Inf(1)))
		hist = append(hist, Bucket{LeMs: le, Count: int64(idx)})
	}
	hist = append(hist, Bucket{LeMs: 0, Count: int64(n)}) // +Inf
	return lat, hist
}

// Gate compares a run against its baseline and returns the violations
// (empty = pass). maxRatio gates p99 wall-clock loosely (baseline and CI
// runner are different machines) with slackMs of absolute headroom so a
// microsecond-scale baseline can't fail on scheduler noise; the shed
// rate gets the same ratio philosophy with a 5-point absolute floor. Any
// 5xx is an unconditional failure — overload must shed, never error.
func Gate(run, base Report, maxRatio, slackMs float64) []string {
	var problems []string
	if run.Err5xx > 0 {
		problems = append(problems, fmt.Sprintf("%s: %d 5xx responses under load (want 0)", run.Shape, run.Err5xx))
	}
	if limit := base.Latency.P99*maxRatio + slackMs; run.Latency.P99 > limit {
		problems = append(problems, fmt.Sprintf("%s: p99 %.2f ms exceeds gate %.2f ms (baseline %.2f ms × %.1f + %.0f ms slack)",
			run.Shape, run.Latency.P99, limit, base.Latency.P99, maxRatio, slackMs))
	}
	if limit := base.ShedRate*maxRatio + 0.05; run.ShedRate > limit {
		problems = append(problems, fmt.Sprintf("%s: shed rate %.3f exceeds gate %.3f (baseline %.3f × %.1f + 0.05)",
			run.Shape, run.ShedRate, limit, base.ShedRate, maxRatio))
	}
	return problems
}
