package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Workload names.
const (
	designFlow  = "design_flow"
	queryUnique = "query_unique"
)

var workloads = []string{designFlow, queryUnique}

var (
	flowOnly  = []string{designFlow}
	queryOnly = []string{queryUnique}
)

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds (a test keeps the two in step).
type metricDef struct {
	name, unit string
	higher     bool
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// on lists the workloads that measure a per-layer metric; on the others
	// the layer is idle and the metric reads 0.
	on []string
}

// endToEnd metrics are measured by every workload with tracing off. Each
// workload defines its unit of work (see README.md): a design-flow
// repetition or a gradient query.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "latency_ms", unit: "ms", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.10},
}

// perLayer metrics come from the traced run.
var perLayer = []metricDef{
	{name: "thermal.assemble_s", unit: "s", on: flowOnly},
	{name: "mg.hierarchy_s", unit: "s", on: flowOnly},
	{name: "thermal.basis_build_s", unit: "s", on: flowOnly},
	{name: "fvm.basis_iters", unit: "count", on: flowOnly},
	{name: "mg.smooth_s", unit: "s", on: flowOnly},
	{name: "mg.restrict_s", unit: "s", on: flowOnly},
	{name: "mg.prolong_s", unit: "s", on: flowOnly},
	{name: "mg.coarse_s", unit: "s", on: flowOnly},
	{name: "fvm.krylov_other_s", unit: "s", on: flowOnly},
	{name: "thermal.basis_rebuild_s", unit: "s", on: flowOnly},
	{name: "dse.sweep_s", unit: "s", on: flowOnly},
	{name: "dse.heater_search_s", unit: "s", on: flowOnly},
	{name: "core.snr_s", unit: "s", on: flowOnly},
	{name: "flow.attributed_frac", unit: "ratio", higher: true, on: flowOnly},
	{name: "query.p50_ms", unit: "ms", on: queryOnly},
	{name: "query.p99_ms", unit: "ms", on: queryOnly},
	{name: "serve.solve_us_p50", unit: "us", on: queryOnly},
	{name: "serve.solve_us_p99", unit: "us", on: queryOnly},
	{name: "serve.batch_wait_us_p50", unit: "us", on: queryOnly},
	{name: "serve.batch_wait_us_p99", unit: "us", on: queryOnly},
	{name: "serve.cache_us_p50", unit: "us", on: queryOnly},
	{name: "serve.cache_us_p99", unit: "us", on: queryOnly},
	{name: "serve.admission_us_p50", unit: "us", on: queryOnly},
	{name: "serve.admission_us_p99", unit: "us", on: queryOnly},
	{name: "serve.basis_us_p50", unit: "us", on: queryOnly},
	{name: "serve.basis_us_p99", unit: "us", on: queryOnly},
	{name: "serve.decode_encode_us_p50", unit: "us", on: queryOnly},
	{name: "serve.decode_encode_us_p99", unit: "us", on: queryOnly},
	{name: "http.overhead_us_p50", unit: "us", on: queryOnly},
	{name: "http.overhead_us_p99", unit: "us", on: queryOnly},
	{name: "serve.evals_per_request", unit: "ratio", on: queryOnly},
	{name: "serve.batch_size_mean", unit: "count", higher: true, on: queryOnly},
	{name: "serve.startup_s", unit: "s", on: queryOnly},
	{name: "serve.warm_s", unit: "s", on: queryOnly},
	{name: "loadgen.late_p99_ms", unit: "ms", on: queryOnly},
	{name: "trace.dropped_frac", unit: "ratio", on: queryOnly},
}

func (d metricDef) measuredOn(workload string) bool {
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v    float64
	n    int
	note string
}

type check struct {
	name   string
	ok     bool
	detail string
}

// result is one workload run.
type result struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	attempted   int
	failed      int
	fingerprint string
	checks      []check
	values      map[string]value
}

func newResult(workload string, cfg config) *result {
	return &result{workload: workload, seed: cfg.seed, seconds: cfg.seconds, trace: cfg.trace, values: make(map[string]value)}
}

func (r *result) set(name string, v float64, n int, note string) {
	r.values[name] = value{v: v, n: n, note: note}
}

// check records a correctness check; a failed check counts as a failed
// operation.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.failed++
	}
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return r.failed == 0
}

// reported lists the metrics this run reports: the end-to-end ones, or
// with tracing the per-layer ones.
func (r *result) reported() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// metric returns a reported metric's value; a per-layer metric of a layer
// this workload leaves idle reads 0. It fails when the run did not measure
// a metric it should have.
func (r *result) metric(d metricDef) (value, error) {
	if v, ok := r.values[d.name]; ok {
		return v, nil
	}
	if r.trace && !d.measuredOn(r.workload) {
		return value{note: "idle on " + r.workload}, nil
	}
	return value{}, fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
}

// finite keeps a JSON document valid when a percentile is +Inf because
// too many operations failed; such a run is already marked incorrect.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// printHuman writes the run's checks and metrics, one per line, each
// timing with its sample count.
func (r *result) printHuman(w io.Writer) {
	mode := "end-to-end"
	if r.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s seed=%d: %s metrics\n", r.workload, r.seed, mode)
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", status, c.name, c.detail)
	}
	for _, d := range r.reported() {
		v, err := r.metric(d)
		if err != nil {
			fmt.Fprintf(w, "  %-30s MISSING\n", d.name)
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s n=%-6d %s\n", d.name, v.v, d.unit, v.n, v.note)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d fail_frac=%.6g (base %d) fingerprint=%s\n",
		r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)), r.attempted, r.fingerprint)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line the benchmark prints.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarise builds the final line over one or more runs. With several
// runs each metric name is prefixed by its workload.
func summarise(rs []*result) (summary, error) {
	s := summary{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, r := range rs {
		s.Correct = s.Correct && r.correct()
		s.Attempted += r.attempted
		s.Failed += r.failed
		for _, d := range r.reported() {
			v, err := r.metric(d)
			if err != nil {
				return s, err
			}
			name := d.name
			if len(rs) > 1 {
				name = r.workload + "." + name
			}
			s.Metrics[name] = jsonMetric{Value: finite(v.v), Unit: d.unit}
		}
	}
	return s, nil
}

// record is one run as written by -out and read by -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Seconds is the run length the run was given (-seconds); -compare
	// refuses to pool or compare runs of different lengths.
	Seconds     int                   `json:"seconds"`
	Trace       bool                  `json:"trace"`
	Correct     bool                  `json:"correct"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	Fingerprint string                `json:"fingerprint"`
	Metrics     map[string]jsonMetric `json:"metrics"`
}

func writeRecords(path string, rs []*result) error {
	recs := make([]record, 0, len(rs))
	for _, r := range rs {
		s, err := summarise([]*result{r})
		if err != nil {
			return err
		}
		recs = append(recs, record{
			Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: r.trace,
			Correct: s.Correct, Attempted: s.Attempted, Failed: s.Failed,
			Fingerprint: r.fingerprint, Metrics: s.Metrics,
		})
	}
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
