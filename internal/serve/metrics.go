package serve

// Prometheus text-format metrics (exposition format 0.0.4), stdlib only:
// the handler renders the same warm-state statistics /healthz reports —
// basis builds, evaluations, admission counters — plus the latency
// histograms and the transient-job state gauge and step counter, in a
// form scrapers ingest directly.

import (
	"bytes"
	"fmt"
	"net/http"
	"time"
)

// handleMetrics renders the metrics snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer

	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}

	gauge("vcseld_uptime_seconds", "Seconds since the server started.")
	fmt.Fprintf(&b, "vcseld_uptime_seconds %g\n", time.Since(s.start).Seconds())

	type specMetric struct {
		name, help string
		value      func(SpecInfo) float64
		counter    bool
	}
	specMetrics := []specMetric{
		{"vcseld_basis_builds_total", "Superposition basis builds executed.", func(i SpecInfo) float64 { return float64(i.BasisBuilds) }, true},
		{"vcseld_evaluations_total", "Superposition basis evaluations (gradient and feasibility queries, map slices).", func(i SpecInfo) float64 { return float64(i.Evaluations) }, true},
		{"vcseld_model_cells", "Mesh cells of the warm model (0 until the first query builds it).", func(i SpecInfo) float64 { return float64(i.Cells) }, false},
		{"vcseld_admitted_total", "Hot-path queries admitted by admission control.", func(i SpecInfo) float64 { return float64(i.Admitted) }, true},
		{"vcseld_shed_total", "Hot-path queries shed with HTTP 429.", func(i SpecInfo) float64 { return float64(i.Shed) }, true},
		{"vcseld_warm_bases", "Superposition bases held in the model's bounded basis cache.", func(i SpecInfo) float64 { return float64(i.WarmBases) }, false},
		{"vcseld_basis_evictions_total", "Least-recently-used basis evictions.", func(i SpecInfo) float64 { return float64(i.BasisEvictions) }, true},
	}
	info := s.info()
	for _, m := range specMetrics {
		if m.counter {
			counter(m.name, m.help)
		} else {
			gauge(m.name, m.help)
		}
		fmt.Fprintf(&b, "%s{spec=%q} %g\n", m.name, specLabel, m.value(info))
	}

	histogram := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	histogram("vcseld_query_duration_seconds",
		"Server-side request latency by spec and endpoint class (query = cheap superposition queries, sweep = DSE grid windows).")
	s.latQuery.WritePrometheus(&b, "vcseld_query_duration_seconds",
		fmt.Sprintf("spec=%q,class=%q", specLabel, "query"))
	s.latSweep.WritePrometheus(&b, "vcseld_query_duration_seconds",
		fmt.Sprintf("spec=%q,class=%q", specLabel, "sweep"))
	gauge("vcseld_jobs", "Transient jobs by lifecycle state.")
	states := s.jobs.stateCounts()
	for _, state := range []string{JobQueued, JobRunning, JobDone, JobFailed} {
		fmt.Fprintf(&b, "vcseld_jobs{state=%q} %d\n", state, states[state])
	}
	counter("vcseld_job_steps_total", "Transient integration steps executed across all jobs.")
	fmt.Fprintf(&b, "vcseld_job_steps_total %d\n", s.jobs.stepsTotal.Load())
	counter("vcseld_jobs_expired_total", "Terminal transient jobs garbage-collected past their TTL.")
	fmt.Fprintf(&b, "vcseld_jobs_expired_total %d\n", s.jobs.expired.Load())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}
