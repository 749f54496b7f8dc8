package serve

import (
	"fmt"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/core"
	"vcselnoc/internal/dse"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/obs"
	"vcselnoc/internal/ornoc"
	"vcselnoc/internal/thermal"
)

// Scenario is the wire form of one operating point: the chip-activity
// shape and the four power knobs. It is the request body (or embedded
// portion) of every query endpoint.
type Scenario struct {
	// Activity names the chip activity scenario (uniform, diagonal,
	// random, hotspot, checkerboard); empty means uniform.
	Activity string `json:"activity,omitempty"`
	// Seed parameterises the random activity.
	Seed int64 `json:"seed,omitempty"`
	// Chip is the total processing power (W).
	Chip float64 `json:"chip"`
	// PVCSEL is the per-laser dissipated power (W).
	PVCSEL float64 `json:"pvcsel"`
	// PDriver is the per-driver power (W); nil applies the paper's worst
	// case P_driver = P_VCSEL.
	PDriver *float64 `json:"pdriver,omitempty"`
	// PHeater is the per-MR heater power (W).
	PHeater float64 `json:"pheater"`
}

// scenario resolution helpers -------------------------------------------

// activityScenario resolves the named chip activity.
func (s Scenario) activityScenario() (activity.Scenario, error) {
	if s.Activity == "" {
		return activity.Uniform{}, nil
	}
	return activity.ByName(s.Activity, s.Seed)
}

// powers maps the wire scenario onto thermal power knobs (activity
// excluded — the caller attaches the resolved scenario where needed).
func (s Scenario) powers() thermal.Powers {
	driver := s.PVCSEL
	if s.PDriver != nil {
		driver = *s.PDriver
	}
	return thermal.Powers{Chip: s.Chip, VCSEL: s.PVCSEL, Driver: driver, Heater: s.PHeater}
}

// QueryResponse is the answer to a gradient or feasibility query: the
// superposition evaluation's ONI summary plus the paper's 1 °C verdict.
type QueryResponse struct {
	// MeanONITemp averages the per-ONI average temperatures (°C).
	MeanONITemp float64 `json:"mean_oni_temp"`
	// MeanGradient and MaxGradient summarise the intra-ONI gradients (°C).
	MeanGradient float64 `json:"mean_gradient"`
	MaxGradient  float64 `json:"max_gradient"`
	// Feasible reports the paper's 1 °C gradient constraint.
	Feasible bool `json:"feasible"`
	// ChipMax and ChipAvg summarise the junction layer (°C).
	ChipMax float64 `json:"chip_max"`
	ChipAvg float64 `json:"chip_avg"`
	// TraceID echoes the request's X-Trace-ID.
	TraceID string `json:"trace_id,omitempty"`
}

// HeaterRequest asks for the gradient-minimising heater power.
type HeaterRequest struct {
	Scenario
	// MaxHeater bounds the search (W); zero defaults to PVCSEL.
	MaxHeater float64 `json:"max_heater,omitempty"`
}

// HeaterResponse reports the heater optimum.
type HeaterResponse struct {
	PVCSEL           float64 `json:"pvcsel"`
	PHeater          float64 `json:"pheater"`
	Ratio            float64 `json:"ratio"`
	MeanGradient     float64 `json:"mean_gradient"`
	GradientNoHeater float64 `json:"gradient_no_heater"`
}

// SNRRequest runs the full methodology chain for one placement case.
type SNRRequest struct {
	Scenario
	// Case is the ONI placement: 1 (18 mm), 2 (32 mm) or 3 (47 mm,
	// default).
	Case int `json:"case,omitempty"`
	// Pattern is the communication set: "neighbour" (default) or
	// "paired".
	Pattern string `json:"pattern,omitempty"`
}

// SNRResponse is the signal-quality verdict.
type SNRResponse struct {
	Case        string  `json:"case"`
	Pattern     string  `json:"pattern"`
	RingLengthM float64 `json:"ring_length_m"`
	NodeTempMin float64 `json:"node_temp_min"`
	NodeTempMax float64 `json:"node_temp_max"`
	WorstSNRdB  float64 `json:"worst_snr_db"`
	AllDetected bool    `json:"all_detected"`
	Comms       int     `json:"comms"`
}

// MapRequest asks for a lateral temperature slice.
type MapRequest struct {
	Scenario
	// Layer names the stack layer; empty selects the optical layer.
	Layer string `json:"layer,omitempty"`
}

// MapResponse carries one layer's temperature map.
type MapResponse struct {
	Layer string      `json:"layer"`
	X     []float64   `json:"x_m"`
	Y     []float64   `json:"y_m"`
	T     [][]float64 `json:"temp_c"`
	Min   float64     `json:"min_c"`
	Max   float64     `json:"max_c"`
}

// GradientSweepRequest is a (paginated) Fig. 9-b grid: rows iterate laser
// powers, columns heater powers. RowStart/RowCount select a row window
// for sharded scatter/gather; RowCount 0 means "to the end".
type GradientSweepRequest struct {
	Scenario
	Lasers   []float64 `json:"lasers"`
	Heaters  []float64 `json:"heaters"`
	RowStart int       `json:"row_start,omitempty"`
	RowCount int       `json:"row_count,omitempty"`
}

// GradientSweepResponse returns the requested row window. The full
// resolution triple (ONI/die/z cells) and Solver fingerprint the
// worker's discretisation so shard clients can verify every chunk —
// including chunks from workers that were unreachable during preflight
// and came back mid-sweep with a different mesh.
type GradientSweepResponse struct {
	RowStart  int                   `json:"row_start"`
	TotalRows int                   `json:"total_rows"`
	Rows      [][]dse.GradientPoint `json:"rows"`
	ONICell   float64               `json:"oni_cell_m"`
	DieCell   float64               `json:"die_cell_m"`
	MaxZCell  float64               `json:"max_z_cell_m"`
	Solver    string                `json:"solver"`
	// TraceID echoes the request's X-Trace-ID.
	TraceID string `json:"trace_id,omitempty"`
}

// AvgTempSweepRequest is a (paginated) Fig. 9-a grid: rows iterate chip
// powers, columns laser powers.
type AvgTempSweepRequest struct {
	Scenario
	Chips    []float64 `json:"chips"`
	Lasers   []float64 `json:"lasers"`
	RowStart int       `json:"row_start,omitempty"`
	RowCount int       `json:"row_count,omitempty"`
}

// AvgTempSweepResponse returns the requested row window, fingerprinted
// like GradientSweepResponse.
type AvgTempSweepResponse struct {
	RowStart  int                  `json:"row_start"`
	TotalRows int                  `json:"total_rows"`
	Rows      [][]dse.AvgTempPoint `json:"rows"`
	ONICell   float64              `json:"oni_cell_m"`
	DieCell   float64              `json:"die_cell_m"`
	MaxZCell  float64              `json:"max_z_cell_m"`
	Solver    string               `json:"solver"`
	// TraceID echoes the request's X-Trace-ID.
	TraceID string `json:"trace_id,omitempty"`
}

// TransientRequest submits an asynchronous transient (warm-up) job: the
// operating point of a Scenario plus the integration horizon. The
// response is the job's initial JobStatus; progress is polled (or
// streamed) from the job endpoints.
type TransientRequest struct {
	Scenario
	// TimeStepS is the implicit-Euler step (s).
	TimeStepS float64 `json:"time_step_s"`
	// Steps is the number of steps to integrate (at most
	// DefaultMaxJobSteps).
	Steps int `json:"steps"`
	// CheckpointEvery overrides the server's checkpoint cadence for this
	// job (steps); 0 keeps the server default.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// ID, when set, is the client-chosen job id (lowercase alphanumerics
	// and dashes, ≤ 64 chars). The fleet coordinator uses it to keep a
	// migrated job's identity across workers; a colliding id is refused
	// with HTTP 409. Empty lets the server mint one.
	ID string `json:"id,omitempty"`
	// Resume, when set, restores the job from this checkpoint instead of
	// starting at step 0 — the job-handoff half of checkpoint-driven
	// migration. The checkpoint's system fingerprint is hard-checked
	// against the server's mesh/operator/powers before any step runs, so a
	// handoff to a worker with a different discretisation fails cleanly.
	Resume *fvm.TransientCheckpoint `json:"resume,omitempty"`
}

// JobState names a transient job's lifecycle phase.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the wire form of one transient job's progress.
type JobStatus struct {
	ID string `json:"id"`
	// State is one of queued, running, done, failed.
	State string `json:"state"`
	// Step/Steps report progress; TimeS the simulated seconds so far.
	Step      int     `json:"step"`
	Steps     int     `json:"steps"`
	TimeS     float64 `json:"time_s"`
	TimeStepS float64 `json:"time_step_s"`
	// PeakTemp and MaxGradient are the latest per-step observations (°C).
	PeakTemp    float64 `json:"peak_temp_c,omitempty"`
	MaxGradient float64 `json:"max_gradient_c,omitempty"`
	// Resumed marks a job restored from a persisted checkpoint after a
	// daemon restart.
	Resumed bool `json:"resumed,omitempty"`
	// Error carries the failure reason of a failed job.
	Error string `json:"error,omitempty"`
	// Result is present once State is done.
	Result *TransientJobResult `json:"result,omitempty"`
	// TraceID is the trace that submitted the job, carried across
	// checkpoint-driven migrations so one ID follows the job between
	// workers.
	TraceID string `json:"trace_id,omitempty"`
}

// JobList is the paginated GET /v1/jobs answer: the requested window of
// jobs (sorted by id) plus enough bookkeeping to continue the walk —
// long-lived daemons accumulate history, and an unpaginated list would
// grow the response without bound.
type JobList struct {
	Jobs   []JobStatus `json:"jobs"`
	Total  int         `json:"total"`
	Offset int         `json:"offset"`
	// More reports whether jobs beyond this window remain; continue with
	// offset = Offset + len(Jobs).
	More bool `json:"more"`
}

// TransientJobResult is a completed job's final state: the standard ONI
// summary plus an integrity fingerprint of the full temperature field,
// so clients can assert two runs (e.g. interrupted-and-resumed vs
// uninterrupted) landed on bit-identical fields without shipping them.
type TransientJobResult struct {
	QueryResponse
	// FieldFingerprint hashes the final per-cell temperature field.
	FieldFingerprint string `json:"field_fingerprint"`
	// TimeS is the total simulated time (s).
	TimeS float64 `json:"time_s"`
}

// SpecInfo describes the served spec and its warm state.
type SpecInfo struct {
	// Name is always "default".
	Name string `json:"name"`
	// Resolution echoes the lateral/vertical cell sizes (m).
	ONICell  float64 `json:"oni_cell_m"`
	DieCell  float64 `json:"die_cell_m"`
	MaxZCell float64 `json:"max_z_cell_m"`
	// Solver is the linear solver (fvm.SolverName).
	Solver string `json:"solver"`
	// ModelReady and Cells report the lazily built mesh (Cells is 0 until
	// the first query forces the build).
	ModelReady bool `json:"model_ready"`
	Cells      int  `json:"cells,omitempty"`
	// BasisBuilds counts the basis builds the spec's model has run (an
	// activity basis on a cold model builds the uniform basis too).
	BasisBuilds int64 `json:"basis_builds"`
	// Evaluations counts the basis evaluations the server ran (gradient
	// and feasibility queries, map slices): every admitted query with
	// valid powers is one evaluation.
	Evaluations int64 `json:"evaluations"`
	// Admitted and Shed count hot-path queries through admission control
	// (both zero when admission is disabled).
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	// WarmBases and BasisEvictions describe the model's bounded basis
	// cache (thermal.MaxBases).
	WarmBases      int   `json:"warm_bases"`
	BasisEvictions int64 `json:"basis_evictions"`
	// QueryLatency mirrors the server's /metrics latency histogram in
	// compact form so fleet placement can score workers by observed tail
	// latency. The pointer keeps SpecInfo comparable (and is stripped
	// before mesh-fingerprint consensus comparisons).
	QueryLatency *obs.HistSnapshot `json:"query_latency,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	Status  string  `json:"status"`
	UptimeS float64 `json:"uptime_s"`
	// Specs lists the served spec as its only entry.
	Specs []SpecInfo `json:"specs"`
	// Jobs counts the transient jobs per lifecycle state.
	Jobs map[string]int `json:"jobs"`
}

// errorBody is the JSON error envelope every non-2xx answer uses. Shed
// (429) answers additionally carry the retry schedule in milliseconds,
// mirroring the whole-second Retry-After header at finer grain.
type errorBody struct {
	Error        string  `json:"error"`
	RetryAfterMs float64 `json:"retry_after_ms,omitempty"`
	// TraceID echoes the request's X-Trace-ID so failures correlate with
	// logs and /debug/requests.
	TraceID string `json:"trace_id,omitempty"`
}

// parseCase maps the wire case number onto the placement enum.
func parseCase(n int) (ornoc.CaseStudy, error) {
	switch n {
	case 0, 3:
		return ornoc.Case47mm, nil
	case 1:
		return ornoc.Case18mm, nil
	case 2:
		return ornoc.Case32mm, nil
	default:
		return 0, fmt.Errorf("serve: unknown placement case %d (want 1, 2 or 3)", n)
	}
}

// parsePattern maps the wire pattern name onto the enum.
func parsePattern(name string) (core.CommPattern, error) {
	switch name {
	case "", "neighbour":
		return core.Neighbour, nil
	case "paired":
		return core.Paired, nil
	default:
		return 0, fmt.Errorf("serve: unknown pattern %q (want neighbour or paired)", name)
	}
}
