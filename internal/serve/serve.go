// Package serve is the warm thermal-analysis service: a long-lived HTTP
// layer over the solver stack that keeps expensive state — assembled
// thermal.Model operators, superposition Basis fields, the shared
// multigrid hierarchy behind them — alive across requests, so every
// design query after the first costs a superposition evaluation instead
// of a basis build (~10 s at the fast tier, ~50 s at the paper tier).
//
// The server answers JSON queries for intra-ONI gradients and
// feasibility, heater optimisation, worst-case SNR scenarios,
// thermal-map slices and paginated sweep grids. A gradient or
// feasibility query reads thermal.Basis.Summary: a few microseconds and
// no allocation, whatever the mesh (the basis is projected onto the
// report's functionals, and its BEOL peak cut to a few hundred candidate
// cells, when it is built), so each request evaluates inline on its own
// goroutine: every admitted query is one evaluation. Powers that overflow
// the superposition get a 400. A server owns one system spec, and that
// spec's thermal.Model caches its bases (bounded, single-flight), so a
// cold basis never builds twice however many clients hit it at once.
//
// The same package holds the scatter/gather ShardClient that partitions
// design-space sweep grids across a fleet of these servers (see
// client.go), closing the loop for sharded DSE.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/core"
	"vcselnoc/internal/dse"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/obs"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/stack"
	"vcselnoc/internal/thermal"
)

// specLabel is the name /healthz and /v1/specs give the server's one
// spec and the value of its /metrics spec label, which clients of those
// endpoints key on.
const specLabel = "default"

// maxBodyBytes bounds request bodies; sweep axes are the largest
// legitimate payload and fit comfortably.
const maxBodyBytes = 1 << 20

// DefaultJobCheckpointEvery is the default transient-job checkpoint
// cadence in steps.
const DefaultJobCheckpointEvery = 25

// DefaultMaxJobs bounds the transient jobs a server retains (active plus
// completed); submissions beyond get HTTP 429 until JobTTL collects
// finished ones.
const DefaultMaxJobs = 64

// DefaultMaxJobSteps bounds a single transient job's horizon: steps are
// client-controlled work, so an unbounded count is a CPU-exhaustion
// vector.
const DefaultMaxJobSteps = 100000

// Config configures a Server.
type Config struct {
	// Spec is the system specification the server owns warm state for;
	// a nil Floorplan selects PaperSpec.
	Spec thermal.Spec
	// SNR is the technology configuration for SNR queries; the zero
	// value selects snr.DefaultConfig.
	SNR snr.Config
	// AdmitRate rate-limits the cheap-query hot path server-wide
	// (queries/second); 0 disables server-wide admission. Shed queries
	// get HTTP 429 with a Retry-After.
	AdmitRate float64
	// AdmitBurst is the server-wide bucket's burst tolerance; 0 selects
	// DefaultAdmitBurst.
	AdmitBurst int
	// JobDir persists transient-job checkpoints and results so jobs
	// survive — and resume from their last checkpoint on — daemon
	// restarts; empty keeps jobs in memory only.
	JobDir string
	// JobCheckpointEvery is the default per-job checkpoint cadence in
	// steps; 0 selects DefaultJobCheckpointEvery. Individual submissions
	// may override it.
	JobCheckpointEvery int
	// JobTTL garbage-collects terminal (done/failed/cancelled) transient
	// jobs this long after they finish, dropping both the in-memory record
	// and the persisted job file; 0 retains them until DefaultMaxJobs
	// pressure.
	// Running jobs are never collected.
	JobTTL time.Duration
	// Logger receives the server's structured logs (request completions
	// at debug, basis builds / sweeps / job transitions at info); nil
	// discards them.
	Logger *slog.Logger
}

// DefaultTraceBuffer is the /debug/requests ring capacity.
const DefaultTraceBuffer = 256

// Server owns the warm state of one spec and implements http.Handler.
// The Methodology (model and its basis cache) builds lazily on first use,
// so a server costs nothing until it is queried or warmed.
type Server struct {
	mux    *http.ServeMux
	spec   thermal.Spec
	snrCfg snr.Config
	start  time.Time

	once  sync.Once
	ready atomic.Bool // publishes meth/err to stats-only readers
	meth  *core.Methodology
	err   error

	// adm gates the cheap-query hot path (nil = admission disabled).
	adm *admission
	// evals counts basis evaluations (gradient and feasibility queries,
	// map slices).
	evals atomic.Int64
	// latQuery/latSweep are the always-on server-side request latency
	// histograms by endpoint class behind /metrics and /healthz.
	latQuery *obs.Histogram
	latSweep *obs.Histogram

	// sweepSem bounds concurrent sweep evaluations server-wide: each
	// sweep fans out across a full worker pool, so without a bound N
	// concurrent sweep requests oversubscribe the CPU N-fold. Cheap
	// point queries evaluate inline and are gated by admission instead.
	sweepSem chan struct{}
	// jobs owns the async transient jobs (see jobs.go).
	jobs *jobManager
	// recorder keeps recent finished traces for GET /debug/requests;
	// logger receives structured logs.
	recorder *obs.Recorder
	logger   *slog.Logger
}

// methodology builds (once) and returns the spec's warm methodology.
// The sync.Once is the model-level single-flight: concurrent cold
// requests share one mesh assembly.
func (s *Server) methodology() (*core.Methodology, error) {
	s.once.Do(func() {
		s.meth, s.err = core.NewWithSpec(s.spec, s.snrCfg)
		s.ready.Store(true)
	})
	return s.meth, s.err
}

// New validates the configuration and builds a Server. Models and bases
// are not built yet: the first query (or an explicit Warm) pays that
// cost.
func New(cfg Config) (*Server, error) {
	if cfg.Spec.Floorplan == nil {
		spec, err := thermal.PaperSpec()
		if err != nil {
			return nil, err
		}
		cfg.Spec = spec
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("serve: spec: %w", err)
	}
	if cfg.SNR == (snr.Config{}) {
		cfg.SNR = snr.DefaultConfig()
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	s := &Server{
		mux:      http.NewServeMux(),
		spec:     cfg.Spec,
		snrCfg:   cfg.SNR,
		start:    time.Now(),
		adm:      newAdmission(cfg.AdmitRate, cfg.AdmitBurst),
		latQuery: obs.NewHistogram(obs.LatencyBuckets),
		latSweep: obs.NewHistogram(obs.LatencyBuckets),
		sweepSem: make(chan struct{}, 2),
		recorder: obs.NewRecorder(DefaultTraceBuffer),
		logger:   cfg.Logger,
	}
	s.jobs = newJobManager(s, cfg)
	s.routes()
	if err := s.jobs.loadPersisted(); err != nil {
		return nil, err
	}
	s.jobs.startGC()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/specs", s.handleSpecs)
	s.mux.HandleFunc("POST /v1/gradient", s.handleGradient)
	s.mux.HandleFunc("POST /v1/feasibility", s.handleGradient) // same evaluation, same body
	s.mux.HandleFunc("POST /v1/heater/optimal", s.handleHeater)
	s.mux.HandleFunc("POST /v1/snr", s.handleSNR)
	s.mux.HandleFunc("POST /v1/map", s.handleMap)
	s.mux.HandleFunc("POST /v1/sweep/gradient", s.handleGradientSweep)
	s.mux.HandleFunc("POST /v1/sweep/avgtemp", s.handleAvgTempSweep)
	s.mux.HandleFunc("POST /v1/transient", s.handleTransientSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleJobCheckpoint)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
}

// ServeHTTP implements http.Handler. Every request — whatever the
// endpoint — gets a trace ID (propagated from X-Trace-ID or minted
// here) echoed back as a response header before the handler runs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := obs.EnsureRequest(r)
	w.Header().Set(obs.TraceHeader, id)
	s.mux.ServeHTTP(w, r)
}

// publish seals the trace into the /debug/requests ring.
func (s *Server) publish(tr *obs.Trace, status int) {
	s.recorder.Publish(tr.Finish(status))
}

// Close stops the server's background work: every running transient job
// checkpoints its exact current step (when a JobDir is configured, so
// the next daemon resumes it bit-identically), and Close blocks until all
// background goroutines are gone. Idempotent. The HTTP side is unaffected
// — callers drain it separately via Run's context.
func (s *Server) Close() {
	s.jobs.stop()
}

// Warm forces the model and uniform-activity basis to build now (daemon
// startup with -warm), so the first client query is already cheap.
func (s *Server) Warm() error {
	_, err := s.basisFor(nil)
	return err
}

// basisFor returns the model's basis for one activity shape, building it
// on first use (thermal.Model.Basis: bounded, single-flight), and logs
// the builds it ran.
func (s *Server) basisFor(act activity.Scenario) (*thermal.Basis, error) {
	meth, err := s.methodology()
	if err != nil {
		return nil, err
	}
	model := meth.Model()
	buildsBefore := model.BasisCacheStats().Builds
	b, err := model.Basis(act)
	if err == nil && model.BasisCacheStats().Builds > buildsBefore {
		bs := b.BuildStats()
		s.logger.Info("basis built",
			"activity", activity.Key(act),
			"duration_ms", float64(bs.Wall.Microseconds())/1000,
			"hierarchy_ms", float64(bs.Phases.Hierarchy.Microseconds())/1000,
			"galerkin_ms", float64(bs.Phases.Galerkin.Microseconds())/1000,
			"coarse_factor_ms", float64(bs.Phases.Factor.Microseconds())/1000,
			"cycle_arrays_ms", float64(bs.Phases.CycleArrays.Microseconds())/1000,
			"levels", bs.Levels,
			"coarse_cells", bs.CoarseCells,
			"precision", bs.Precision,
			"hierarchy_mb", hierarchyMB(bs),
			"columns", bs.Columns,
			"mg_iters", bs.Iterations)
	}
	return b, err
}

// hierarchyMB is a build's hierarchy footprint in MiB, the unit of the
// benchmark's peak_rss_mb.
func hierarchyMB(bs thermal.BasisBuildStats) float64 {
	return float64(bs.HierarchyBytes) / (1 << 20)
}

// precisionBits maps a V-cycle precision to the bit width the basis span
// reports.
var precisionBits = map[string]float64{"float32": 32, "float64": 64}

// statusError carries an HTTP status through the handler helpers;
// retryAfter (when positive) additionally sets the Retry-After header
// and the envelope's retry_after_ms on shed responses.
type statusError struct {
	code       int
	retryAfter time.Duration
	err        error
}

func (e *statusError) Error() string { return e.err.Error() }

func badRequest(err error) error { return &statusError{code: http.StatusBadRequest, err: err} }
func notFound(err error) error   { return &statusError{code: http.StatusNotFound, err: err} }

// writeJSON emits a 200 JSON body. It encodes before writing anything, so
// a value JSON cannot carry (a non-finite float) becomes a 500 envelope,
// never an empty 200.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeErr(w, fmt.Errorf("serve: encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
}

// writeErr emits the JSON error envelope with the mapped status code.
// Shed responses carry their retry schedule twice: the standard
// Retry-After header (whole seconds, rounded up, so naive clients back
// off at least as long as asked) and retry_after_ms in the envelope for
// clients that pace tighter than a second.
func writeErr(w http.ResponseWriter, err error) {
	writeErrTrace(w, "", err)
}

// writeErrTrace is writeErr with the request's trace ID stamped into the
// envelope; it returns the status code written so callers can seal the
// request's trace with it. Powers that overflow the superposition
// (thermal.ErrNonFinite, from any evaluating endpoint) are the client's
// input, so they map to 400.
func writeErrTrace(w http.ResponseWriter, traceID string, err error) int {
	code := http.StatusInternalServerError
	body := errorBody{Error: err.Error(), TraceID: traceID}
	var se *statusError
	switch {
	case errors.As(err, &se):
		code = se.code
		if se.retryAfter > 0 {
			body.RetryAfterMs = float64(se.retryAfter) / float64(time.Millisecond)
			secs := int64((se.retryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
	case errors.Is(err, thermal.ErrNonFinite):
		code = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
	return code
}

// decode strictly parses the request body into v: unknown fields and
// trailing garbage are client errors, not silent drops.
func decode(r *http.Request, v any) error {
	return decodeLimit(r, v, maxBodyBytes)
}

// decodeLimit is decode with an explicit body cap, for the endpoints
// (transient submit with a resume checkpoint) whose legitimate payloads
// exceed the general bound.
func decodeLimit(r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest(fmt.Errorf("serve: bad request body: %w", err))
	}
	if dec.More() {
		return badRequest(fmt.Errorf("serve: trailing data after JSON body"))
	}
	return nil
}

// resolveBasis validates the scenario and returns the basis for its
// activity shape, building it on first use (single-flight).
func (s *Server) resolveBasis(sc Scenario) (*thermal.Basis, error) {
	act, err := sc.activityScenario()
	if err != nil {
		return nil, badRequest(err)
	}
	if err := sc.powers().Validate(); err != nil {
		return nil, badRequest(err)
	}
	return s.basisFor(act)
}

// handleGradient answers the cheap superposition query — the serving hot
// path, in admission order: one O(1) atomic admission check (429 +
// Retry-After on shed, before any solver work), then an inline,
// allocation-free Basis.Summary.
func (s *Server) handleGradient(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := r.Header.Get(obs.TraceHeader)
	tr := obs.NewTrace(traceID, r.URL.Path)
	// A request counts in the latency histogram once its body decoded.
	counted := false
	fail := func(err error) {
		if counted {
			s.latQuery.Observe(time.Since(start).Seconds())
		}
		code := writeErrTrace(w, traceID, err)
		s.publish(tr, code)
		s.logger.Debug("query failed",
			"trace_id", traceID, "endpoint", r.URL.Path, "status", code, "err", err.Error())
	}
	var sc Scenario
	if err := decode(r, &sc); err != nil {
		fail(err)
		return
	}
	counted = true
	sp := tr.StartSpan("admission")
	ok, retry := s.adm.admit(time.Now().UnixNano())
	sp.End()
	if !ok {
		fail(shedError(retry))
		return
	}
	sp = tr.StartSpan("basis")
	basis, err := s.resolveBasis(sc)
	sp.End()
	if err != nil {
		fail(err)
		return
	}
	// The basis span carries the mg cost of the build that produced this
	// basis (zero/near-zero duration when it was already warm): how many
	// unit fields it solved, their iteration count, the hierarchy build
	// (and its Galerkin products' share), coarse factorisation and
	// cycle-array times it paid (zero unless it was the model's first
	// solve), the hierarchy's depth, coarsest level and footprint, and the
	// V-cycle precision as its bit width (span attributes are numbers).
	bs := basis.BuildStats()
	sp.SetAttr("columns", float64(bs.Columns))
	sp.SetAttr("mg_iters", float64(bs.Iterations))
	sp.SetAttr("hierarchy_ms", float64(bs.Phases.Hierarchy.Microseconds())/1000)
	sp.SetAttr("galerkin_ms", float64(bs.Phases.Galerkin.Microseconds())/1000)
	sp.SetAttr("coarse_factor_ms", float64(bs.Phases.Factor.Microseconds())/1000)
	sp.SetAttr("cycle_arrays_ms", float64(bs.Phases.CycleArrays.Microseconds())/1000)
	sp.SetAttr("levels", float64(bs.Levels))
	sp.SetAttr("coarse_cells", float64(bs.CoarseCells))
	sp.SetAttr("hierarchy_mb", hierarchyMB(bs))
	if bits, ok := precisionBits[bs.Precision]; ok {
		sp.SetAttr("precision", bits)
	}
	if total := bs.Phases.Total(); total > 0 {
		sp.SetAttr("build_smoothfrac", float64(bs.Phases.Smooth)/float64(total))
		sp.SetAttr("build_coarsefrac", float64(bs.Phases.Coarse)/float64(total))
	}
	// The scenario was validated above, so an evaluation error here is
	// the server's fault, unless the powers overflow the superposition
	// (thermal.ErrNonFinite: a 400).
	sp = tr.StartSpan("solve")
	sum, err := s.summary(basis, sc.powers())
	sp.SetAttr("mg_iters", float64(bs.Iterations))
	sp.End()
	if err != nil {
		fail(err)
		return
	}
	resp := summarise(sum)
	resp.TraceID = traceID
	writeJSON(w, resp)
	s.latQuery.Observe(time.Since(start).Seconds())
	s.publish(tr, http.StatusOK)
	s.logger.Debug("query", "trace_id", traceID, "duration_ms", msSince(start))
}

// evaluate runs one full basis evaluation and counts it.
func (s *Server) evaluate(basis *thermal.Basis, p thermal.Powers) (*thermal.Result, error) {
	s.evals.Add(1)
	return basis.Evaluate(p)
}

// summary runs one basis summary and counts it as an evaluation.
func (s *Server) summary(basis *thermal.Basis, p thermal.Powers) (thermal.Summary, error) {
	s.evals.Add(1)
	return basis.Summary(p)
}

// msSince renders an elapsed time in fractional milliseconds for logs.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// summarise turns a summary into the query answer.
func summarise(s thermal.Summary) QueryResponse {
	return QueryResponse{
		MeanONITemp:  s.MeanONITemp,
		MeanGradient: s.MeanGradient,
		MaxGradient:  s.MaxGradient,
		Feasible:     s.MaxGradient <= dse.GradientLimit,
		ChipMax:      s.ChipMax,
		ChipAvg:      s.ChipAvg,
	}
}

// handleHeater runs the sequential golden-section heater optimisation.
func (s *Server) handleHeater(w http.ResponseWriter, r *http.Request) {
	var req HeaterRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	basis, err := s.resolveBasis(req.Scenario)
	if err != nil {
		writeErr(w, err)
		return
	}
	ex, err := dse.NewExplorer(basis)
	if err != nil {
		writeErr(w, err)
		return
	}
	maxHeater := req.MaxHeater
	if maxHeater == 0 {
		maxHeater = req.PVCSEL
	}
	opt, err := ex.OptimalHeater(req.Chip, req.PVCSEL, maxHeater)
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	writeJSON(w, HeaterResponse{
		PVCSEL:           opt.PVCSEL,
		PHeater:          opt.PHeater,
		Ratio:            opt.Ratio,
		MeanGradient:     opt.MeanGradient,
		GradientNoHeater: opt.GradientNoHeater,
	})
}

// handleSNR runs the full methodology chain for one placement case.
func (s *Server) handleSNR(w http.ResponseWriter, r *http.Request) {
	var req SNRRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	cs, err := parseCase(req.Case)
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	pat, err := parsePattern(req.Pattern)
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	act, err := req.activityScenario()
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	meth, err := s.methodology()
	if err != nil {
		writeErr(w, err)
		return
	}
	// Warm the basis so SNRAnalysis evaluates by superposition instead of
	// falling back to a direct solve per request.
	if _, err := s.basisFor(act); err != nil {
		writeErr(w, err)
		return
	}
	res, err := meth.SNRAnalysis(core.SNRScenario{
		Case:      cs,
		Activity:  act,
		ChipPower: req.Chip,
		PVCSEL:    req.PVCSEL,
		PHeater:   req.PHeater,
		Pattern:   pat,
	})
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	writeJSON(w, SNRResponse{
		Case:        cs.String(),
		Pattern:     pat.String(),
		RingLengthM: res.RingLengthM,
		NodeTempMin: res.NodeTempMin,
		NodeTempMax: res.NodeTempMax,
		WorstSNRdB:  res.Report.WorstSNRdB,
		AllDetected: res.Report.AllDetected,
		Comms:       len(res.Report.PerComm),
	})
}

// handleMap returns a lateral temperature slice of one stack layer.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	var req MapRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	basis, err := s.resolveBasis(req.Scenario)
	if err != nil {
		writeErr(w, err)
		return
	}
	layer := req.Layer
	if layer == "" {
		layer = stack.LayerOptical
	}
	res, err := s.evaluate(basis, req.powers())
	if err != nil {
		writeErr(w, err)
		return
	}
	lm, err := res.LayerSlice(layer)
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	writeJSON(w, MapResponse{Layer: lm.Layer, X: lm.X, Y: lm.Y, T: lm.T, Min: lm.Min, Max: lm.Max})
}

// rowWindow validates and clamps a sweep pagination window.
func rowWindow(total, start, count int) (lo, hi int, err error) {
	if start < 0 || start >= total {
		return 0, 0, fmt.Errorf("serve: row_start %d outside [0, %d)", start, total)
	}
	if count < 0 {
		return 0, 0, fmt.Errorf("serve: negative row_count %d", count)
	}
	hi = total
	if count > 0 && start+count < total {
		hi = start + count
	}
	return start, hi, nil
}

// handleGradientSweep evaluates a laser × heater gradient grid row
// window. Rows are independent basis evaluations, so a window's values
// are bit-identical to the same rows of a full in-process sweep — the
// property the sharded scatter/gather relies on.
func (s *Server) handleGradientSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := r.Header.Get(obs.TraceHeader)
	tr := obs.NewTrace(traceID, r.URL.Path)
	// A sweep counts in the latency histogram once its basis resolved.
	counted := false
	fail := func(err error) {
		if counted {
			s.latSweep.Observe(time.Since(start).Seconds())
		}
		code := writeErrTrace(w, traceID, err)
		s.publish(tr, code)
	}
	var req GradientSweepRequest
	if err := decode(r, &req); err != nil {
		fail(err)
		return
	}
	if len(req.Lasers) == 0 || len(req.Heaters) == 0 {
		fail(badRequest(fmt.Errorf("serve: empty sweep axes")))
		return
	}
	sp := tr.StartSpan("basis")
	basis, err := s.resolveBasis(req.Scenario)
	sp.End()
	if err != nil {
		fail(err)
		return
	}
	counted = true
	lo, hi, err := rowWindow(len(req.Lasers), req.RowStart, req.RowCount)
	if err != nil {
		fail(badRequest(err))
		return
	}
	ex, err := dse.NewExplorer(basis)
	if err != nil {
		fail(err)
		return
	}
	ex.SetWorkers(s.spec.Workers)
	sp = tr.StartSpan("sweep_wait")
	s.sweepSem <- struct{}{}
	sp.End()
	sp = tr.StartSpan("solve")
	rows, err := ex.SweepGradient(req.Chip, req.Lasers[lo:hi], req.Heaters)
	sp.End()
	<-s.sweepSem
	if err != nil {
		fail(err)
		return
	}
	writeJSON(w, GradientSweepResponse{
		RowStart: lo, TotalRows: len(req.Lasers), Rows: rows,
		ONICell: s.spec.Res.ONICell, DieCell: s.spec.Res.DieCell, MaxZCell: s.spec.Res.MaxZCell,
		Solver:  fvm.SolverName,
		TraceID: traceID,
	})
	s.latSweep.Observe(time.Since(start).Seconds())
	s.publish(tr, http.StatusOK)
	s.logger.Info("sweep",
		"trace_id", traceID, "kind", "gradient",
		"rows", hi-lo, "cols", len(req.Heaters), "duration_ms", msSince(start))
}

// handleAvgTempSweep evaluates a chip × laser mean-temperature grid row
// window.
func (s *Server) handleAvgTempSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := r.Header.Get(obs.TraceHeader)
	tr := obs.NewTrace(traceID, r.URL.Path)
	// A sweep counts in the latency histogram once its basis resolved.
	counted := false
	fail := func(err error) {
		if counted {
			s.latSweep.Observe(time.Since(start).Seconds())
		}
		code := writeErrTrace(w, traceID, err)
		s.publish(tr, code)
	}
	var req AvgTempSweepRequest
	if err := decode(r, &req); err != nil {
		fail(err)
		return
	}
	if len(req.Chips) == 0 || len(req.Lasers) == 0 {
		fail(badRequest(fmt.Errorf("serve: empty sweep axes")))
		return
	}
	sp := tr.StartSpan("basis")
	basis, err := s.resolveBasis(req.Scenario)
	sp.End()
	if err != nil {
		fail(err)
		return
	}
	counted = true
	lo, hi, err := rowWindow(len(req.Chips), req.RowStart, req.RowCount)
	if err != nil {
		fail(badRequest(err))
		return
	}
	ex, err := dse.NewExplorer(basis)
	if err != nil {
		fail(err)
		return
	}
	ex.SetWorkers(s.spec.Workers)
	sp = tr.StartSpan("sweep_wait")
	s.sweepSem <- struct{}{}
	sp.End()
	sp = tr.StartSpan("solve")
	rows, err := ex.SweepAvgTemp(req.Chips[lo:hi], req.Lasers)
	sp.End()
	<-s.sweepSem
	if err != nil {
		fail(err)
		return
	}
	writeJSON(w, AvgTempSweepResponse{
		RowStart: lo, TotalRows: len(req.Chips), Rows: rows,
		ONICell: s.spec.Res.ONICell, DieCell: s.spec.Res.DieCell, MaxZCell: s.spec.Res.MaxZCell,
		Solver:  fvm.SolverName,
		TraceID: traceID,
	})
	s.latSweep.Observe(time.Since(start).Seconds())
	s.publish(tr, http.StatusOK)
	s.logger.Info("sweep",
		"trace_id", traceID, "kind", "avgtemp",
		"rows", hi-lo, "cols", len(req.Lasers), "duration_ms", msSince(start))
}

// handleHealth reports liveness, the spec's warm-state statistics and
// the transient jobs per lifecycle state (the coordinator's placement
// signal).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, Health{
		Status:  "ok",
		UptimeS: time.Since(s.start).Seconds(),
		Specs:   []SpecInfo{s.info()},
		Jobs:    s.jobs.stateCounts(),
	})
}

// handleSpecs lists the served spec as a one-entry list.
func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, []SpecInfo{s.info()})
}

// info snapshots the spec's resolution, solver and warm-state counters.
func (s *Server) info() SpecInfo {
	info := SpecInfo{
		Name:     specLabel,
		ONICell:  s.spec.Res.ONICell,
		DieCell:  s.spec.Res.DieCell,
		MaxZCell: s.spec.Res.MaxZCell,
		Solver:   fvm.SolverName,
	}
	info.Evaluations = s.evals.Load()
	info.Admitted, info.Shed = s.adm.stats()
	info.QueryLatency = s.latQuery.Snapshot()
	// Peek without forcing a build: only report the model when some
	// query has already paid for it.
	if s.ready.Load() && s.err == nil {
		model := s.meth.Model()
		bs := model.BasisCacheStats()
		info.ModelReady = true
		info.Cells = model.NumCells()
		info.WarmBases, info.BasisBuilds, info.BasisEvictions = bs.Warm, bs.Builds, bs.Evictions
	}
	return info
}
