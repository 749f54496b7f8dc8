// Package fleet is the coordinator side of the vcseld control plane: a
// registry of workers kept fresh by heartbeat scrapes of their /healthz
// endpoints, load-aware placement of sweep chunks and
// transient jobs over that registry, and failure treated as a
// first-class state — missed heartbeats move a worker alive → suspect →
// dead, sweep chunks reroute to survivors under backoff, and transient
// jobs migrate off dead workers from their last checkpoint and resume
// bit-identically.
//
// The coordinator serves the same sweep and transient-job API shape as
// a vcseld worker, so a ShardClient (or cmd/dse -coordinator) can point
// at it as if it were a single very reliable worker; behind the API it
// sub-scatters and places by observed load instead of round-robin.
package fleet

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vcselnoc/internal/obs"
	"vcselnoc/internal/serve"
	"vcselnoc/internal/thermal"
)

// Defaults for the heartbeat state machine. Two misses make a worker
// suspect (held out of new placements), four make it dead (its jobs
// migrate). At the default cadence that is ~4 s to suspicion and ~8 s
// to eviction — fast enough that a killed worker's jobs resume within
// seconds, slow enough that one dropped scrape doesn't trigger a
// migration storm.
const (
	DefaultHeartbeatEvery = 2 * time.Second
	DefaultSuspectAfter   = 2
	DefaultEvictAfter     = 4
	DefaultScrapeTimeout  = 5 * time.Second
)

// Config configures a Coordinator.
type Config struct {
	// Workers statically registers fleet members at startup (base URLs).
	// Workers may also self-register via POST /v1/fleet/register.
	Workers []string
	// WorkerJobDirs maps a static worker URL to its -job-dir, enabling
	// file-based checkpoint recovery when that worker dies. Self-registered
	// workers carry their job dir in the registration.
	WorkerJobDirs map[string]string
	// HeartbeatEvery is the scrape cadence; 0 selects
	// DefaultHeartbeatEvery.
	HeartbeatEvery time.Duration
	// SuspectAfter/EvictAfter are the consecutive missed-scrape thresholds
	// for suspicion (no new placements) and eviction (jobs migrate);
	// 0 selects the defaults.
	SuspectAfter int
	EvictAfter   int
	// JobPollEvery is the job status/migration loop cadence; 0 follows
	// HeartbeatEvery.
	JobPollEvery time.Duration
	// ScrapeTimeout bounds one heartbeat scrape; 0 selects
	// DefaultScrapeTimeout.
	ScrapeTimeout time.Duration
	// HTTPClient overrides the placement/proxy client (sweep chunks, job
	// submissions). Its transport is wrapped to track per-worker in-flight
	// counts. Nil selects a client with serve.DefaultShardTimeout.
	HTTPClient *http.Client
	// ChunkAttempts, RetryBase and RetryMax tune the sweep scatter's
	// reroute/backoff behaviour (see serve.ShardClient); 0 selects that
	// client's defaults.
	ChunkAttempts       int
	RetryBase, RetryMax time.Duration
	// Logger receives structured coordinator logs: worker state
	// transitions, job placements and migrations (trace-keyed), sweep
	// scatters. Nil discards them.
	Logger *slog.Logger
}

// Coordinator owns the fleet registry and job records and implements
// http.Handler.
type Coordinator struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	reg    *registry
	jobs   *jobTracker
	logger *slog.Logger

	// scrapeClient does heartbeats (short timeout); chunkClient carries
	// placed work (long timeout, in-flight counting transport).
	scrapeClient *http.Client
	chunkClient  *http.Client

	migrations atomic.Int64

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds and starts a Coordinator: the heartbeat and job loops run
// until Close.
func New(cfg Config) (*Coordinator, error) {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = DefaultEvictAfter
	}
	if cfg.EvictAfter < cfg.SuspectAfter {
		return nil, fmt.Errorf("fleet: EvictAfter %d < SuspectAfter %d", cfg.EvictAfter, cfg.SuspectAfter)
	}
	if cfg.JobPollEvery <= 0 {
		cfg.JobPollEvery = cfg.HeartbeatEvery
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = DefaultScrapeTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		start:  time.Now(),
		reg:    newRegistry(cfg.SuspectAfter, cfg.EvictAfter),
		jobs:   newJobTracker(),
		logger: cfg.Logger,
		ctx:    ctx, cancel: cancel,
	}
	c.reg.logger = cfg.Logger
	c.scrapeClient = &http.Client{Timeout: cfg.ScrapeTimeout}
	base := cfg.HTTPClient
	if base == nil {
		base = &http.Client{Timeout: serve.DefaultShardTimeout}
	}
	counting := *base
	counting.Transport = &countingTransport{reg: c.reg, base: base.Transport}
	c.chunkClient = &counting
	for _, url := range cfg.Workers {
		if _, err := c.reg.add(url, cfg.WorkerJobDirs[url]); err != nil {
			cancel()
			return nil, err
		}
	}
	c.routes()
	c.wg.Add(2)
	go c.heartbeatLoop()
	go c.jobLoop(cfg.JobPollEvery)
	// An immediate first scrape so statically configured workers enter
	// the placement pool without waiting a full heartbeat.
	c.scrapeAll()
	return c, nil
}

// Close stops the heartbeat and job loops. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(c.cancel)
	c.wg.Wait()
}

// countingTransport tracks the coordinator's in-flight requests per
// worker — the freshest load signal placement has. The count drops when
// response headers arrive: by then the worker has finished computing.
type countingTransport struct {
	reg  *registry
	base http.RoundTripper
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Scheme + "://" + req.URL.Host
	t.reg.addInflight(key, 1)
	defer t.reg.addInflight(key, -1)
	base := t.base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// --- heartbeats --------------------------------------------------------

// heartbeatLoop scrapes the whole registry on the configured cadence.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.scrapeAll()
		}
	}
}

// scrapeAll heartbeats every registered worker concurrently — dead ones
// included, so a flapping worker rejoins on its first good scrape.
func (c *Coordinator) scrapeAll() {
	urls := c.reg.urls()
	var wg sync.WaitGroup
	for _, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.scrape(url)
		}()
	}
	wg.Wait()
}

// scrape is one heartbeat: /healthz carries the worker's spec, its
// warm-state statistics and its job counts. An answer that does not list
// exactly one spec counts as a miss: the worker is not a compatible
// vcseld.
func (c *Coordinator) scrape(url string) {
	var h serve.Health
	code, err := c.getJSONWith(c.scrapeClient, url+"/healthz", &h)
	if err != nil || code != 200 || h.Status != "ok" || len(h.Specs) != 1 {
		c.reg.miss(url)
		return
	}
	c.reg.seen(url, h.Specs[0], h.Jobs)
}

// --- HTTP plumbing -----------------------------------------------------

// httpError carries a status code through the fleet handlers.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr emits the same JSON error envelope vcseld uses, so fleet and
// worker errors look alike to clients.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		code = he.code
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{err.Error()})
}

// maxFleetBodyBytes mirrors the worker's transient-submit cap: resume
// checkpoints pass through the coordinator.
const maxFleetBodyBytes = 64 << 20

// decode strictly parses the request body into v, refusing unknown
// fields and trailing data as a worker does.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxFleetBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &httpError{code: 400, msg: fmt.Sprintf("fleet: bad request body: %v", err)}
	}
	if dec.More() {
		return &httpError{code: 400, msg: "fleet: trailing data after JSON body"}
	}
	return nil
}

// getJSON GETs through the chunk client and decodes 200/4xx JSON bodies
// into v (error envelopes decode their "error" field where v has one).
func (c *Coordinator) getJSON(url string, v any) (int, error) {
	return c.getJSONWith(c.chunkClient, url, v)
}

func (c *Coordinator) getJSONWith(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxFleetBodyBytes)).Decode(v); err != nil && resp.StatusCode == 200 {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// postJSON POSTs req and decodes the response body into v. A non-empty
// traceID rides the request as X-Trace-ID so worker logs and envelopes
// join the coordinator-side trace.
func (c *Coordinator) postJSON(url, traceID string, req, v any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	httpReq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		httpReq.Header.Set(obs.TraceHeader, traceID)
		httpReq.Header.Set(obs.SpanHeader, obs.NewSpanID())
	}
	resp, err := c.chunkClient.Do(httpReq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxFleetBodyBytes)).Decode(v); err != nil && resp.StatusCode == 200 {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// newFleetJobID mints a coordinator job id.
func newFleetJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("fleet: crypto/rand unavailable: %v", err))
	}
	return "fj-" + hex.EncodeToString(b[:])
}

// --- API ---------------------------------------------------------------

func (c *Coordinator) routes() {
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
	c.mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	c.mux.HandleFunc("POST /v1/fleet/register", c.handleRegister)
	c.mux.HandleFunc("GET /v1/specs", c.handleSpecs)
	c.mux.HandleFunc("POST /v1/sweep/gradient", c.handleGradientSweep)
	c.mux.HandleFunc("POST /v1/sweep/avgtemp", c.handleAvgTempSweep)
	c.mux.HandleFunc("POST /v1/transient", c.handleTransient)
	c.mux.HandleFunc("GET /v1/jobs", c.handleJobs)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
}

// ServeHTTP implements http.Handler. Every request gets a trace id —
// minted here when the client sent none — echoed in the response header
// and propagated to the workers the request fans out to.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := obs.EnsureRequest(r)
	w.Header().Set(obs.TraceHeader, id)
	c.mux.ServeHTTP(w, r)
}

// FleetStatus is the GET /v1/fleet (and /healthz) body.
type FleetStatus struct {
	Status  string  `json:"status"`
	UptimeS float64 `json:"uptime_s"`
	// Alive counts workers currently in the placement pool.
	Alive   int          `json:"alive"`
	Workers []WorkerInfo `json:"workers"`
	// Jobs are the tracked transient jobs; Migrations the total worker
	// moves performed.
	Jobs       []JobRecord `json:"jobs,omitempty"`
	Migrations int64       `json:"migrations"`
}

func (c *Coordinator) fleetStatus(includeJobs bool) FleetStatus {
	workers := c.reg.snapshot()
	alive := 0
	for _, w := range workers {
		if w.State == StateAlive {
			alive++
		}
	}
	fs := FleetStatus{
		Status: "ok", UptimeS: time.Since(c.start).Seconds(),
		Alive: alive, Workers: workers, Migrations: c.migrations.Load(),
	}
	if alive == 0 {
		fs.Status = "degraded"
	}
	if includeJobs {
		fs.Jobs = c.jobs.list()
	}
	return fs
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.fleetStatus(false))
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.fleetStatus(true))
}

// RegisterRequest is a worker's self-registration (fleet.Announce).
type RegisterRequest struct {
	// URL is the worker's base URL as reachable from the coordinator.
	URL string `json:"url"`
	// JobDir is the worker's -job-dir as reachable from the coordinator's
	// filesystem (shared disk/mount); empty means diskless, and the
	// coordinator falls back to the checkpoint-export endpoint.
	JobDir string `json:"job_dir,omitempty"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	url, err := c.reg.add(req.URL, req.JobDir)
	if err != nil {
		writeErr(w, &httpError{code: 400, msg: err.Error()})
		return
	}
	// Scrape it now so it can enter the placement pool immediately.
	c.scrape(url)
	writeJSON(w, struct {
		URL   string `json:"url"`
		State string `json:"state"`
	}{url, c.reg.stateOf(url)})
}

// handleSpecs serves the alive workers' consensus spec, from cached
// scrapes, as a worker's one-entry list — the preflight surface a
// ShardClient pointed at the coordinator checks. Workers that disagree,
// or none scraped, answer 503.
func (c *Coordinator) handleSpecs(w http.ResponseWriter, r *http.Request) {
	spec, err := c.reg.consensus()
	if err != nil {
		writeErr(w, &httpError{code: 503, msg: err.Error()})
		return
	}
	writeJSON(w, []serve.SpecInfo{spec})
}

// shardClient builds the scatter client over the current placement
// order, pinned to the consensus discretisation so a worker that came
// back mid-sweep with a different mesh is refused per chunk.
func (c *Coordinator) shardClient(sc serve.Scenario, spec serve.SpecInfo, traceID string) (*serve.ShardClient, error) {
	workers := c.reg.placement()
	if len(workers) == 0 {
		return nil, &httpError{code: 503, msg: "fleet: no alive workers"}
	}
	res := thermal.Resolution{ONICell: spec.ONICell, DieCell: spec.DieCell, MaxZCell: spec.MaxZCell}
	return &serve.ShardClient{
		Workers:       workers,
		Scenario:      sc,
		HTTPClient:    c.chunkClient,
		ExpectRes:     &res,
		ChunkAttempts: c.cfg.ChunkAttempts,
		RetryBase:     c.cfg.RetryBase,
		RetryMax:      c.cfg.RetryMax,
		TraceID:       traceID,
	}, nil
}

// window validates a row window request against the axis length.
func window(total, start, count int) (int, int, error) {
	if start < 0 || start >= total {
		return 0, 0, &httpError{code: 400, msg: fmt.Sprintf("fleet: row_start %d outside [0, %d)", start, total)}
	}
	if count < 0 {
		return 0, 0, &httpError{code: 400, msg: fmt.Sprintf("fleet: negative row_count %d", count)}
	}
	lo, hi := serve.Window(total, start, count)
	return lo, hi, nil
}

// handleGradientSweep serves the worker-shaped gradient sweep API by
// sub-scattering the requested row window across the fleet.
func (c *Coordinator) handleGradientSweep(w http.ResponseWriter, r *http.Request) {
	var req serve.GradientSweepRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Lasers) == 0 || len(req.Heaters) == 0 {
		writeErr(w, &httpError{code: 400, msg: "fleet: empty sweep axes"})
		return
	}
	lo, hi, err := window(len(req.Lasers), req.RowStart, req.RowCount)
	if err != nil {
		writeErr(w, err)
		return
	}
	spec, err := c.reg.consensus()
	if err != nil {
		writeErr(w, &httpError{code: 503, msg: err.Error()})
		return
	}
	traceID := r.Header.Get(obs.TraceHeader)
	sc, err := c.shardClient(req.Scenario, spec, traceID)
	if err != nil {
		writeErr(w, err)
		return
	}
	start := time.Now()
	rows, err := sc.SweepGradient(req.Chip, req.Lasers[lo:hi], req.Heaters)
	if err != nil {
		writeErr(w, &httpError{code: 502, msg: err.Error()})
		return
	}
	c.logger.Info("sweep scattered", "kind", "gradient", "trace_id", traceID,
		"rows", hi-lo, "workers", len(sc.Workers), "duration_ms", time.Since(start).Seconds()*1e3)
	writeJSON(w, serve.GradientSweepResponse{
		RowStart: lo, TotalRows: len(req.Lasers), Rows: rows,
		ONICell: spec.ONICell, DieCell: spec.DieCell, MaxZCell: spec.MaxZCell,
		Solver: spec.Solver, TraceID: traceID,
	})
}

// handleAvgTempSweep is the chip × laser counterpart.
func (c *Coordinator) handleAvgTempSweep(w http.ResponseWriter, r *http.Request) {
	var req serve.AvgTempSweepRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Chips) == 0 || len(req.Lasers) == 0 {
		writeErr(w, &httpError{code: 400, msg: "fleet: empty sweep axes"})
		return
	}
	lo, hi, err := window(len(req.Chips), req.RowStart, req.RowCount)
	if err != nil {
		writeErr(w, err)
		return
	}
	spec, err := c.reg.consensus()
	if err != nil {
		writeErr(w, &httpError{code: 503, msg: err.Error()})
		return
	}
	traceID := r.Header.Get(obs.TraceHeader)
	sc, err := c.shardClient(req.Scenario, spec, traceID)
	if err != nil {
		writeErr(w, err)
		return
	}
	start := time.Now()
	rows, err := sc.SweepAvgTemp(req.Chips[lo:hi], req.Lasers)
	if err != nil {
		writeErr(w, &httpError{code: 502, msg: err.Error()})
		return
	}
	c.logger.Info("sweep scattered", "kind", "avgtemp", "trace_id", traceID,
		"rows", hi-lo, "workers", len(sc.Workers), "duration_ms", time.Since(start).Seconds()*1e3)
	writeJSON(w, serve.AvgTempSweepResponse{
		RowStart: lo, TotalRows: len(req.Chips), Rows: rows,
		ONICell: spec.ONICell, DieCell: spec.DieCell, MaxZCell: spec.MaxZCell,
		Solver: spec.Solver, TraceID: traceID,
	})
}

// handleTransient places a transient job on the least-loaded alive
// worker and tracks it for migration.
func (c *Coordinator) handleTransient(w http.ResponseWriter, r *http.Request) {
	var req serve.TransientRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	j, st, err := c.placeJob(req, r.Header.Get(obs.TraceHeader))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(st)
}

// JobRecordList is the paginated GET /v1/jobs body.
type JobRecordList struct {
	Jobs   []JobRecord `json:"jobs"`
	Total  int         `json:"total"`
	Offset int         `json:"offset"`
	More   bool        `json:"more"`
}

func pageParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, &httpError{code: 400, msg: fmt.Sprintf("fleet: %s %q must be a non-negative integer", name, raw)}
	}
	return n, nil
}

func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	offset, err := pageParam(r, "offset")
	if err != nil {
		writeErr(w, err)
		return
	}
	limit, err := pageParam(r, "limit")
	if err != nil {
		writeErr(w, err)
		return
	}
	all := c.jobs.list()
	lo, hi := serve.Window(len(all), offset, limit)
	writeJSON(w, JobRecordList{Jobs: all[lo:hi], Total: len(all), Offset: offset, More: hi < len(all)})
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := c.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, &httpError{code: 404, msg: fmt.Sprintf("fleet: unknown job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, c.jobs.record(j))
}

// --- worker-side helper ------------------------------------------------

// Announce registers a worker with a coordinator, retrying until it
// lands or ctx ends — vcseld calls this in the background when started
// with -coordinator, so worker and coordinator may come up in any
// order. Registration is idempotent; liveness afterwards is the
// coordinator's heartbeats, not re-announcement.
func Announce(ctx context.Context, coordinator, selfURL, jobDir string) error {
	coordinator, err := normalizeURL(coordinator)
	if err != nil {
		return err
	}
	body, err := json.Marshal(RegisterRequest{URL: selfURL, JobDir: jobDir})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: DefaultScrapeTimeout}
	delay := 500 * time.Millisecond
	for {
		resp, err := client.Post(coordinator+"/v1/fleet/register", "application/json", bytes.NewReader(body))
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == 200 {
				return nil
			}
			if code >= 400 && code < 500 {
				return fmt.Errorf("fleet: coordinator %s refused registration with HTTP %d", coordinator, code)
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
		if delay < 10*time.Second {
			delay *= 2
		}
	}
}
