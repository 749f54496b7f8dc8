package serve

// Async transient jobs: POST /v1/transient returns a job id immediately,
// the integration runs in the background against the server's warm model,
// and GET /v1/jobs/{id} reports progress (with an NDJSON stream variant
// for live monitoring). Jobs checkpoint periodically into the server's
// JobDir through the thermal layer's checkpoint sink; a daemon restarted
// over the same directory resumes every unfinished job from its last
// checkpoint, and the fvm fingerprint check guarantees a resumed job can
// never silently continue on a different mesh, operator or power vector.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcselnoc/internal/fvm"
	"vcselnoc/internal/obs"
	"vcselnoc/internal/thermal"
)

// jobConcurrency bounds transient jobs integrating at once: each job's
// solves already use the spec's worker pool, so running many concurrently
// oversubscribes the CPU without finishing anything sooner.
const jobConcurrency = 2

// jobIDPattern validates ids loaded from checkpoint filenames.
var jobIDPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9-]{0,63}$`)

// jobManager owns the transient jobs of one Server.
type jobManager struct {
	srv   *Server
	dir   string
	every int
	ttl   time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sem    chan struct{}

	mu   sync.Mutex
	jobs map[string]*transientJob

	// stepsTotal counts integration steps executed across all jobs — a
	// /metrics counter. expired counts TTL garbage collections.
	stepsTotal atomic.Int64
	expired    atomic.Int64
}

// transientJob is one job's mutable state plus its stream subscribers.
type transientJob struct {
	id  string
	req TransientRequest

	mu     sync.Mutex
	status JobStatus
	subs   map[chan JobStatus]struct{}
	// lastCP is the most recent checkpoint (in memory even without a
	// JobDir) — what GET /v1/jobs/{id}/checkpoint exports so a
	// coordinator can migrate the job without filesystem access.
	lastCP *fvm.TransientCheckpoint
	// doneAt timestamps the terminal transition for TTL garbage
	// collection.
	doneAt time.Time
}

// snapshot returns a copy of the status under the job lock.
func (j *transientJob) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// update mutates the status and broadcasts the new snapshot to stream
// subscribers; a terminal state closes their channels.
func (j *transientJob) update(fn func(*JobStatus)) {
	j.mu.Lock()
	fn(&j.status)
	snap := j.status
	terminal := snap.State == JobDone || snap.State == JobFailed
	if terminal && j.doneAt.IsZero() {
		j.doneAt = time.Now()
	}
	for ch := range j.subs {
		select {
		case ch <- snap:
		default: // slow subscriber: drop the intermediate snapshot
		}
		if terminal {
			close(ch)
			delete(j.subs, ch)
		}
	}
	j.mu.Unlock()
}

// subscribe registers a stream listener and returns the channel plus the
// current snapshot. A terminal job returns a closed channel.
func (j *transientJob) subscribe() (chan JobStatus, JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan JobStatus, 16)
	if j.status.State == JobDone || j.status.State == JobFailed {
		close(ch)
		return ch, j.status
	}
	if j.subs == nil {
		j.subs = make(map[chan JobStatus]struct{})
	}
	j.subs[ch] = struct{}{}
	return ch, j.status
}

func (j *transientJob) unsubscribe(ch chan JobStatus) {
	j.mu.Lock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
	j.mu.Unlock()
}

// setCheckpoint records the job's latest checkpoint for export.
func (j *transientJob) setCheckpoint(cp *fvm.TransientCheckpoint) {
	j.mu.Lock()
	j.lastCP = cp
	j.mu.Unlock()
}

// checkpoint returns the latest recorded checkpoint (nil before the
// first cadence).
func (j *transientJob) checkpoint() *fvm.TransientCheckpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastCP
}

// expiredAt reports whether the job is terminal and older than the
// cutoff.
func (j *transientJob) expiredAt(cutoff time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.doneAt.IsZero() && j.doneAt.Before(cutoff)
}

func newJobManager(s *Server, cfg Config) *jobManager {
	every := cfg.JobCheckpointEvery
	if every <= 0 {
		every = DefaultJobCheckpointEvery
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &jobManager{
		srv: s, dir: cfg.JobDir,
		every: every, ttl: cfg.JobTTL,
		ctx: ctx, cancel: cancel,
		sem:  make(chan struct{}, jobConcurrency),
		jobs: make(map[string]*transientJob),
	}
}

// stop interrupts every running job (each persists a checkpoint of its
// exact current step first when persistence is on) and waits for the job
// goroutines to exit.
func (jm *jobManager) stop() {
	jm.cancel()
	jm.wg.Wait()
}

// startGC launches the age-based job garbage collector when a TTL is
// configured: terminal jobs older than the TTL are dropped from the
// registry (and their files removed) so long-lived daemons don't grow
// unboundedly. Running and queued jobs are never collected.
func (jm *jobManager) startGC() {
	if jm.ttl <= 0 {
		return
	}
	interval := jm.ttl / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	jm.wg.Add(1)
	go func() {
		defer jm.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-jm.ctx.Done():
				return
			case <-t.C:
				jm.gcExpired(time.Now().Add(-jm.ttl))
			}
		}
	}()
}

// gcExpired removes terminal jobs older than the cutoff.
func (jm *jobManager) gcExpired(cutoff time.Time) {
	jm.mu.Lock()
	var drop []string
	for id, j := range jm.jobs {
		if j.expiredAt(cutoff) {
			drop = append(drop, id)
			delete(jm.jobs, id)
		}
	}
	jm.mu.Unlock()
	for _, id := range drop {
		jm.expired.Add(1)
		if jm.dir != "" {
			os.Remove(filepath.Join(jm.dir, id+".json")) //nolint:errcheck // best-effort cleanup of already-forgotten jobs
		}
	}
}

func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: crypto/rand unavailable: %v", err))
	}
	return "tj-" + hex.EncodeToString(b[:])
}

// validate rejects malformed submissions before a job is created.
func (jm *jobManager) validate(req TransientRequest) error {
	if _, err := req.activityScenario(); err != nil {
		return badRequest(err)
	}
	if err := req.powers().Validate(); err != nil {
		return badRequest(err)
	}
	if req.TimeStepS <= 0 {
		return badRequest(fmt.Errorf("serve: time_step_s %g must be > 0", req.TimeStepS))
	}
	if req.Steps <= 0 || req.Steps > DefaultMaxJobSteps {
		return badRequest(fmt.Errorf("serve: steps %d outside [1, %d]", req.Steps, DefaultMaxJobSteps))
	}
	if req.CheckpointEvery < 0 {
		return badRequest(fmt.Errorf("serve: negative checkpoint_every %d", req.CheckpointEvery))
	}
	if req.ID != "" && !jobIDPattern.MatchString(req.ID) {
		return badRequest(fmt.Errorf("serve: job id %q must match %s", req.ID, jobIDPattern))
	}
	if req.Resume != nil {
		if err := req.Resume.Validate(); err != nil {
			return badRequest(fmt.Errorf("serve: resume checkpoint: %w", err))
		}
		if req.Resume.Step > req.Steps {
			return badRequest(fmt.Errorf("serve: resume checkpoint is at step %d, beyond the job's %d steps", req.Resume.Step, req.Steps))
		}
	}
	return nil
}

// submit registers a new job and starts its background run. A request
// carrying an ID keeps it (the coordinator's migration handoff relies on
// a migrated job keeping its identity on the new worker); a request
// carrying a Resume checkpoint continues from it instead of step 0.
// traceID is the submitting request's trace, carried on the job status
// (and its persisted file) so migrated jobs keep one trace end to end.
func (jm *jobManager) submit(req TransientRequest, traceID string) (*transientJob, error) {
	if err := jm.validate(req); err != nil {
		return nil, err
	}
	id := req.ID
	if id == "" {
		id = newJobID()
	}
	// The checkpoint travels in the job file's Checkpoint slot (and the
	// in-memory lastCP), not inside the stored request — persisting it
	// twice would double every job file's dominant payload.
	cp := req.Resume
	req.Resume = nil
	j := &transientJob{
		id:  id,
		req: req,
		status: JobStatus{
			State: JobQueued,
			Steps: req.Steps, TimeStepS: req.TimeStepS,
			TraceID: traceID,
		},
	}
	j.status.ID = j.id
	if cp != nil {
		j.lastCP = cp
		j.status.Step = cp.Step
		j.status.TimeS = float64(cp.Step) * req.TimeStepS
	}
	jm.mu.Lock()
	if _, exists := jm.jobs[j.id]; exists {
		jm.mu.Unlock()
		return nil, &statusError{
			code: http.StatusConflict,
			err:  fmt.Errorf("serve: job id %q already exists", j.id),
		}
	}
	if len(jm.jobs) >= DefaultMaxJobs {
		jm.mu.Unlock()
		return nil, &statusError{
			code: http.StatusTooManyRequests,
			err:  fmt.Errorf("serve: %d transient jobs already retained (set Config.JobTTL to collect finished ones)", DefaultMaxJobs),
		}
	}
	jm.jobs[j.id] = j
	jm.mu.Unlock()
	if err := jm.persist(j, cp); err != nil {
		// Unregister the never-started job: leaving it would hold a
		// DefaultMaxJobs slot as a phantom "queued" entry forever.
		jm.mu.Lock()
		delete(jm.jobs, j.id)
		jm.mu.Unlock()
		return nil, err
	}
	jm.start(j, cp)
	return j, nil
}

// start launches the background integration goroutine.
func (jm *jobManager) start(j *transientJob, cp *fvm.TransientCheckpoint) {
	jm.wg.Add(1)
	go jm.run(j, cp)
}

// get resolves a job id.
func (jm *jobManager) get(id string) (*transientJob, bool) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	j, ok := jm.jobs[id]
	return j, ok
}

// list snapshots every job, sorted by id.
func (jm *jobManager) list() []JobStatus {
	jm.mu.Lock()
	jobs := make([]*transientJob, 0, len(jm.jobs))
	for _, j := range jm.jobs {
		jobs = append(jobs, j)
	}
	jm.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// stateCounts tallies jobs per lifecycle state (the /metrics gauge).
func (jm *jobManager) stateCounts() map[string]int {
	counts := map[string]int{JobQueued: 0, JobRunning: 0, JobDone: 0, JobFailed: 0}
	for _, st := range jm.list() {
		counts[st.State]++
	}
	return counts
}

// fail marks the job failed and persists the verdict.
func (jm *jobManager) fail(j *transientJob, err error) {
	j.update(func(s *JobStatus) {
		s.State = JobFailed
		s.Error = err.Error()
	})
	jm.persist(j, nil) //nolint:errcheck // the job state itself carries the error
	snap := j.snapshot()
	jm.srv.logger.Warn("job failed",
		"job", j.id, "trace_id", snap.TraceID, "err", err.Error())
}

// run integrates one job to completion (or interruption) in the
// background. cp, when non-nil, resumes a persisted checkpoint.
func (jm *jobManager) run(j *transientJob, cp *fvm.TransientCheckpoint) {
	defer jm.wg.Done()
	// Bound concurrent integrations; an interrupted wait stays queued and
	// resumes on the next daemon start (the submission was persisted).
	select {
	case jm.sem <- struct{}{}:
		defer func() { <-jm.sem }()
	case <-jm.ctx.Done():
		return
	}
	meth, err := jm.srv.methodology()
	if err != nil {
		jm.fail(j, err)
		return
	}
	act, err := j.req.activityScenario()
	if err != nil {
		jm.fail(j, err)
		return
	}
	powers := j.req.powers()
	powers.Activity = act

	every := j.req.CheckpointEvery
	if every <= 0 {
		every = jm.every
	}
	ts := thermal.TransientSpec{
		TimeStep: j.req.TimeStepS, Steps: j.req.Steps,
		CheckpointEvery: every, Resume: cp,
		Observer: func(o thermal.TransientObservation) {
			jm.stepsTotal.Add(1)
			j.update(func(s *JobStatus) {
				s.Step = o.Step
				s.TimeS = o.TimeS
				s.PeakTemp = o.PeakTemp
				s.MaxGradient = o.MaxGradient
			})
		},
	}
	// The cadence sink always records the checkpoint in memory (the
	// export endpoint serves it to migrating coordinators even on
	// diskless workers) and additionally persists it when a JobDir is
	// configured.
	ts.Checkpoint = func(cp *fvm.TransientCheckpoint) error {
		j.setCheckpoint(cp)
		if jm.dir == "" {
			return nil
		}
		return jm.persist(j, cp)
	}
	run, err := meth.Model().NewTransientRun(powers, ts)
	if err != nil {
		jm.fail(j, err)
		return
	}
	j.update(func(s *JobStatus) {
		s.State = JobRunning
		s.Step = run.StepIndex()
		s.TimeS = run.Time()
		s.Resumed = run.Resumed()
	})
	for !run.Done() {
		select {
		case <-jm.ctx.Done():
			// Interrupted (daemon shutdown): checkpoint the exact current
			// step so the next start resumes bit-identically, and leave
			// the persisted state non-terminal.
			cp := run.Checkpoint()
			j.setCheckpoint(cp)
			if jm.dir != "" {
				jm.persist(j, cp) //nolint:errcheck // shutting down; the prior cadence checkpoint remains
			}
			return
		default:
		}
		if err := run.Step(); err != nil {
			jm.fail(j, err)
			return
		}
	}
	result := &TransientJobResult{
		QueryResponse:    summarise(run.Result().Summary()),
		FieldFingerprint: run.FieldFingerprint(),
		TimeS:            run.Time(),
	}
	j.update(func(s *JobStatus) {
		s.State = JobDone
		s.Result = result
	})
	jm.persist(j, nil) //nolint:errcheck // completed in memory; persistence is best-effort at this point
	snap := j.snapshot()
	jm.srv.logger.Info("job done",
		"job", j.id, "trace_id", snap.TraceID,
		"steps", snap.Steps, "time_s", snap.TimeS)
}

// PersistedJob is the on-disk form of one job in a -job-dir: the
// submission, the lifecycle verdict, and (for unfinished jobs) the
// latest checkpoint to resume from. It is exported because it is also
// the fleet coordinator's migration source: when a worker dies, the
// coordinator reads `<job-dir>/<id>.json` off the dead worker's
// directory and resubmits Request with Checkpoint as the Resume point on
// a survivor.
type PersistedJob struct {
	ID         string                   `json:"id"`
	Request    TransientRequest         `json:"request"`
	State      string                   `json:"state"`
	Error      string                   `json:"error,omitempty"`
	Result     *TransientJobResult      `json:"result,omitempty"`
	Checkpoint *fvm.TransientCheckpoint `json:"checkpoint,omitempty"`
	// TraceID is the submitting request's trace, restored on daemon
	// restart so a resumed job keeps correlating with its original logs.
	TraceID string `json:"trace_id,omitempty"`
}

// persist atomically writes the job's file (tmp + rename). cp carries the
// latest checkpoint for unfinished jobs; terminal jobs drop the field —
// the result is what matters then.
func (jm *jobManager) persist(j *transientJob, cp *fvm.TransientCheckpoint) error {
	if jm.dir == "" {
		return nil
	}
	snap := j.snapshot()
	jf := PersistedJob{
		ID: j.id, Request: j.req,
		State: snap.State, Error: snap.Error, Result: snap.Result,
		TraceID: snap.TraceID,
	}
	if snap.State != JobDone && snap.State != JobFailed {
		jf.Checkpoint = cp
	}
	data, err := json.Marshal(jf)
	if err != nil {
		return fmt.Errorf("serve: marshalling job %s: %w", j.id, err)
	}
	path := filepath.Join(jm.dir, j.id+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("serve: persisting job %s: %w", j.id, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("serve: persisting job %s: %w", j.id, err)
	}
	return nil
}

// loadPersisted restores jobs from the job directory at startup:
// completed and failed jobs become queryable history, unfinished jobs
// resume from their last checkpoint (or from scratch when none was
// reached). Corrupt files become failed jobs so operators see them
// instead of silently losing work.
func (jm *jobManager) loadPersisted() error {
	if jm.dir == "" {
		return nil
	}
	if err := os.MkdirAll(jm.dir, 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}
	entries, err := os.ReadDir(jm.dir)
	if err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if !jobIDPattern.MatchString(id) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(jm.dir, name))
		var jf PersistedJob
		if err == nil {
			err = json.Unmarshal(data, &jf)
		}
		if err == nil && jf.ID != id {
			err = fmt.Errorf("job file %s names id %q", name, jf.ID)
		}
		if err == nil && jf.Checkpoint != nil {
			err = jf.Checkpoint.Validate()
		}
		j := &transientJob{id: id}
		if err != nil {
			j.status = JobStatus{
				ID: id, State: JobFailed,
				Error: fmt.Sprintf("serve: corrupt job file: %v", err),
			}
			j.doneAt = time.Now()
			jm.jobs[id] = j
			continue
		}
		j.req = jf.Request
		j.status = JobStatus{
			ID: id, State: jf.State,
			Steps: jf.Request.Steps, TimeStepS: jf.Request.TimeStepS,
			Error: jf.Error, Result: jf.Result,
			TraceID: jf.TraceID,
		}
		j.lastCP = jf.Checkpoint
		// Terminal jobs age for the TTL collector from their file's
		// mtime — the best persisted approximation of when they finished.
		if jf.State == JobDone || jf.State == JobFailed {
			j.doneAt = time.Now()
			if info, err := e.Info(); err == nil {
				j.doneAt = info.ModTime()
			}
		}
		switch jf.State {
		case JobDone:
			j.status.Step = jf.Request.Steps
			j.status.TimeS = float64(jf.Request.Steps) * jf.Request.TimeStepS
			jm.jobs[id] = j
		case JobFailed:
			jm.jobs[id] = j
		default:
			// Unfinished: resume from the checkpoint (nil restarts from
			// step 0 — the run never reached its first cadence).
			j.status.State = JobQueued
			if jf.Checkpoint != nil {
				j.status.Step = jf.Checkpoint.Step
				j.status.TimeS = float64(jf.Checkpoint.Step) * jf.Request.TimeStepS
			}
			jm.jobs[id] = j
			jm.start(j, jf.Checkpoint)
		}
	}
	return nil
}

// --- HTTP handlers -----------------------------------------------------

// maxTransientBodyBytes bounds transient submissions separately from the
// general request cap: a migration handoff carries a full per-cell
// checkpoint field (~20 MB of JSON at paper resolution), far beyond the
// 1 MB that bounds every other endpoint.
const maxTransientBodyBytes = 64 << 20

// handleTransientSubmit accepts a transient job and returns its initial
// status with 202 Accepted.
func (s *Server) handleTransientSubmit(w http.ResponseWriter, r *http.Request) {
	traceID := r.Header.Get(obs.TraceHeader)
	var req TransientRequest
	if err := decodeLimit(r, &req, maxTransientBodyBytes); err != nil {
		writeErrTrace(w, traceID, err)
		return
	}
	j, err := s.jobs.submit(req, traceID)
	if err != nil {
		writeErrTrace(w, traceID, err)
		return
	}
	snap := j.snapshot()
	s.logger.Info("job accepted",
		"job", j.id, "trace_id", traceID,
		"steps", snap.Steps, "resume_step", snap.Step)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(snap)
}

// pageParam parses one non-negative pagination query parameter.
func pageParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, badRequest(fmt.Errorf("serve: %s %q must be a non-negative integer", name, raw))
	}
	return n, nil
}

// handleJobs lists retained jobs, paginated: ?offset=N skips the first N
// (id-sorted) jobs, ?limit=M caps the window (0 or absent returns the
// rest). An offset beyond the end returns an empty window, not an error,
// so pagination loops terminate cleanly.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
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
	all := s.jobs.list()
	lo, hi := Window(len(all), offset, limit)
	writeJSON(w, JobList{
		Jobs:   all[lo:hi],
		Total:  len(all),
		Offset: offset,
		More:   hi < len(all),
	})
}

// handleJobCheckpoint exports a job's latest checkpoint — the
// coordinator's migration source for workers running without a shared
// job directory. 404 until the first cadence checkpoint exists.
func (s *Server) handleJobCheckpoint(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, notFound(fmt.Errorf("serve: unknown job %q", r.PathValue("id"))))
		return
	}
	cp := j.checkpoint()
	if cp == nil {
		writeErr(w, notFound(fmt.Errorf("serve: job %q has no checkpoint yet", j.id)))
		return
	}
	writeJSON(w, cp)
}

// handleJob reports one job's progress (and result once done).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, notFound(fmt.Errorf("serve: unknown job %q", r.PathValue("id"))))
		return
	}
	writeJSON(w, j.snapshot())
}

// handleJobStream streams a job's status snapshots as NDJSON until the
// job reaches a terminal state or the client goes away. The first line
// is always the current status, so a late subscriber still sees the
// final state of a finished job.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, notFound(fmt.Errorf("serve: unknown job %q", r.PathValue("id"))))
		return
	}
	flusher, _ := w.(http.Flusher)
	ch, snap := j.subscribe()
	defer j.unsubscribe(ch)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	terminal := func(st JobStatus) bool { return st.State == JobDone || st.State == JobFailed }
	if err := enc.Encode(snap); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	last := snap
	for {
		select {
		case st, open := <-ch:
			if !open {
				// The broadcast may have dropped the terminal snapshot on
				// a lagging subscriber; guarantee the stream still ends
				// with the final state (result included).
				if !terminal(last) {
					_ = enc.Encode(j.snapshot())
				}
				return
			}
			if err := enc.Encode(st); err != nil {
				return
			}
			last = st
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-s.jobs.ctx.Done():
			// Server shutdown: end the stream so graceful HTTP drains do
			// not stall on attached stream clients.
			return
		}
	}
}
