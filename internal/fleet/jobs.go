package fleet

// Transient-job tracking and checkpoint-driven migration. The
// coordinator owns the canonical record of every job it placed: which
// worker runs it, its last polled status, and its freshest checkpoint.
// One poll loop is the single writer of these records — it refreshes
// statuses, caches checkpoints off diskless workers, and migrates jobs
// whose owner the heartbeat state machine has declared dead.
//
// Migration preserves bit-identity: the job is resubmitted to a
// survivor under its original id with a Resume checkpoint, and the fvm
// system fingerprint inside the checkpoint refuses any survivor whose
// discretisation differs — so a migrated run's final field is exactly
// the field an uninterrupted run would have produced.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vcselnoc/internal/fvm"
	"vcselnoc/internal/serve"
)

// trackedJob is the coordinator's record of one placed transient job.
type trackedJob struct {
	id string
	// req is the original submission (Resume stripped; the coordinator
	// supplies its own checkpoint on migration).
	req serve.TransientRequest
	// worker is the current owner's URL; empty while the job waits for a
	// survivor to migrate onto.
	worker string
	// status is the last polled JobStatus from the owner.
	status serve.JobStatus
	// cp is the freshest checkpoint the coordinator holds — cached from
	// the owner's checkpoint-export endpoint when the owner runs without
	// a job directory, or read from its job file at migration time.
	cp         *fvm.TransientCheckpoint
	migrations int
	// traceID is the submission's request trace — it rides every
	// placement and migration POST so the whole lifetime of the job joins
	// one trace across coordinator and worker logs.
	traceID string
	// placing guards the window between tracker insertion and the initial
	// placement landing: the poll loop must not mistake the still-empty
	// worker field for a lost owner and "migrate" a job that was never
	// placed.
	placing bool
}

// JobRecord is the wire form of a tracked job (fleet job endpoints).
type JobRecord struct {
	serve.JobStatus
	// Worker is the current owner's URL ("" while awaiting migration).
	Worker string `json:"worker,omitempty"`
	// Migrations counts how many times the job moved workers.
	Migrations int `json:"migrations,omitempty"`
}

// jobTracker holds the records under one lock. Handlers read and insert;
// the poll loop is the only mutator of ownership.
type jobTracker struct {
	mu   sync.Mutex
	jobs map[string]*trackedJob
}

func newJobTracker() *jobTracker {
	return &jobTracker{jobs: make(map[string]*trackedJob)}
}

func (t *jobTracker) get(id string) (*trackedJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// insert registers a freshly placed job; false if the id is taken.
func (t *jobTracker) insert(j *trackedJob) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.jobs[j.id]; exists {
		return false
	}
	t.jobs[j.id] = j
	return true
}

// record snapshots one job under the lock.
func (t *jobTracker) record(j *trackedJob) JobRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return JobRecord{JobStatus: j.status, Worker: j.worker, Migrations: j.migrations}
}

// list snapshots every record, id-sorted.
func (t *jobTracker) list() []JobRecord {
	t.mu.Lock()
	out := make([]JobRecord, 0, len(t.jobs))
	for _, j := range t.jobs {
		out = append(out, JobRecord{JobStatus: j.status, Worker: j.worker, Migrations: j.migrations})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// active returns the non-terminal jobs — the poll loop's work list.
func (t *jobTracker) active() []*trackedJob {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*trackedJob
	for _, j := range t.jobs {
		if j.placing || j.status.State == serve.JobDone || j.status.State == serve.JobFailed {
			continue
		}
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

// pollJobs is one tick of the job loop: refresh every active job's
// status from its owner, cache checkpoints off diskless owners, and
// migrate jobs owned by dead workers.
func (c *Coordinator) pollJobs() {
	for _, j := range c.jobs.active() {
		c.jobs.mu.Lock()
		owner := j.worker
		c.jobs.mu.Unlock()
		switch {
		case owner == "":
			// Waiting for a survivor since a failed migration attempt.
			c.migrate(j)
		case c.reg.stateOf(owner) == StateDead:
			c.migrate(j)
		default:
			c.refreshJob(j, owner)
		}
	}
}

// refreshJob polls one job's status off its (believed-alive) owner.
func (c *Coordinator) refreshJob(j *trackedJob, owner string) {
	var st serve.JobStatus
	code, err := c.getJSON(owner+"/v1/jobs/"+j.id, &st)
	switch {
	case err == nil && code == 200:
		c.jobs.mu.Lock()
		if st.TraceID == "" {
			st.TraceID = j.traceID
		}
		j.status = st
		c.jobs.mu.Unlock()
		if st.State == serve.JobRunning && c.reg.jobDirOf(owner) == "" {
			// Diskless owner: the cached checkpoint is the only migration
			// source if it dies, so keep it fresh.
			var cp fvm.TransientCheckpoint
			if code, err := c.getJSON(owner+"/v1/jobs/"+j.id+"/checkpoint", &cp); err == nil && code == 200 {
				c.jobs.mu.Lock()
				if j.cp == nil || cp.Step > j.cp.Step {
					j.cp = &cp
				}
				c.jobs.mu.Unlock()
			}
		}
	case err == nil && code == 404:
		// The owner is alive but no longer knows the job (restart without
		// a job dir, or TTL GC raced us). Re-place it from what we hold.
		c.migrate(j)
	default:
		// Transport failure: leave the record alone; the heartbeat state
		// machine decides whether this owner is dead.
	}
}

// bestCheckpoint picks the migration source for a job whose owner died:
// the dead worker's persisted job file when it registered a -job-dir
// (reachable because coordinator and workers share the filesystem or a
// mount), else the checkpoint cached from its export endpoint, else nil
// (restart from step 0 — correct, just slower). A job file that already
// records a terminal state short-circuits the migration entirely.
func (c *Coordinator) bestCheckpoint(j *trackedJob, deadWorker string) (*fvm.TransientCheckpoint, *serve.PersistedJob) {
	c.jobs.mu.Lock()
	cached := j.cp
	c.jobs.mu.Unlock()
	dir := c.reg.jobDirOf(deadWorker)
	if dir == "" {
		return cached, nil
	}
	data, err := os.ReadFile(filepath.Join(dir, j.id+".json"))
	if err != nil {
		return cached, nil
	}
	var pj serve.PersistedJob
	if json.Unmarshal(data, &pj) != nil || pj.ID != j.id {
		return cached, nil
	}
	if pj.State == serve.JobDone || pj.State == serve.JobFailed {
		return nil, &pj
	}
	if pj.Checkpoint != nil && (cached == nil || pj.Checkpoint.Step > cached.Step) {
		return pj.Checkpoint, nil
	}
	return cached, nil
}

// migrate moves a job off its dead (or lost) owner: recover the best
// checkpoint, pick the least-loaded alive survivor, and resubmit under
// the same id with the checkpoint as the Resume point. A survivor that
// already owns the id (a previous migration half-completed) is simply
// adopted. With no survivor the job stays pending and every later tick
// retries — a flapping fleet heals instead of failing the job.
func (c *Coordinator) migrate(j *trackedJob) {
	c.jobs.mu.Lock()
	oldOwner := j.worker
	j.worker = ""
	c.jobs.mu.Unlock()

	var cp *fvm.TransientCheckpoint
	var terminal *serve.PersistedJob
	if oldOwner != "" {
		cp, terminal = c.bestCheckpoint(j, oldOwner)
	} else {
		c.jobs.mu.Lock()
		cp = j.cp
		c.jobs.mu.Unlock()
	}
	if terminal != nil {
		// The job finished before its worker died; adopt the persisted
		// verdict instead of re-running anything.
		c.jobs.mu.Lock()
		j.status.State = terminal.State
		j.status.Error = terminal.Error
		j.status.Result = terminal.Result
		if terminal.State == serve.JobDone {
			j.status.Step = j.req.Steps
		}
		c.jobs.mu.Unlock()
		return
	}

	req := j.req
	req.ID = j.id
	req.Resume = cp
	resumeStep := 0
	if cp != nil {
		resumeStep = cp.Step
	}
	for _, target := range c.placementTargets(oldOwner) {
		var st serve.JobStatus
		code, err := c.postJSON(target+"/v1/transient", j.traceID, req, &st)
		switch {
		case err == nil && (code == 202 || code == 200):
			c.jobs.mu.Lock()
			j.worker = target
			if st.TraceID == "" {
				st.TraceID = j.traceID
			}
			j.status = st
			j.migrations++
			n := j.migrations
			if cp != nil {
				j.cp = cp
			}
			c.jobs.mu.Unlock()
			c.migrations.Add(1)
			c.logger.Info("job migrated", "job", j.id, "trace_id", j.traceID,
				"from", oldOwner, "to", target, "resume_step", resumeStep, "migrations", n)
			return
		case err == nil && code == 409:
			// The target already owns this id: a previous attempt landed
			// but we crashed before recording it. Adopt and refresh.
			c.jobs.mu.Lock()
			j.worker = target
			j.migrations++
			n := j.migrations
			c.jobs.mu.Unlock()
			c.migrations.Add(1)
			c.logger.Info("job migrated", "job", j.id, "trace_id", j.traceID,
				"from", oldOwner, "to", target, "resume_step", resumeStep, "migrations", n,
				"adopted", true)
			c.refreshJob(j, target)
			return
		}
		// 4xx/5xx/transport error: try the next survivor this tick.
	}
	// No survivor took it; stay pending and retry next tick.
	c.logger.Warn("job awaiting migration", "job", j.id, "trace_id", j.traceID, "from", oldOwner)
}

// placementTargets is the placement order minus one excluded worker.
func (c *Coordinator) placementTargets(exclude string) []string {
	ranked := c.reg.placement()
	out := ranked[:0]
	for _, url := range ranked {
		if url != exclude {
			out = append(out, url)
		}
	}
	return out
}

// placeJob places a fresh submission on the least-loaded alive worker,
// falling through the ranking on per-worker refusals (e.g. a full
// DefaultMaxJobs table answers 429).
func (c *Coordinator) placeJob(req serve.TransientRequest, traceID string) (*trackedJob, serve.JobStatus, error) {
	id := req.ID
	if id == "" {
		id = newFleetJobID()
	}
	req.ID = id
	cp := req.Resume
	req.Resume = nil
	j := &trackedJob{
		id: id, req: req, cp: cp, placing: true, traceID: traceID,
		status: serve.JobStatus{ID: id, State: serve.JobQueued, Steps: req.Steps, TimeStepS: req.TimeStepS, TraceID: traceID},
	}
	if !c.jobs.insert(j) {
		return nil, serve.JobStatus{}, &httpError{code: 409, msg: fmt.Sprintf("fleet: job id %q already tracked", id)}
	}
	req.Resume = cp
	targets := c.placementTargets("")
	if len(targets) == 0 {
		c.jobs.drop(id)
		return nil, serve.JobStatus{}, &httpError{code: 503, msg: "fleet: no alive workers"}
	}
	var lastErr error
	for _, target := range targets {
		var st serve.JobStatus
		code, err := c.postJSON(target+"/v1/transient", traceID, req, &st)
		if err == nil && code == 202 {
			c.jobs.mu.Lock()
			j.worker = target
			if st.TraceID == "" {
				st.TraceID = traceID
			}
			j.status = st
			j.placing = false
			c.jobs.mu.Unlock()
			c.logger.Info("job placed", "job", id, "trace_id", traceID,
				"worker", target, "steps", req.Steps)
			return j, st, nil
		}
		if err == nil && code >= 400 && code < 500 && code != 429 {
			// Deterministic rejection (bad request): every worker would
			// refuse it the same way — surface it.
			c.jobs.drop(id)
			return nil, serve.JobStatus{}, &httpError{code: code, msg: st.Error}
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("fleet: worker %s refused the job with HTTP %d", target, code)
		}
	}
	c.jobs.drop(id)
	return nil, serve.JobStatus{}, &httpError{code: 503, msg: fmt.Sprintf("fleet: no worker accepted the job: %v", lastErr)}
}

// drop forgets a job record (failed placement rollback).
func (t *jobTracker) drop(id string) {
	t.mu.Lock()
	delete(t.jobs, id)
	t.mu.Unlock()
}

// jobLoop runs pollJobs on the configured cadence until shutdown.
func (c *Coordinator) jobLoop(every time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.pollJobs()
		}
	}
}
