package fleet

// Fleet failover tests. Every failure path the coordinator claims to
// survive is exercised here deterministically: heartbeat loss and
// flapping rejoin through the chaos proxy, a worker dying mid-sweep
// (chunks reroute to survivors, grid stays bit-identical to the
// in-process explorer), and a worker dying mid-transient-job (the job
// migrates from its last checkpoint — via the dead worker's job dir or
// the coordinator's cached export — and the resumed result is
// bit-identical to an uninterrupted run).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/core"
	"vcselnoc/internal/fleet/chaos"
	"vcselnoc/internal/serve"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/thermal"
)

// --- helpers -----------------------------------------------------------

func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full model builds skipped in -short")
	}
}

func previewSpec(t *testing.T) thermal.Spec {
	t.Helper()
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.PreviewResolution()
	return spec
}

// newWorker spins one vcseld-equivalent with transient-job persistence
// in dir ("" keeps jobs in memory) and a tight checkpoint cadence, on an
// httptest listener. warm pre-builds the model and basis — needed by
// tests that place work, skipped by tests that only heartbeat.
func newWorker(t *testing.T, dir string, warm bool) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Config{
		Specs:              map[string]thermal.Spec{serve.DefaultSpec: previewSpec(t)},
		JobDir:             dir,
		JobCheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		if err := s.Warm(serve.DefaultSpec); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// newCoordinator builds a coordinator with test-speed cadences.
func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 20 * time.Millisecond
	}
	if cfg.SuspectAfter == 0 {
		cfg.SuspectAfter = 2
	}
	if cfg.EvictAfter == 0 {
		cfg.EvictAfter = 3
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 3 * time.Minute}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// ctlDo drives one request through the coordinator without a network.
func ctlDo(t *testing.T, c *Coordinator, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	c.ServeHTTP(w, req)
	return w
}

func decodeBody[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(w.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v (body %q)", err, w.Body.String())
	}
	return v
}

func waitFor(t *testing.T, what string, timeout time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// workerStateVia reads one worker's state off the fleet status endpoint.
func workerStateVia(t *testing.T, c *Coordinator, url string) string {
	t.Helper()
	for _, w := range decodeBody[FleetStatus](t, ctlDo(t, c, "GET", "/healthz", "")).Workers {
		if w.URL == url {
			return w.State
		}
	}
	return ""
}

// fleetJob reads one tracked job's record off the coordinator.
func fleetJob(t *testing.T, c *Coordinator, id string) JobRecord {
	t.Helper()
	w := ctlDo(t, c, "GET", "/v1/jobs/"+id, "")
	if w.Code != http.StatusOK {
		t.Fatalf("fleet job read: HTTP %d (%s)", w.Code, w.Body.String())
	}
	return decodeBody[JobRecord](t, w)
}

// workerJob reads a job's status straight off a worker's handler.
func workerJob(t *testing.T, s *serve.Server, id string) serve.JobStatus {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("worker job read: HTTP %d (%s)", w.Code, w.Body.String())
	}
	return decodeBody[serve.JobStatus](t, w)
}

// pollFleetJob polls the coordinator until the job reaches a terminal
// state, failing the test if that state is failed.
func pollFleetJob(t *testing.T, c *Coordinator, id string) JobRecord {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rec := fleetJob(t, c, id)
		if rec.State == serve.JobFailed {
			t.Fatalf("fleet job failed: %s", rec.Error)
		}
		if rec.State == serve.JobDone {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("fleet job did not finish in time")
	return JobRecord{}
}

const transientBody = `{"chip": 25, "pvcsel": 4e-3, "pheater": 1.2e-3, "time_step_s": 0.02, "steps": %d}`

// --- registry unit tests ----------------------------------------------

func TestRegistryStateMachine(t *testing.T) {
	r := newRegistry(2, 4)
	url, err := r.add("localhost:1234/", "")
	if err != nil {
		t.Fatal(err)
	}
	if url != "http://localhost:1234" {
		t.Fatalf("normalized URL = %q", url)
	}
	if got := r.stateOf(url); got != StateSuspect {
		t.Fatalf("new worker state = %q, want suspect until first scrape", got)
	}
	if len(r.placement()) != 0 {
		t.Fatal("unscraped worker entered placement")
	}

	r.seen(url, nil, nil)
	if got := r.stateOf(url); got != StateAlive {
		t.Fatalf("state after scrape = %q", got)
	}
	if got := r.placement(); len(got) != 1 || got[0] != url {
		t.Fatalf("placement = %v", got)
	}

	r.miss(url)
	if got := r.stateOf(url); got != StateAlive {
		t.Fatalf("state after 1 miss = %q, want alive (suspectAfter=2)", got)
	}
	r.miss(url)
	if got := r.stateOf(url); got != StateSuspect {
		t.Fatalf("state after 2 misses = %q, want suspect", got)
	}
	if len(r.placement()) != 0 {
		t.Fatal("suspect worker stayed in placement")
	}
	r.miss(url)
	r.miss(url)
	if got := r.stateOf(url); got != StateDead {
		t.Fatalf("state after 4 misses = %q, want dead", got)
	}
	if got := r.urls(); len(got) != 1 {
		t.Fatalf("dead worker dropped from scrape targets: %v", got)
	}

	// Rejoin: one good scrape fully revives the worker.
	r.seen(url, nil, nil)
	if got := r.stateOf(url); got != StateAlive {
		t.Fatalf("state after rejoin = %q", got)
	}
	r.miss(url)
	if got := r.stateOf(url); got != StateAlive {
		t.Fatal("rejoin did not reset the miss counter")
	}
}

func TestPlacementOrdersByLoad(t *testing.T) {
	r := newRegistry(2, 4)
	a, _ := r.add("http://a:1", "")
	b, _ := r.add("http://b:1", "")
	r.seen(a, nil, nil)
	r.seen(b, nil, nil)

	// Equal scores tie-break by URL.
	if got := r.placement(); !reflect.DeepEqual(got, []string{a, b}) {
		t.Fatalf("placement = %v", got)
	}
	// One in-flight request (weight 10) beats two queued jobs (weight 5
	// each) only at equal count; three jobs outweigh one request.
	r.addInflight(a, 1)
	if got := r.placement(); !reflect.DeepEqual(got, []string{b, a}) {
		t.Fatalf("placement with a in-flight = %v", got)
	}
	r.seen(b, nil, map[string]int{serve.JobQueued: 1, serve.JobRunning: 2})
	if got := r.placement(); !reflect.DeepEqual(got, []string{a, b}) {
		t.Fatalf("placement with b loaded = %v", got)
	}
	// Warm bases subtract from the score.
	r.seen(b, []serve.SpecInfo{{Name: "x", WarmBases: 8}}, nil)
	r.addInflight(b, 1)
	if got := r.placement(); !reflect.DeepEqual(got, []string{b, a}) {
		t.Fatalf("placement with b warm = %v", got)
	}
}

func TestConsensusSpec(t *testing.T) {
	r := newRegistry(2, 4)
	a, _ := r.add("http://a:1", "")
	b, _ := r.add("http://b:1", "")
	info := serve.SpecInfo{Name: "paper", ONICell: 1e-5, DieCell: 2e-4, MaxZCell: 5e-5, Solver: "mg-cg"}
	r.seen(a, []serve.SpecInfo{info}, nil)
	r.seen(b, []serve.SpecInfo{info}, nil)
	got, err := r.consensusSpec("paper")
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Fatalf("consensus = %+v", got)
	}
	if _, err := r.consensusSpec("nope"); err == nil {
		t.Fatal("unknown spec produced a consensus")
	}
	diverged := info
	diverged.ONICell = 2e-5
	r.seen(b, []serve.SpecInfo{diverged}, nil)
	if _, err := r.consensusSpec("paper"); err == nil {
		t.Fatal("diverged discretisations produced a consensus")
	}
	// A dead worker's divergence no longer vetoes the fleet.
	for i := 0; i < 4; i++ {
		r.miss(b)
	}
	if _, err := r.consensusSpec("paper"); err != nil {
		t.Fatalf("dead worker still vetoes consensus: %v", err)
	}
}

func TestParseJobsGauge(t *testing.T) {
	body := `# HELP vcseld_jobs Transient jobs by state.
# TYPE vcseld_jobs gauge
vcseld_jobs{state="queued"} 1
vcseld_jobs{state="running"} 2
vcseld_jobs{state="done"} 7
vcseld_up 1
`
	got := parseJobsGauge(body)
	want := map[string]int{"queued": 1, "running": 2, "done": 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseJobsGauge = %v, want %v", got, want)
	}
}

// --- coordinator API edges --------------------------------------------

func TestCoordinatorEmptyFleet(t *testing.T) {
	c := newCoordinator(t, Config{})
	if st := decodeBody[FleetStatus](t, ctlDo(t, c, "GET", "/healthz", "")); st.Status != "degraded" {
		t.Fatalf("empty fleet status = %q, want degraded", st.Status)
	}
	if w := ctlDo(t, c, "GET", "/v1/specs", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("specs with no workers: HTTP %d", w.Code)
	}
	if w := ctlDo(t, c, "POST", "/v1/transient", fmt.Sprintf(transientBody, 4)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("placement with no workers: HTTP %d (%s)", w.Code, w.Body.String())
	}
	if w := ctlDo(t, c, "POST", "/v1/fleet/register", `{"url": ""}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty registration: HTTP %d", w.Code)
	}
	if w := ctlDo(t, c, "GET", "/v1/jobs?offset=-1", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("negative offset: HTTP %d", w.Code)
	}
}

// TestFleetHeartbeatFlapRejoin drives the full lifecycle through the
// chaos proxy: alive → (partition) suspect → dead → (heal) alive, with
// the worker's process running untouched the whole time.
func TestFleetHeartbeatFlapRejoin(t *testing.T) {
	_, ts := newWorker(t, "", false)
	proxy, ps := chaos.Serve(ts.URL)
	t.Cleanup(ps.Close)

	c := newCoordinator(t, Config{Workers: []string{ps.URL}})
	waitFor(t, "worker alive", time.Minute, func() bool {
		return workerStateVia(t, c, ps.URL) == StateAlive
	})

	proxy.DropAll()
	waitFor(t, "worker suspect", time.Minute, func() bool {
		st := workerStateVia(t, c, ps.URL)
		return st == StateSuspect || st == StateDead
	})
	waitFor(t, "worker dead", time.Minute, func() bool {
		return workerStateVia(t, c, ps.URL) == StateDead
	})
	if st := decodeBody[FleetStatus](t, ctlDo(t, c, "GET", "/healthz", "")); st.Status != "degraded" || st.Alive != 0 {
		t.Fatalf("fleet with its only worker dead: status %q, alive %d", st.Status, st.Alive)
	}

	proxy.Heal()
	waitFor(t, "worker rejoined", time.Minute, func() bool {
		return workerStateVia(t, c, ps.URL) == StateAlive
	})
	if st := decodeBody[FleetStatus](t, ctlDo(t, c, "GET", "/healthz", "")); st.Status != "ok" || st.Alive != 1 {
		t.Fatalf("healed fleet: status %q, alive %d", st.Status, st.Alive)
	}
}

// TestFleetSweepSurvivesMidChunkDeath is the sweep acceptance test: a
// gradient grid requested from the coordinator must come back
// bit-identical to the in-process explorer even when one worker drops a
// chunk's connection mid-sweep (the chunk reroutes to the survivor).
func TestFleetSweepSurvivesMidChunkDeath(t *testing.T) {
	skipShort(t)
	spec := previewSpec(t)
	m, err := core.NewWithSpec(spec, snr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.Explorer(activity.Uniform{})
	if err != nil {
		t.Fatal(err)
	}

	_, ts1 := newWorker(t, "", true)
	_, ts2 := newWorker(t, "", true)
	rule := &chaos.Rule{Method: http.MethodPost, PathPrefix: "/v1/sweep/", Drop: true, Count: 1}
	proxy, ps := chaos.Serve(ts2.URL, rule)
	t.Cleanup(ps.Close)

	c := newCoordinator(t, Config{Workers: []string{ts1.URL, ps.URL}})
	waitFor(t, "both workers alive", time.Minute, func() bool {
		return workerStateVia(t, c, ts1.URL) == StateAlive && workerStateVia(t, c, ps.URL) == StateAlive
	})

	chip := 25.0
	lasers := []float64{1e-3, 2e-3, 3e-3, 4e-3}
	heaters := []float64{0, 1e-3, 2e-3}
	want, err := ex.SweepGradient(chip, lasers, heaters)
	if err != nil {
		t.Fatal(err)
	}

	body := fmt.Sprintf(`{"chip": %g, "pvcsel": 1e-3, "lasers": [1e-3, 2e-3, 3e-3, 4e-3], "heaters": [0, 1e-3, 2e-3]}`, chip)
	w := ctlDo(t, c, "POST", "/v1/sweep/gradient", body)
	if w.Code != http.StatusOK {
		t.Fatalf("fleet sweep: HTTP %d (%s)", w.Code, w.Body.String())
	}
	resp := decodeBody[serve.GradientSweepResponse](t, w)
	if resp.TotalRows != len(lasers) || len(resp.Rows) != len(lasers) {
		t.Fatalf("fleet sweep shape: total %d, rows %d", resp.TotalRows, len(resp.Rows))
	}
	if !reflect.DeepEqual(resp.Rows, want) {
		t.Fatal("fleet sweep grid differs from the in-process explorer")
	}
	if got := proxy.Applied(rule); got != 1 {
		t.Fatalf("chaos rule applied %d times, want 1 (the mid-sweep death must have happened)", got)
	}
}

// runReference runs the uninterrupted reference job directly on one
// worker and returns its terminal status.
func runReference(t *testing.T, s *serve.Server, steps int) serve.JobStatus {
	t.Helper()
	body := fmt.Sprintf(`{"chip": 25, "pvcsel": 4e-3, "pheater": 1.2e-3, "time_step_s": 0.02, "steps": %d, "id": "ref-uninterrupted"}`, steps)
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/transient", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	s.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("reference submit: HTTP %d (%s)", w.Code, w.Body.String())
	}
	id := decodeBody[serve.JobStatus](t, w).ID
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := workerJob(t, s, id)
		if st.State == serve.JobFailed {
			t.Fatalf("reference job failed: %s", st.Error)
		}
		if st.State == serve.JobDone {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("reference job did not finish")
	return serve.JobStatus{}
}

// killOwnerMidJob submits a transient job through the coordinator,
// waits for its owner to pass minStep, kills the owner, and returns the
// job id plus the surviving worker. Shared by both migration tests.
func killOwnerMidJob(t *testing.T, c *Coordinator, steps, minStep int,
	workers map[string]*serve.Server, servers map[string]*httptest.Server) (string, *serve.Server) {
	t.Helper()
	w := ctlDo(t, c, "POST", "/v1/transient", fmt.Sprintf(transientBody, steps))
	if w.Code != http.StatusAccepted {
		t.Fatalf("fleet submit: HTTP %d (%s)", w.Code, w.Body.String())
	}
	id := decodeBody[serve.JobStatus](t, w).ID
	rec := fleetJob(t, c, id)
	if rec.Worker == "" {
		t.Fatal("placed job has no owner")
	}
	owner := workers[rec.Worker]
	if owner == nil {
		t.Fatalf("unknown owner %q", rec.Worker)
	}
	// Tight-poll the owner directly (no coordinator latency) so the kill
	// lands mid-job, well before the final step.
	waitFor(t, "job past checkpointed step", time.Minute, func() bool {
		st := workerJob(t, owner, id)
		if st.State == serve.JobDone || st.State == serve.JobFailed {
			t.Fatalf("job reached %s before the kill — raise steps", st.State)
		}
		return st.Step >= minStep
	})
	servers[rec.Worker].Close()
	owner.Close()

	var survivor *serve.Server
	for url, s := range workers {
		if url != rec.Worker {
			survivor = s
		}
	}
	return id, survivor
}

// TestFleetJobMigratesFromJobDir kills a worker mid-transient-job and
// requires the coordinator to resume it on the survivor from the job
// file persisted in the dead worker's -job-dir, with the final result
// bit-identical (DeepEqual and field fingerprint) to an uninterrupted
// run.
func TestFleetJobMigratesFromJobDir(t *testing.T) {
	skipShort(t)
	dir1, dir2 := t.TempDir(), t.TempDir()
	s1, ts1 := newWorker(t, dir1, true)
	s2, ts2 := newWorker(t, dir2, true)
	workers := map[string]*serve.Server{ts1.URL: s1, ts2.URL: s2}
	servers := map[string]*httptest.Server{ts1.URL: ts1, ts2.URL: ts2}

	c := newCoordinator(t, Config{
		Workers:       []string{ts1.URL, ts2.URL},
		WorkerJobDirs: map[string]string{ts1.URL: dir1, ts2.URL: dir2},
		JobPollEvery:  20 * time.Millisecond,
	})
	waitFor(t, "both workers alive", time.Minute, func() bool {
		return workerStateVia(t, c, ts1.URL) == StateAlive && workerStateVia(t, c, ts2.URL) == StateAlive
	})

	const steps = 40
	id, survivor := killOwnerMidJob(t, c, steps, 6, workers, servers)
	rec := pollFleetJob(t, c, id)

	if rec.Migrations != 1 {
		t.Fatalf("job migrated %d times, want 1", rec.Migrations)
	}
	if !rec.Resumed {
		t.Fatal("migrated job did not resume from a checkpoint")
	}
	if rec.Step != steps {
		t.Fatalf("migrated job finished at step %d, want %d", rec.Step, steps)
	}
	if rec.Result == nil || rec.Result.FieldFingerprint == "" {
		t.Fatal("migrated job carries no result fingerprint")
	}

	ref := runReference(t, survivor, steps)
	if rec.Result.FieldFingerprint != ref.Result.FieldFingerprint {
		t.Fatalf("migrated fingerprint %s != uninterrupted %s",
			rec.Result.FieldFingerprint, ref.Result.FieldFingerprint)
	}
	if !reflect.DeepEqual(rec.Result, ref.Result) {
		t.Fatal("migrated result differs from the uninterrupted run")
	}

	if st := decodeBody[FleetStatus](t, ctlDo(t, c, "GET", "/v1/fleet", "")); st.Migrations != 1 {
		t.Fatalf("fleet migration counter = %d", st.Migrations)
	}
	// Pagination over the tracked jobs.
	list := decodeBody[JobRecordList](t, ctlDo(t, c, "GET", "/v1/jobs?limit=1", ""))
	if len(list.Jobs) != 1 || list.Total != 1 || list.More {
		t.Fatalf("job page = %d of %d (more %v)", len(list.Jobs), list.Total, list.More)
	}
}

// TestFleetJobMigratesFromCheckpointExport covers the diskless path: no
// worker has a job dir, so the coordinator's only migration source is
// the checkpoint it cached off the owner's export endpoint before the
// death. The resumed result must still match the uninterrupted run
// exactly.
func TestFleetJobMigratesFromCheckpointExport(t *testing.T) {
	skipShort(t)
	s1, ts1 := newWorker(t, "", true)
	s2, ts2 := newWorker(t, "", true)
	workers := map[string]*serve.Server{ts1.URL: s1, ts2.URL: s2}
	servers := map[string]*httptest.Server{ts1.URL: ts1, ts2.URL: ts2}

	c := newCoordinator(t, Config{
		Workers:      []string{ts1.URL, ts2.URL},
		JobPollEvery: 10 * time.Millisecond,
	})
	waitFor(t, "both workers alive", time.Minute, func() bool {
		return workerStateVia(t, c, ts1.URL) == StateAlive && workerStateVia(t, c, ts2.URL) == StateAlive
	})

	const steps = 40
	w := ctlDo(t, c, "POST", "/v1/transient", fmt.Sprintf(transientBody, steps))
	if w.Code != http.StatusAccepted {
		t.Fatalf("fleet submit: HTTP %d (%s)", w.Code, w.Body.String())
	}
	id := decodeBody[serve.JobStatus](t, w).ID
	rec := fleetJob(t, c, id)
	owner := workers[rec.Worker]

	// The poll loop must have cached a checkpoint before the kill — it is
	// the only migration source a diskless fleet has.
	waitFor(t, "coordinator-cached checkpoint", time.Minute, func() bool {
		j, ok := c.jobs.get(id)
		if !ok {
			return false
		}
		c.jobs.mu.Lock()
		defer c.jobs.mu.Unlock()
		if j.cp == nil {
			st := workerJob(t, owner, id)
			if st.State == serve.JobDone {
				t.Fatal("job finished before a checkpoint was cached — raise steps")
			}
			return false
		}
		return true
	})
	servers[rec.Worker].Close()
	owner.Close()
	var survivor *serve.Server
	for url, s := range workers {
		if url != rec.Worker {
			survivor = s
		}
	}

	final := pollFleetJob(t, c, id)
	if final.Migrations != 1 {
		t.Fatalf("job migrated %d times, want 1", final.Migrations)
	}
	if !final.Resumed {
		t.Logf("fleet record: %+v; survivor: %+v", final.JobStatus, workerJob(t, survivor, id))
		t.Fatal("migrated job did not resume from the cached checkpoint")
	}
	ref := runReference(t, survivor, steps)
	if final.Result.FieldFingerprint != ref.Result.FieldFingerprint {
		t.Fatalf("migrated fingerprint %s != uninterrupted %s",
			final.Result.FieldFingerprint, ref.Result.FieldFingerprint)
	}
	if !reflect.DeepEqual(final.Result, ref.Result) {
		t.Fatal("migrated result differs from the uninterrupted run")
	}
}
