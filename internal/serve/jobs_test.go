package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vcselnoc/internal/thermal"
)

// jobServer builds a preview-resolution server with transient-job
// persistence in dir ("" keeps jobs in memory) and a tight checkpoint
// cadence so interruption tests always have a checkpoint to resume.
func jobServer(t *testing.T, dir string) *Server {
	t.Helper()
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.PreviewResolution()
	s, err := New(Config{
		Spec:               spec,
		JobDir:             dir,
		JobCheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func getJSON(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// pollJob polls a job until it reaches a terminal state.
func pollJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		w := getJSON(t, s, "/v1/jobs/"+id)
		if w.Code != http.StatusOK {
			t.Fatalf("job poll: HTTP %d (%s)", w.Code, w.Body.String())
		}
		st := decodeBody[JobStatus](t, w)
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobStatus{}
}

// waitForStep blocks until the job has completed at least n steps.
func waitForStep(t *testing.T, s *Server, id string, n int) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := decodeBody[JobStatus](t, getJSON(t, s, "/v1/jobs/"+id))
		if st.Step >= n || st.State == JobDone || st.State == JobFailed {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job never reached step %d", n)
	return JobStatus{}
}

const transientBody = `{"chip": 25, "pvcsel": 4e-3, "pheater": 1.2e-3, "time_step_s": 0.02, "steps": %d}`

// TestTransientJobBadInputs pins the submission error surface.
func TestTransientJobBadInputs(t *testing.T) {
	skipShort(t)
	s := jobServer(t, "")
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"missing dt", `{"chip": 25, "steps": 5}`, http.StatusBadRequest},
		{"missing steps", `{"chip": 25, "time_step_s": 0.01}`, http.StatusBadRequest},
		{"steps over cap", `{"chip": 25, "time_step_s": 0.01, "steps": 1000001}`, http.StatusBadRequest},
		{"negative cadence", `{"chip": 25, "time_step_s": 0.01, "steps": 5, "checkpoint_every": -1}`, http.StatusBadRequest},
		{"negative power", `{"chip": -1, "time_step_s": 0.01, "steps": 5}`, http.StatusBadRequest},
		{"unknown activity", `{"chip": 25, "activity": "volcano", "time_step_s": 0.01, "steps": 5}`, http.StatusBadRequest},
		{"spec field", `{"chip": 25, "spec": "default", "time_step_s": 0.01, "steps": 5}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, s, "/v1/transient", tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", w.Code, tc.wantStatus, w.Body.String())
			}
			if decodeBody[errorBody](t, w).Error == "" {
				t.Fatal("empty error envelope")
			}
		})
	}
	if w := getJSON(t, s, "/v1/jobs/tj-nope"); w.Code != http.StatusNotFound {
		t.Errorf("unknown job id: HTTP %d, want 404", w.Code)
	}
}

// TestTransientJobSubnormalTimeStep: a time_step_s that passes the > 0
// check but makes C/dt overflow (5e-324) must end as a failed job before
// any solver step runs, instead of a job iterating forever on a
// non-finite operator.
func TestTransientJobSubnormalTimeStep(t *testing.T) {
	skipShort(t)
	s := jobServer(t, "")
	w := postJSON(t, s, "/v1/transient", `{"chip": 25, "pvcsel": 4e-3, "pheater": 1.2e-3, "time_step_s": 5e-324, "steps": 3}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", w.Code, w.Body.String())
	}
	st := pollJob(t, s, decodeBody[JobStatus](t, w).ID)
	if st.State != JobFailed || st.Step != 0 || !strings.Contains(st.Error, "overflows") {
		t.Fatalf("job status %+v, want failed at step 0 with a C/dt overflow error", st)
	}
}

// TestTransientJobOverflowingPowers: finite powers whose sources
// overflow (pvcsel 1e306) pass Powers.Validate, so the job is accepted;
// its first step must then fail on the non-finite right-hand side within
// seconds instead of iterating mg-cg to its cap, and Close must not block
// behind it.
func TestTransientJobOverflowingPowers(t *testing.T) {
	skipShort(t)
	// testServer registers no Cleanup(Close): the test closes the server
	// itself, under a deadline, so a job that never ends fails the test
	// instead of hanging it.
	s := testServer(t)
	w := postJSON(t, s, "/v1/transient", `{"chip": 25, "pvcsel": 1e306, "pheater": 0, "time_step_s": 0.02, "steps": 3}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", w.Code, w.Body.String())
	}
	id := decodeBody[JobStatus](t, w).ID
	deadline := time.Now().Add(5 * time.Second)
	st := decodeBody[JobStatus](t, getJSON(t, s, "/v1/jobs/"+id))
	for st.State != JobDone && st.State != JobFailed && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		st = decodeBody[JobStatus](t, getJSON(t, s, "/v1/jobs/"+id))
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "not finite") {
		t.Errorf("job status after 5 s: %+v, want failed with a non-finite right-hand side error", st)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close still blocked after 5 s")
	}
}

// TestTransientJobLifecycle: a submitted job runs to completion in the
// background and its result matches an in-process Model.SolveTransient
// of the same operating point — including a bit-identical field
// fingerprint, the through-the-endpoints half of the determinism
// guarantee.
func TestTransientJobLifecycle(t *testing.T) {
	skipShort(t)
	s := jobServer(t, "")
	w := postJSON(t, s, "/v1/transient", strings.NewReplacer("%d", "6").Replace(transientBody))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", w.Code, w.Body.String())
	}
	initial := decodeBody[JobStatus](t, w)
	if initial.ID == "" || initial.Steps != 6 {
		t.Fatalf("bad initial status %+v", initial)
	}
	if loc := w.Header().Get("Location"); loc != "/v1/jobs/"+initial.ID {
		t.Errorf("Location = %q", loc)
	}
	st := pollJob(t, s, initial.ID)
	if st.State != JobDone {
		t.Fatalf("job failed: %+v", st)
	}
	if st.Result == nil || st.Result.FieldFingerprint == "" {
		t.Fatal("done job has no result")
	}
	if st.Step != 6 || st.PeakTemp <= 25 {
		t.Errorf("final status %+v", st)
	}

	// The same run in-process must land on the identical field.
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.PreviewResolution()
	m, err := thermal.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.NewTransientRun(
		thermal.Powers{Chip: 25, VCSEL: 4e-3, Driver: 4e-3, Heater: 1.2e-3},
		thermal.TransientSpec{TimeStep: 0.02, Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	for !run.Done() {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := run.FieldFingerprint(); got != st.Result.FieldFingerprint {
		t.Errorf("job field fingerprint %s != in-process %s", st.Result.FieldFingerprint, got)
	}
	if want := summarise(run.Result().Summary()); !reflect.DeepEqual(st.Result.QueryResponse, want) {
		t.Errorf("job summary %+v != in-process %+v", st.Result.QueryResponse, want)
	}

	// The job list includes it.
	list := decodeBody[JobList](t, getJSON(t, s, "/v1/jobs"))
	if list.Total != 1 || len(list.Jobs) != 1 || list.Jobs[0].ID != initial.ID || list.More {
		t.Errorf("job list %+v", list)
	}
}

// TestTransientJobStream: the NDJSON stream must deliver status
// snapshots ending in a terminal state.
func TestTransientJobStream(t *testing.T) {
	skipShort(t)
	s := jobServer(t, "")
	hs := httptest.NewServer(s)
	defer hs.Close()
	w := postJSON(t, s, "/v1/transient", strings.NewReplacer("%d", "5").Replace(transientBody))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", w.Code)
	}
	id := decodeBody[JobStatus](t, w).ID
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	var last JobStatus
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("stream delivered nothing")
	}
	if last.State != JobDone && last.State != JobFailed {
		// The stream may end between the last observation and the
		// terminal update; the polled endpoint must still converge.
		last = pollJob(t, s, id)
	}
	if last.State != JobDone {
		t.Fatalf("stream ended with %+v", last)
	}
}

// TestTransientJobStreamEndsOnClose: Server.Close must release attached
// stream clients promptly — otherwise a graceful daemon shutdown stalls
// on open streams for its full drain timeout.
func TestTransientJobStreamEndsOnClose(t *testing.T) {
	skipShort(t)
	s := jobServer(t, "")
	hs := httptest.NewServer(s)
	defer hs.Close()
	w := postJSON(t, s, "/v1/transient", strings.NewReplacer("%d", "100000").Replace(transientBody))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", w.Code)
	}
	id := decodeBody[JobStatus](t, w).ID
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let the stream attach
	start := time.Now()
	s.Close()
	select {
	case <-done:
		t.Logf("stream released %v after Close", time.Since(start))
	case <-time.After(10 * time.Second):
		t.Fatal("stream still open 10 s after Server.Close")
	}
}

// TestTransientJobSubmitRollsBackOnPersistFailure: a submission whose
// initial persist fails must not leave a phantom queued job holding a
// DefaultMaxJobs slot.
func TestTransientJobSubmitRollsBackOnPersistFailure(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()
	s := jobServer(t, dir)
	if err := os.RemoveAll(dir); err != nil { // persistence now fails
		t.Fatal(err)
	}
	w := postJSON(t, s, "/v1/transient", strings.NewReplacer("%d", "3").Replace(transientBody))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("submit with broken job dir: HTTP %d (%s)", w.Code, w.Body.String())
	}
	if list := decodeBody[JobList](t, getJSON(t, s, "/v1/jobs")); list.Total != 0 {
		t.Errorf("phantom job retained after failed persist: %+v", list)
	}
}

// TestTransientJobResumeAcrossRestart is the acceptance check for
// resumable serving: a job interrupted by a daemon shutdown must resume
// from its checkpoint on the next daemon over the same job directory and
// finish bit-identically to an uninterrupted run.
func TestTransientJobResumeAcrossRestart(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()

	// Uninterrupted reference through a throwaway server.
	ref := jobServer(t, "")
	w := postJSON(t, ref, "/v1/transient", strings.NewReplacer("%d", "30").Replace(transientBody))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", w.Code)
	}
	want := pollJob(t, ref, decodeBody[JobStatus](t, w).ID)
	if want.State != JobDone {
		t.Fatalf("reference run failed: %+v", want)
	}

	// First daemon: submit, let it pass a few checkpoints, kill it.
	s1 := jobServer(t, dir)
	w = postJSON(t, s1, "/v1/transient", strings.NewReplacer("%d", "30").Replace(transientBody))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", w.Code)
	}
	id := decodeBody[JobStatus](t, w).ID
	mid := waitForStep(t, s1, id, 5)
	s1.Close() // interrupt: persists a checkpoint at the exact current step
	if mid.State == JobFailed {
		t.Fatalf("job failed before interruption: %+v", mid)
	}

	// Second daemon over the same directory: the job resumes and
	// completes.
	s2 := jobServer(t, dir)
	st := pollJob(t, s2, id)
	if st.State != JobDone {
		t.Fatalf("resumed job failed: %+v", st)
	}
	// Only flag Resumed if the first daemon didn't already finish it (a
	// very fast machine could); the field identity check below is the
	// real assertion either way.
	interrupted := mid.State != JobDone
	if interrupted && !st.Resumed {
		t.Error("resumed job not marked Resumed")
	}
	if st.Result.FieldFingerprint != want.Result.FieldFingerprint {
		t.Errorf("resumed field fingerprint %s != uninterrupted %s",
			st.Result.FieldFingerprint, want.Result.FieldFingerprint)
	}
	if !reflect.DeepEqual(st.Result.QueryResponse, want.Result.QueryResponse) {
		t.Errorf("resumed summary %+v != uninterrupted %+v", st.Result.QueryResponse, want.Result.QueryResponse)
	}
}

// TestTransientJobFileWithSpecResumes: a job file written by an older
// daemon, whose stored request carries "spec":"default", still loads and
// resumes — job files are decoded without unknown-field checks — and the
// resumed job's status no longer echoes a spec.
func TestTransientJobFileWithSpecResumes(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()
	s1 := jobServer(t, dir)
	id := submitSteps(t, s1, "40")
	mid := waitForStep(t, s1, id, 5)
	s1.Close() // interrupt: persists a checkpoint at the exact current step
	if mid.State != JobRunning {
		t.Fatalf("job not running at the interruption: %+v", mid)
	}
	path := filepath.Join(dir, id+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`"request":{`), []byte(`"request":{"spec":"default",`), 1)
	if bytes.Equal(old, data) {
		t.Fatalf("job file has no request object: %s", data)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := jobServer(t, dir)
	st := pollJob(t, s2, id)
	if st.State != JobDone || !st.Resumed || st.Step != 40 {
		t.Fatalf("job from an older job file ended as %+v", st)
	}
	if body := getJSON(t, s2, "/v1/jobs/"+id).Body.String(); strings.Contains(body, `"spec"`) {
		t.Fatalf("job status still echoes a spec: %s", body)
	}
}

// TestTransientJobCorruptCheckpoints: corrupt job files surface as
// failed jobs, and a checkpoint whose fingerprint does not match the
// server's mesh refuses to resume instead of silently continuing.
func TestTransientJobCorruptCheckpoints(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()

	// A syntactically corrupt job file.
	if err := os.WriteFile(filepath.Join(dir, "tj-corrupt.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A well-formed job file whose checkpoint was taken on a different
	// (coarse-mesh) system.
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.CoarseResolution()
	mc, err := thermal.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	run, err := mc.NewTransientRun(
		thermal.Powers{Chip: 25, VCSEL: 4e-3, Driver: 4e-3, Heater: 1.2e-3},
		thermal.TransientSpec{TimeStep: 0.02, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Step(); err != nil {
		t.Fatal(err)
	}
	var req TransientRequest
	if err := json.Unmarshal([]byte(strings.NewReplacer("%d", "4").Replace(transientBody)), &req); err != nil {
		t.Fatal(err)
	}
	jf := PersistedJob{ID: "tj-mismatch", Request: req, State: JobRunning, Checkpoint: run.Checkpoint()}
	data, err := json.Marshal(jf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tj-mismatch.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := jobServer(t, dir) // preview-resolution mesh
	corrupt := decodeBody[JobStatus](t, getJSON(t, s, "/v1/jobs/tj-corrupt"))
	if corrupt.State != JobFailed || !strings.Contains(corrupt.Error, "corrupt") {
		t.Errorf("corrupt file surfaced as %+v", corrupt)
	}
	mismatch := pollJob(t, s, "tj-mismatch")
	if mismatch.State != JobFailed || !strings.Contains(mismatch.Error, "fingerprint") {
		t.Errorf("fingerprint mismatch surfaced as %+v", mismatch)
	}
}

// submitSteps submits a transient job of n steps and returns its id.
func submitSteps(t *testing.T, s *Server, n string) string {
	t.Helper()
	w := postJSON(t, s, "/v1/transient", strings.NewReplacer("%d", n).Replace(transientBody))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", w.Code, w.Body.String())
	}
	return decodeBody[JobStatus](t, w).ID
}

// TestJobListPagination: offset/limit windows are consistent with the
// full id-sorted listing, out-of-range offsets return empty windows, and
// malformed parameters are client errors.
func TestJobListPagination(t *testing.T) {
	skipShort(t)
	s := jobServer(t, "")
	for i := 0; i < 5; i++ {
		pollJob(t, s, submitSteps(t, s, "1"))
	}
	full := decodeBody[JobList](t, getJSON(t, s, "/v1/jobs"))
	if full.Total != 5 || len(full.Jobs) != 5 || full.More {
		t.Fatalf("full listing %+v", full)
	}
	page := decodeBody[JobList](t, getJSON(t, s, "/v1/jobs?offset=1&limit=2"))
	if page.Total != 5 || page.Offset != 1 || len(page.Jobs) != 2 || !page.More {
		t.Fatalf("page %+v", page)
	}
	if page.Jobs[0].ID != full.Jobs[1].ID || page.Jobs[1].ID != full.Jobs[2].ID {
		t.Errorf("page window %v misaligned with full listing", page.Jobs)
	}
	tail := decodeBody[JobList](t, getJSON(t, s, "/v1/jobs?offset=3"))
	if len(tail.Jobs) != 2 || tail.More {
		t.Errorf("tail window %+v", tail)
	}
	empty := decodeBody[JobList](t, getJSON(t, s, "/v1/jobs?offset=99"))
	if len(empty.Jobs) != 0 || empty.More || empty.Total != 5 {
		t.Errorf("past-the-end window %+v", empty)
	}
	for _, q := range []string{"?offset=-1", "?limit=x", "?offset=1.5"} {
		if w := getJSON(t, s, "/v1/jobs"+q); w.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", q, w.Code)
		}
	}
}

// TestJobTTLGC: terminal jobs older than JobTTL are dropped from both
// the listing and the job directory; the expired counter reaches
// /metrics.
func TestJobTTLGC(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.PreviewResolution()
	s, err := New(Config{
		Spec:               spec,
		JobDir:             dir,
		JobCheckpointEvery: 2,
		JobTTL:             50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := submitSteps(t, s, "2")
	if st := pollJob(t, s, id); st.State != JobDone {
		t.Fatalf("job failed: %+v", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if list := decodeBody[JobList](t, getJSON(t, s, "/v1/jobs")); list.Total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal job never garbage-collected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".json")); !os.IsNotExist(err) {
		t.Errorf("job file survived GC: %v", err)
	}
	if w := getJSON(t, s, "/v1/jobs/"+id); w.Code != http.StatusNotFound {
		t.Errorf("collected job still resolvable: HTTP %d", w.Code)
	}
	if body := getJSON(t, s, "/metrics").Body.String(); !strings.Contains(body, "vcseld_jobs_expired_total 1") {
		t.Errorf("/metrics missing expired counter:\n%s", body)
	}
}

// TestJobCheckpointExportAndHandoff is the worker-side half of fleet
// migration: the checkpoint endpoint serves a running job's latest
// in-memory checkpoint even on a diskless server, and resubmitting that
// checkpoint (same id, resume field) to a second identical-spec server
// finishes bit-identically to an uninterrupted run.
func TestJobCheckpointExportAndHandoff(t *testing.T) {
	skipShort(t)

	// Uninterrupted reference.
	ref := jobServer(t, "")
	want := pollJob(t, ref, submitSteps(t, ref, "30"))
	if want.State != JobDone {
		t.Fatalf("reference failed: %+v", want)
	}

	// Diskless origin server: run past a checkpoint, export it.
	s1 := jobServer(t, "")
	id := submitSteps(t, s1, "30")
	if w := getJSON(t, s1, "/v1/jobs/"+id+"/checkpoint"); w.Code == http.StatusOK {
		// Plausible on a fast machine (first cadence hit already); fine.
		t.Logf("checkpoint available immediately")
	}
	waitForStep(t, s1, id, 5)
	cw := getJSON(t, s1, "/v1/jobs/"+id+"/checkpoint")
	if cw.Code != http.StatusOK {
		t.Fatalf("checkpoint export: HTTP %d (%s)", cw.Code, cw.Body.String())
	}
	s1.Close() // origin dies; its in-flight progress is abandoned

	// Survivor: resume under the same id from the exported checkpoint.
	s2 := jobServer(t, "")
	var req TransientRequest
	if err := json.Unmarshal([]byte(strings.NewReplacer("%d", "30").Replace(transientBody)), &req); err != nil {
		t.Fatal(err)
	}
	req.ID = id
	if err := json.Unmarshal(cw.Body.Bytes(), &req.Resume); err != nil {
		t.Fatalf("exported checkpoint not JSON: %v", err)
	}
	if req.Resume.Step < 1 {
		t.Fatalf("exported checkpoint at step %d", req.Resume.Step)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s2, "/v1/transient", string(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("resume submit: HTTP %d (%s)", w.Code, w.Body.String())
	}
	st := pollJob(t, s2, id)
	if st.State != JobDone || !st.Resumed {
		t.Fatalf("migrated job: %+v", st)
	}
	if st.Result.FieldFingerprint != want.Result.FieldFingerprint {
		t.Errorf("migrated fingerprint %s != uninterrupted %s",
			st.Result.FieldFingerprint, want.Result.FieldFingerprint)
	}
	if !reflect.DeepEqual(st.Result.QueryResponse, want.Result.QueryResponse) {
		t.Errorf("migrated summary %+v != uninterrupted %+v", st.Result.QueryResponse, want.Result.QueryResponse)
	}

	// The id is now taken: a duplicate submission conflicts.
	if w := postJSON(t, s2, "/v1/transient", string(body)); w.Code != http.StatusConflict {
		t.Errorf("duplicate id: HTTP %d, want 409", w.Code)
	}
	// Unknown job / bad ids on the checkpoint endpoint.
	if w := getJSON(t, s2, "/v1/jobs/tj-nope/checkpoint"); w.Code != http.StatusNotFound {
		t.Errorf("unknown job checkpoint: HTTP %d", w.Code)
	}
}

// TestTransientJobBadResume pins the resume-field error surface: ids
// must match the server's pattern, and a checkpoint beyond the requested
// horizon is a client error.
func TestTransientJobBadResume(t *testing.T) {
	skipShort(t)
	s := jobServer(t, "")
	for _, tc := range []struct{ name, body string }{
		{"bad id", `{"chip": 25, "time_step_s": 0.02, "steps": 4, "id": "../etc/passwd"}`},
		{"resume past horizon", `{"chip": 25, "time_step_s": 0.02, "steps": 4, "resume": {"version": 1, "system_fingerprint": "x", "power_fingerprint": "x", "solver": "cg", "tolerance": 1e-9, "time_step_s": 0.02, "step": 9, "t_c": [25]}}`},
		{"invalid resume", `{"chip": 25, "time_step_s": 0.02, "steps": 4, "resume": {"version": 99, "time_step_s": 0.02, "step": 1, "t_c": [25]}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if w := postJSON(t, s, "/v1/transient", tc.body); w.Code != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400 (%s)", w.Code, w.Body.String())
			}
		})
	}
}

// TestMetricsEndpoint: the Prometheus text endpoint must expose the
// basis, evaluation and job-state series.
func TestMetricsEndpoint(t *testing.T) {
	skipShort(t)
	s := jobServer(t, "")
	// One query and one job populate the counters.
	if w := postJSON(t, s, "/v1/gradient", `{"chip": 25, "pvcsel": 2e-3, "pheater": 0.6e-3}`); w.Code != http.StatusOK {
		t.Fatalf("gradient: HTTP %d (%s)", w.Code, w.Body.String())
	}
	w := postJSON(t, s, "/v1/transient", strings.NewReplacer("%d", "3").Replace(transientBody))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", w.Code)
	}
	pollJob(t, s, decodeBody[JobStatus](t, w).ID)

	mw := getJSON(t, s, "/metrics")
	if mw.Code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", mw.Code)
	}
	if ct := mw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q", ct)
	}
	body := mw.Body.String()
	for _, want := range []string{
		"vcseld_uptime_seconds",
		`vcseld_basis_builds_total{spec="default"} 1`,
		`vcseld_evaluations_total{spec="default"} 1`,
		`vcseld_jobs{state="done"} 1`,
		`vcseld_jobs{state="failed"} 0`,
		"vcseld_job_steps_total 3",
		`vcseld_model_cells{spec="default"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}
