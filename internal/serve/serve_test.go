package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/mg"
	"vcselnoc/internal/thermal"
)

// testServer builds a preview-resolution server (cold: no model built
// yet).
func testServer(t *testing.T) *Server {
	t.Helper()
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.PreviewResolution()
	s, err := New(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postJSON drives one request through the handler without a network.
func postJSON(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// skipShort gates tests whose model/basis builds are affordable in the
// regular suite but slow under -race -short CI runs. The concurrency
// tests (single-flight, mixed-query hammer) stay on in every mode.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full model builds skipped in -short")
	}
}

func decodeBody[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(w.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v (body %q)", err, w.Body.String())
	}
	return v
}

// TestBadInputs pins the client-error surface: every malformed request
// must come back 4xx with the JSON error envelope, never a 500 or an
// empty body. Each request goes twice and is refused both times: finite
// powers that overflow the superposition get a 400, not a body JSON
// cannot carry.
func TestBadInputs(t *testing.T) {
	skipShort(t)
	s := testServer(t)
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"malformed JSON", "/v1/gradient", `{"chip": `, http.StatusBadRequest},
		{"unknown field", "/v1/gradient", `{"chip": 25, "bogus": 1}`, http.StatusBadRequest},
		{"trailing data", "/v1/gradient", `{"chip": 25} {"chip": 26}`, http.StatusBadRequest},
		{"negative power", "/v1/gradient", `{"chip": -1}`, http.StatusBadRequest},
		{"NaN-free unknown activity", "/v1/gradient", `{"chip": 25, "activity": "volcano"}`, http.StatusBadRequest},
		{"spec field", "/v1/gradient", `{"chip": 25, "spec": "default"}`, http.StatusBadRequest},
		{"empty sweep axes", "/v1/sweep/gradient", `{"chip": 25, "lasers": [], "heaters": [1e-3]}`, http.StatusBadRequest},
		{"row window out of range", "/v1/sweep/gradient", `{"chip": 25, "lasers": [1e-3], "heaters": [0], "row_start": 5}`, http.StatusBadRequest},
		{"unknown case", "/v1/snr", `{"chip": 24, "pvcsel": 3.6e-3, "case": 9}`, http.StatusBadRequest},
		{"unknown pattern", "/v1/snr", `{"chip": 24, "pvcsel": 3.6e-3, "pattern": "mesh"}`, http.StatusBadRequest},
		{"unknown layer", "/v1/map", `{"chip": 25, "layer": "mantle"}`, http.StatusBadRequest},
		{"zero laser for heater search", "/v1/heater/optimal", `{"chip": 25, "pvcsel": 0}`, http.StatusBadRequest},
		{"overflowing gradient", "/v1/gradient", `{"chip": 25, "pvcsel": 1e306, "pheater": 0}`, http.StatusBadRequest},
		{"overflowing feasibility", "/v1/feasibility", `{"chip": 25, "pvcsel": 1e306, "pheater": 0}`, http.StatusBadRequest},
		{"overflowing gradient sweep", "/v1/sweep/gradient", `{"chip": 25, "lasers": [1e306], "heaters": [0]}`, http.StatusBadRequest},
		{"overflowing avgtemp sweep", "/v1/sweep/avgtemp", `{"chips": [1e308], "lasers": [1e-3]}`, http.StatusBadRequest},
		{"overflowing heater search", "/v1/heater/optimal", `{"chip": 25, "pvcsel": 1e306}`, http.StatusBadRequest},
		{"overflowing map", "/v1/map", `{"chip": 25, "pvcsel": 1e306}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for try := 0; try < 2; try++ {
				w := postJSON(t, s, tc.path, tc.body)
				if w.Code != tc.wantStatus {
					t.Fatalf("request %d: status = %d, want %d (body %q)", try+1, w.Code, tc.wantStatus, w.Body.String())
				}
				if ct := w.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("request %d: Content-Type = %q, want application/json", try+1, ct)
				}
				eb := decodeBody[errorBody](t, w)
				if eb.Error == "" {
					t.Fatalf("request %d: error envelope has empty message", try+1)
				}
			}
		})
	}
}

// TestWriteJSONEncodeFailure: a value JSON cannot carry becomes a 500
// error envelope, never an empty 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, QueryResponse{MeanONITemp: math.Inf(1)})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %q)", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	if eb := decodeBody[errorBody](t, w); eb.Error == "" {
		t.Fatal("error envelope has empty message")
	}
}

// TestBasisEvictionLRU: a spec's model holds at most thermal.MaxBases
// warm bases — the guard against a client looping random seeds to
// exhaust daemon memory. A request for a shape beyond the bound evicts
// the least-recently-used basis other than the uniform one and is served
// (no 429 cliff), a request for the evicted shape deterministically
// rebuilds it, and a uniform query after evictions builds nothing.
func TestBasisEvictionLRU(t *testing.T) {
	skipShort(t)
	s := testServer(t)
	t.Cleanup(s.Close)
	seed := func(n int) string {
		return fmt.Sprintf(`{"chip": 25, "pvcsel": 2e-3, "activity": "random", "seed": %d}`, n)
	}
	const uniform = `{"chip": 25, "pvcsel": 2e-3}`
	query := func(body string) QueryResponse {
		t.Helper()
		w := postJSON(t, s, "/v1/gradient", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d (%s)", body, w.Code, w.Body.String())
		}
		return decodeBody[QueryResponse](t, w)
	}
	wantStats := func(when string, warm int, builds, evictions int64) {
		t.Helper()
		h := s.info()
		if h.WarmBases != warm || h.BasisBuilds != builds || h.BasisEvictions != evictions {
			t.Fatalf("%s: warm_bases %d, basis_builds %d, basis_evictions %d; want %d, %d, %d",
				when, h.WarmBases, h.BasisBuilds, h.BasisEvictions, warm, builds, evictions)
		}
	}

	// The first random shape on a cold model builds the uniform basis,
	// whose device fields it copies, and then its own.
	firstSeed1 := query(seed(1))
	query(seed(1)) // same shape: no new build
	query(uniform)
	wantStats("seed 1 and uniform", 2, 2, 0)
	for n := 2; n < thermal.MaxBases; n++ {
		query(seed(n))
	}
	wantStats("at the bound", thermal.MaxBases, thermal.MaxBases, 0)

	// One more shape evicts the least-recently-used basis (seed 1; every
	// activity build has used the uniform basis since) and is served.
	query(seed(thermal.MaxBases))
	wantStats("beyond the bound", thermal.MaxBases, thermal.MaxBases+1, 1)
	model := s.meth.Model()
	if model.CachedBasis(activity.Random{Seed: 1}) != nil {
		t.Fatal("seed 1, the least recently used, is still cached")
	}

	// Asking for the evicted shape again rebuilds it (evicting seed 2)
	// and — the determinism pin — answers identically to the first
	// build.
	rebuilt := query(seed(1))
	rebuilt.TraceID = firstSeed1.TraceID // per-request id, not part of the determinism pin
	if rebuilt != firstSeed1 {
		t.Fatalf("rebuilt basis answered differently:\nfirst   %+v\nrebuilt %+v", firstSeed1, rebuilt)
	}
	wantStats("after the rebuild", thermal.MaxBases, thermal.MaxBases+2, 2)

	// The uniform basis is never evicted, so a uniform query — however
	// old its last use — builds nothing.
	query(uniform)
	wantStats("after a uniform query", thermal.MaxBases, thermal.MaxBases+2, 2)
}

// TestMethodNotAllowed: the mux's method patterns must reject a GET on a
// POST endpoint.
func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/gradient", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/gradient = %d, want %d", w.Code, http.StatusMethodNotAllowed)
	}
}

// TestGradientRepeatQuery: every query is evaluated afresh. The same
// point asked twice, once with `pdriver` spelled out as its default,
// answers bit for bit alike; a different point answers differently;
// and each of the three queries is one evaluation.
func TestGradientRepeatQuery(t *testing.T) {
	skipShort(t)
	s := testServer(t)
	query := func(body string) QueryResponse {
		t.Helper()
		w := postJSON(t, s, "/v1/gradient", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d (%s)", body, w.Code, w.Body.String())
		}
		resp := decodeBody[QueryResponse](t, w)
		resp.TraceID = "" // per request, not part of the answer
		return resp
	}
	first := query(`{"chip": 25, "pvcsel": 2e-3, "pheater": 0.6e-3}`)
	if first.MeanONITemp <= 25 {
		t.Fatalf("implausible mean ONI temp %g", first.MeanONITemp)
	}
	second := query(`{"chip": 25, "pvcsel": 2e-3, "pdriver": 2e-3, "pheater": 0.6e-3}`)
	if second != first {
		t.Fatalf("repeated query answered differently:\nfirst  %+v\nsecond %+v", first, second)
	}
	third := query(`{"chip": 26, "pvcsel": 2e-3, "pheater": 0.6e-3}`)
	if third == first {
		t.Fatal("a different operating point answered like the first")
	}
	if evals := s.info().Evaluations; evals != 3 {
		t.Fatalf("evaluations = %d, want 3", evals)
	}
}

// TestSingleFlightBasisBuild: N concurrent queries against a cold server
// must trigger exactly one model build and one basis build.
func TestSingleFlightBasisBuild(t *testing.T) {
	s := testServer(t)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct operating points, all waiting on the same cold
			// basis.
			body := fmt.Sprintf(`{"chip": 25, "pvcsel": %g, "pheater": 1e-3}`, 1e-3+float64(i)*1e-4)
			req := httptest.NewRequest(http.MethodPost, "/v1/gradient", strings.NewReader(body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				errs[i] = fmt.Errorf("query %d: HTTP %d (%s)", i, w.Code, w.Body.String())
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if builds := s.info().BasisBuilds; builds != 1 {
		t.Fatalf("%d concurrent cold queries ran %d basis builds, want 1", n, builds)
	}
}

// TestConcurrentMixedQueries hammers a warm server from many goroutines
// across endpoint kinds — the -race test of the serving hot path.
func TestConcurrentMixedQueries(t *testing.T) {
	s := testServer(t)
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	bodies := []struct{ path, body string }{
		{"/v1/gradient", `{"chip": 25, "pvcsel": 2e-3, "pheater": 0.6e-3}`},
		{"/v1/gradient", `{"chip": 25, "pvcsel": 3e-3, "pheater": 1e-3}`},
		{"/v1/feasibility", `{"chip": 25, "pvcsel": 4e-3, "pheater": 1.2e-3}`},
		{"/v1/sweep/gradient", `{"chip": 25, "lasers": [1e-3, 2e-3], "heaters": [0, 1e-3]}`},
		{"/v1/sweep/avgtemp", `{"chips": [20, 25], "lasers": [0, 2e-3]}`},
	}
	const rounds = 4
	var wg sync.WaitGroup
	errc := make(chan error, rounds*len(bodies)+2*rounds)
	for r := 0; r < rounds; r++ {
		for _, b := range bodies {
			wg.Add(1)
			go func(path, body string) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errc <- fmt.Errorf("%s: HTTP %d (%s)", path, w.Code, w.Body.String())
				}
			}(b.path, b.body)
		}
		// Stats endpoints race the queries: the peek paths must be clean.
		for _, path := range []string{"/healthz", "/v1/specs"} {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodGet, path, nil)
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errc <- fmt.Errorf("%s: HTTP %d", path, w.Code)
				}
			}(path)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestHealthAndSpecs covers the introspection endpoints before and after
// warm-up.
func TestHealthAndSpecs(t *testing.T) {
	skipShort(t)
	s := testServer(t)

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	h := decodeBody[Health](t, w)
	if h.Status != "ok" || len(h.Specs) != 1 {
		t.Fatalf("health = %+v", h)
	}
	if h.Specs[0].ModelReady {
		t.Fatal("cold spec reports a ready model")
	}

	if w := postJSON(t, s, "/v1/gradient", `{"chip": 25, "pvcsel": 2e-3}`); w.Code != http.StatusOK {
		t.Fatalf("warm-up query: %d", w.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/specs", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	infos := decodeBody[[]SpecInfo](t, w)
	if len(infos) != 1 || !infos[0].ModelReady || infos[0].Cells == 0 || infos[0].BasisBuilds != 1 {
		t.Fatalf("specs after warm-up = %+v", infos)
	}
	if infos[0].Solver != fvm.SolverName {
		t.Fatalf("spec info solver %q, want %q", infos[0].Solver, fvm.SolverName)
	}
}

// TestMapEndpoint sanity-checks a layer slice.
func TestMapEndpoint(t *testing.T) {
	skipShort(t)
	s := testServer(t)
	w := postJSON(t, s, "/v1/map", `{"chip": 25, "pvcsel": 2e-3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("map: %d (%s)", w.Code, w.Body.String())
	}
	m := decodeBody[MapResponse](t, w)
	if m.Layer != "optical" || len(m.X) == 0 || len(m.T) != len(m.Y) || m.Max < m.Min {
		t.Fatalf("map response malformed: layer=%q nx=%d ny=%d", m.Layer, len(m.X), len(m.Y))
	}
	if m.Max <= 25 {
		t.Fatalf("optical layer max %g never rose above ambient", m.Max)
	}
}

// TestSNREndpoint runs the full chain once.
func TestSNREndpoint(t *testing.T) {
	skipShort(t)
	s := testServer(t)
	w := postJSON(t, s, "/v1/snr", `{"chip": 24, "pvcsel": 3.6e-3, "pheater": 1.08e-3, "case": 1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("snr: %d (%s)", w.Code, w.Body.String())
	}
	r := decodeBody[SNRResponse](t, w)
	if r.Comms == 0 || r.RingLengthM <= 0 || r.NodeTempMax < r.NodeTempMin {
		t.Fatalf("snr response malformed: %+v", r)
	}
}

// TestSweepPagination: a row window must return exactly the requested
// rows of the full grid.
func TestSweepPagination(t *testing.T) {
	skipShort(t)
	s := testServer(t)
	full := postJSON(t, s, "/v1/sweep/gradient",
		`{"chip": 25, "lasers": [1e-3, 2e-3, 3e-3], "heaters": [0, 1e-3]}`)
	if full.Code != http.StatusOK {
		t.Fatalf("full sweep: %d", full.Code)
	}
	fullResp := decodeBody[GradientSweepResponse](t, full)
	if len(fullResp.Rows) != 3 || fullResp.TotalRows != 3 {
		t.Fatalf("full sweep returned %d rows", len(fullResp.Rows))
	}
	window := postJSON(t, s, "/v1/sweep/gradient",
		`{"chip": 25, "lasers": [1e-3, 2e-3, 3e-3], "heaters": [0, 1e-3], "row_start": 1, "row_count": 1}`)
	winResp := decodeBody[GradientSweepResponse](t, window)
	if winResp.RowStart != 1 || len(winResp.Rows) != 1 {
		t.Fatalf("window = start %d, %d rows", winResp.RowStart, len(winResp.Rows))
	}
	if !bytes.Equal(mustJSON(t, winResp.Rows[0]), mustJSON(t, fullResp.Rows[1])) {
		t.Fatal("windowed row differs from the same row of the full sweep")
	}
}

// serveRecovered runs one request through the handler and turns a
// handler panic into an error, as net/http's connection goroutine does:
// a panicking request fails its test, not the test binary, and keeps
// whatever it held.
func serveRecovered(s *Server, req *http.Request) (w *httptest.ResponseRecorder, err error) {
	w = httptest.NewRecorder()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("handler panicked: %v", p)
		}
	}()
	s.ServeHTTP(w, req)
	return w, nil
}

// TestOverflowingWindows: a job page or sweep row window whose count
// would wrap start+count past math.MaxInt reads "to the end", and every
// sweep gives its slot back. An overflowing sweep once panicked holding
// one of the server's two sweep slots, so after two of them every later
// sweep waited forever.
func TestOverflowingWindows(t *testing.T) {
	skipShort(t)
	s := jobServer(t, "")
	pollJob(t, s, submitSteps(t, s, "1"))
	const huge = "9223372036854775807" // math.MaxInt64
	for _, tc := range []struct {
		query string
		jobs  int
	}{{"?offset=0&limit=" + huge, 1}, {"?offset=1&limit=" + huge, 0}} {
		w, err := serveRecovered(s, httptest.NewRequest(http.MethodGet, "/v1/jobs"+tc.query, nil))
		if err != nil {
			t.Errorf("/v1/jobs%s: %v", tc.query, err)
			continue
		}
		if w.Code != http.StatusOK {
			t.Errorf("/v1/jobs%s: HTTP %d (%s)", tc.query, w.Code, w.Body.String())
			continue
		}
		if page := decodeBody[JobList](t, w); page.Total != 1 || len(page.Jobs) != tc.jobs || page.More {
			t.Errorf("/v1/jobs%s: %+v, want %d of 1 jobs", tc.query, page, tc.jobs)
		}
	}
	window := `"row_start": 1, "row_count": ` + huge
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweep/gradient", `{"chip": 25, "lasers": [1e-3, 2e-3, 3e-3], "heaters": [0, 1e-3], ` + window + `}`},
		{"/v1/sweep/avgtemp", `{"chips": [20, 25, 30], "lasers": [1e-3, 2e-3], ` + window + `}`},
	} {
		w, err := serveRecovered(s, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if err != nil {
			t.Errorf("%s: %v", tc.path, err)
			continue
		}
		if w.Code != http.StatusOK {
			t.Errorf("%s: HTTP %d (%s)", tc.path, w.Code, w.Body.String())
			continue
		}
		resp := decodeBody[struct {
			RowStart  int               `json:"row_start"`
			TotalRows int               `json:"total_rows"`
			Rows      []json.RawMessage `json:"rows"`
		}](t, w)
		if resp.RowStart != 1 || resp.TotalRows != 3 || len(resp.Rows) != 2 {
			t.Errorf("%s: rows %d.. of %d, %d returned; want rows 1..2 of 3", tc.path, resp.RowStart, resp.TotalRows, len(resp.Rows))
		}
	}
	done := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep/gradient", strings.NewReader(`{"chip": 25, "lasers": [1e-3], "heaters": [0]}`))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		done <- w.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("valid sweep after the overflowing ones: HTTP %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a valid sweep still waits for a sweep slot after 30 s")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWarmChargesHierarchyOnce: the cold build Server.Warm runs pays the
// model's multigrid hierarchy (its Galerkin products a share of it),
// coarse factor and cycle arrays, and its "basis built" line reports
// each; a later activity rebuild reuses them and reports zero for each. Both lines report the hierarchy they ran
// on: its depth, its coarsest level's cell count, the V-cycle precision
// and its footprint.
func TestWarmChargesHierarchyOnce(t *testing.T) {
	skipShort(t)
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.PreviewResolution()
	var logs bytes.Buffer
	s, err := New(Config{Spec: spec, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.basisFor(activity.Diagonal{}); err != nil {
		t.Fatal(err)
	}
	var built []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] == "basis built" {
			built = append(built, rec)
		}
	}
	if len(built) != 2 {
		t.Fatalf("%d basis built lines, want the uniform and the diagonal build:\n%s", len(built), logs.String())
	}
	for _, key := range []string{"hierarchy_ms", "galerkin_ms", "coarse_factor_ms", "cycle_arrays_ms"} {
		cold, ok := built[0][key].(float64)
		if !ok || cold <= 0 {
			t.Errorf("cold build: %s = %v, want > 0", key, built[0][key])
		}
		if rebuild, ok := built[1][key].(float64); !ok || rebuild != 0 {
			t.Errorf("activity rebuild: %s = %v, want 0", key, built[1][key])
		}
	}
	// The Galerkin products are a share of the hierarchy build.
	if galerkin, hierarchy := built[0]["galerkin_ms"].(float64), built[0]["hierarchy_ms"].(float64); galerkin > hierarchy {
		t.Errorf("cold build: galerkin_ms %v exceeds hierarchy_ms %v", galerkin, hierarchy)
	}
	model := s.meth.Model()
	hier, err := model.System().Hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range built {
		if got, want := rec["levels"], float64(hier.Depth()); got != want {
			t.Errorf("build %d: levels = %v, want the hierarchy's %v", i, got, want)
		}
		if got, want := rec["coarse_cells"], float64(hier.CoarseOperator().N()); got != want {
			t.Errorf("build %d: coarse_cells = %v, want the coarsest level's %v", i, got, want)
		}
		// Preview solves at the default tolerance run the float32 cycle,
		// so the hierarchy holds no float64 packed couplings.
		if got := rec["precision"]; got != "float32" {
			t.Errorf("build %d: precision = %v, want float32", i, got)
		}
		fp := mg.FootprintOf(hier)
		if got, want := rec["hierarchy_mb"], float64(fp.Total())/(1<<20); got != want || fp.Packed32 == 0 || fp.Packed64 != 0 {
			t.Errorf("build %d: hierarchy_mb = %v, want the hierarchy's %v (footprint %+v)", i, got, want, fp)
		}
	}
	if bs := model.CachedBasis(nil).BuildStats(); bs.Precision != "float32" || bs.HierarchyBytes != mg.FootprintOf(hier).Total() {
		t.Errorf("uniform basis BuildStats precision %q, %d hierarchy bytes; want float32 and %d", bs.Precision, bs.HierarchyBytes, mg.FootprintOf(hier).Total())
	}
	if h := model.CachedBasis(nil).BuildStats().Phases.Hierarchy; h <= 0 {
		t.Errorf("uniform basis BuildStats Hierarchy = %v, want the build time", h)
	}
	if h := model.CachedBasis(activity.Diagonal{}).BuildStats().Phases.Hierarchy; h != 0 {
		t.Errorf("diagonal basis BuildStats Hierarchy = %v, want 0", h)
	}
}
