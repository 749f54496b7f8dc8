package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/core"
	"vcselnoc/internal/dse"
	"vcselnoc/internal/fleet/chaos"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/thermal"
)

// previewSpec is the shared worker/in-process spec for shard tests.
func previewSpec(t *testing.T) thermal.Spec {
	t.Helper()
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.PreviewResolution()
	return spec
}

// localExplorer builds the in-process reference explorer.
func localExplorer(t *testing.T, spec thermal.Spec) *dse.Explorer {
	t.Helper()
	m, err := core.NewWithSpec(spec, snr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.Explorer(activity.Uniform{})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// startWorker spins one warm vcseld-equivalent on an httptest listener.
// Warming up front (the daemon's -warm flow) keeps the cold basis build
// out of the request path, whose client timeout a -race build would
// otherwise blow.
func startWorker(t *testing.T, spec thermal.Spec) *httptest.Server {
	t.Helper()
	s, err := New(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// patientClient widens the HTTP timeout for instrumented (-race) runs.
func patientClient(c *ShardClient) *ShardClient {
	c.HTTPClient = &http.Client{Timeout: 3 * time.Minute}
	return c
}

// TestShardedSweepMatchesInProcess is the acceptance test of the sharded
// DSE path: a SweepGradient and a SweepAvgTemp scattered across two live
// workers must reproduce the in-process Explorer grids exactly — same
// values (bit-for-bit), same row order.
func TestShardedSweepMatchesInProcess(t *testing.T) {
	skipShort(t)
	spec := previewSpec(t)
	ex := localExplorer(t, spec)
	w1 := startWorker(t, spec)
	w2 := startWorker(t, spec)

	client, err := NewShardClient(w1.URL+","+w2.URL, Scenario{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	patientClient(client)
	if len(client.Workers) != 2 {
		t.Fatalf("parsed %d workers", len(client.Workers))
	}

	chip := 25.0
	lasers := []float64{1e-3, 2e-3, 3e-3, 4e-3, 5e-3}
	heaters := []float64{0, 0.5e-3, 1e-3, 1.5e-3}

	want, err := ex.SweepGradient(chip, lasers, heaters)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.SweepGradient(chip, lasers, heaters)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded SweepGradient differs from in-process grid")
	}

	chips := []float64{20, 25, 30}
	wantT, err := ex.SweepAvgTemp(chips, lasers)
	if err != nil {
		t.Fatal(err)
	}
	gotT, err := client.SweepAvgTemp(chips, lasers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotT, wantT) {
		t.Fatal("sharded SweepAvgTemp differs from in-process grid")
	}
}

// TestShardRerouteToSurvivor: chunks landing on a dead worker are
// rerouted to the surviving worker — not stolen back onto the local
// fallback — and the merged grid stays exact.
func TestShardRerouteToSurvivor(t *testing.T) {
	skipShort(t)
	spec := previewSpec(t)
	ex := localExplorer(t, spec)
	alive := startWorker(t, spec)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on

	var fallbacks atomic.Int32
	client, err := NewShardClient(alive.URL+","+dead.URL, Scenario{}, func() (*dse.Explorer, error) {
		fallbacks.Add(1)
		return ex, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	patientClient(client)
	// Two chunks of one row each: one lands on the dead worker.
	client.ChunkRows = 1
	client.RetryBase = time.Millisecond

	chip := 25.0
	lasers := []float64{2e-3, 4e-3}
	heaters := []float64{0, 1e-3}
	want, err := ex.SweepGradient(chip, lasers, heaters)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.SweepGradient(chip, lasers, heaters)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("grid with reroute differs from in-process grid")
	}
	if fallbacks.Load() != 0 {
		t.Fatalf("fallback built %d times, want 0: a surviving worker should absorb the chunk", fallbacks.Load())
	}
}

// TestShardLocalRetry: only when every worker is dead — all remote
// attempts exhausted — does the chunk land on the local fallback, built
// once.
func TestShardLocalRetry(t *testing.T) {
	skipShort(t)
	spec := previewSpec(t)
	ex := localExplorer(t, spec)
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead1.Close()
	dead2 := httptest.NewServer(http.NotFoundHandler())
	dead2.Close()

	var fallbacks atomic.Int32
	client, err := NewShardClient(dead1.URL+","+dead2.URL, Scenario{}, func() (*dse.Explorer, error) {
		fallbacks.Add(1)
		return ex, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	patientClient(client)
	client.ChunkRows = 1
	client.ChunkAttempts = 2
	client.RetryBase = time.Millisecond

	chip := 25.0
	lasers := []float64{2e-3, 4e-3}
	heaters := []float64{0, 1e-3}
	want, err := ex.SweepGradient(chip, lasers, heaters)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.SweepGradient(chip, lasers, heaters)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("grid with local retry differs from in-process grid")
	}
	if fallbacks.Load() != 1 {
		t.Fatalf("fallback built %d times, want 1 (single-flight)", fallbacks.Load())
	}
}

// TestShardHonours429: an admission shed is waited out on its worker's
// advertised schedule, not treated as a failure — no reroute, no
// fallback, and the sweep still completes.
func TestShardHonours429(t *testing.T) {
	skipShort(t)
	spec := previewSpec(t)
	w := startWorker(t, spec)
	rule := &chaos.Rule{Method: http.MethodPost, PathPrefix: "/v1/sweep/", Status: http.StatusTooManyRequests, RetryAfter: 30 * time.Millisecond, Count: 2}
	proxy, ps := chaos.Serve(w.URL, rule)
	t.Cleanup(ps.Close)

	client, err := NewShardClient(ps.URL, Scenario{}, func() (*dse.Explorer, error) {
		t.Error("429 pushed the chunk onto the local fallback")
		return nil, fmt.Errorf("no fallback expected")
	})
	if err != nil {
		t.Fatal(err)
	}
	patientClient(client)
	client.ChunkAttempts = 4
	client.RetryBase = time.Millisecond

	start := time.Now()
	if _, err := client.SweepGradient(25, []float64{1e-3}, []float64{0}); err != nil {
		t.Fatalf("sweep through two sheds failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("sweep finished in %v: the two 30 ms shed schedules were not honoured", elapsed)
	}
	if got := proxy.Applied(rule); got != 2 {
		t.Errorf("shed rule applied %d times, want 2", got)
	}
}

// TestShardPermanentClientError: a non-shed 4xx is deterministic — it
// must not burn retry attempts before surfacing.
func TestShardPermanentClientError(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"serve: bad request"}`, http.StatusBadRequest)
	}))
	t.Cleanup(hs.Close)
	client, err := NewShardClient(hs.URL, Scenario{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.RetryBase = time.Millisecond
	if _, err := client.SweepGradient(25, []float64{1e-3}, []float64{0}); err == nil {
		t.Fatal("bad request accepted")
	}
	if hits.Load() != 1 {
		t.Fatalf("worker hit %d times for a deterministic 400, want 1", hits.Load())
	}
}

// TestShardNoFallbackPropagates: without a local fallback, a dead worker
// fails the sweep with its error.
func TestShardNoFallbackPropagates(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	client, err := NewShardClient(dead.URL, Scenario{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.RetryBase = time.Millisecond
	if _, err := client.SweepGradient(25, []float64{1e-3}, []float64{0}); err == nil {
		t.Fatal("sweep against a dead fleet succeeded")
	}
}

// TestShardWorkerErrorEnvelope: a worker's 4xx JSON error surfaces in
// the client error rather than a bare status code.
func TestShardWorkerErrorEnvelope(t *testing.T) {
	skipShort(t)
	spec := previewSpec(t)
	w := startWorker(t, spec)
	client, err := NewShardClient(w.URL, Scenario{Activity: "volcano"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	patientClient(client)
	_, err = client.SweepGradient(25, []float64{1e-3}, []float64{0})
	if err == nil {
		t.Fatal("unknown activity accepted")
	}
	if !strings.Contains(err.Error(), "volcano") {
		t.Fatalf("error %q does not surface the worker message", err)
	}
}

// TestNewShardClientParsing pins the -shards flag format.
func TestNewShardClientParsing(t *testing.T) {
	c, err := NewShardClient(" host1:8080 , http://host2:9090/ ", Scenario{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://host1:8080", "http://host2:9090"}
	if !reflect.DeepEqual(c.Workers, want) {
		t.Fatalf("workers = %v, want %v", c.Workers, want)
	}
	if _, err := NewShardClient(" , ", Scenario{}, nil); err == nil {
		t.Fatal("empty shard list accepted")
	}
}

// TestChunking pins the partition: contiguous, covering, capped.
func TestChunking(t *testing.T) {
	c := &ShardClient{Workers: []string{"a", "b"}}
	for _, tc := range []struct {
		total, chunkRows int
		want             []chunk
	}{
		{5, 0, []chunk{{0, 3}, {3, 5}}},
		{4, 1, []chunk{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{3, 10, []chunk{{0, 3}}},
	} {
		c.ChunkRows = tc.chunkRows
		got := c.chunks(tc.total)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("chunks(%d) with ChunkRows=%d = %v, want %v", tc.total, tc.chunkRows, got, tc.want)
		}
	}
}

// TestShardClientErrorFallback: a worker's non-shed 4xx is permanent
// remotely, but with a fallback configured the chunk is recomputed
// locally and the sweep still completes with the in-process grid.
func TestShardClientErrorFallback(t *testing.T) {
	skipShort(t)
	spec := previewSpec(t)
	ex := localExplorer(t, spec)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"serve: bad request"}`, http.StatusBadRequest)
	}))
	t.Cleanup(hs.Close)
	client, err := NewShardClient(hs.URL, Scenario{}, func() (*dse.Explorer, error) {
		return ex, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	client.RetryBase = time.Millisecond
	want, err := ex.SweepGradient(25, []float64{1e-3, 2e-3}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.SweepGradient(25, []float64{1e-3, 2e-3}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fallback grid differs from in-process grid")
	}
}

// TestShardPreflightOneSpec: a worker whose /v1/specs does not list
// exactly one spec is not a compatible vcseld, and preflight refuses it
// even when one of its entries matches.
func TestShardPreflightOneSpec(t *testing.T) {
	res := thermal.PreviewResolution()
	info := SpecInfo{Name: specLabel, ONICell: res.ONICell, DieCell: res.DieCell, MaxZCell: res.MaxZCell, Solver: fvm.SolverName}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, []SpecInfo{info, info})
	}))
	t.Cleanup(hs.Close)
	client, err := NewShardClient(hs.URL, Scenario{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.ExpectRes = &res
	_, err = client.SweepGradient(25, []float64{1e-3}, []float64{0})
	if err == nil || !strings.Contains(err.Error(), "lists 2 specs") {
		t.Fatalf("two-spec worker not refused at preflight: %v", err)
	}
}

// TestShardPreflightResolutionMismatch: a reachable worker meshing at a
// different resolution, or solving with another solver, must fail the
// sweep outright — merging rows from two discretisations would be
// silently wrong data.
func TestShardPreflightResolutionMismatch(t *testing.T) {
	skipShort(t)
	spec := previewSpec(t)
	w := startWorker(t, spec)
	client, err := NewShardClient(w.URL, Scenario{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	patientClient(client)
	fastRes := thermal.FastResolution()
	client.ExpectRes = &fastRes
	_, err = client.SweepGradient(25, []float64{1e-3}, []float64{0})
	if err == nil || !strings.Contains(err.Error(), "refusing to merge") {
		t.Fatalf("resolution mismatch not rejected: %v", err)
	}

	// A worker of an older build that solved with jacobi-cg is rejected
	// too, at preflight and, without one, per chunk: its rows would
	// differ from locally retried ones at the solve tolerance.
	older := olderSolverWorker(t, w.URL)
	for _, preflight := range []bool{true, false} {
		solverClient, err := NewShardClient(older.URL, Scenario{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		patientClient(solverClient)
		if preflight {
			res := spec.Res
			solverClient.ExpectRes = &res
		}
		_, err = solverClient.SweepGradient(25, []float64{1e-3}, []float64{0})
		if err == nil || !strings.Contains(err.Error(), "jacobi-cg") {
			t.Fatalf("preflight=%v: solver mismatch not rejected: %v", preflight, err)
		}
	}

	// Matching expectations pass preflight and sweep normally.
	match, err := NewShardClient(w.URL, Scenario{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	patientClient(match)
	res := spec.Res
	match.ExpectRes = &res
	if _, err := match.SweepGradient(25, []float64{1e-3}, []float64{0}); err != nil {
		t.Fatalf("matching preflight rejected: %v", err)
	}
}

// olderSolverWorker fronts a live worker and reports every answer as
// solved by jacobi-cg, as a worker of a build that still had it would.
func olderSolverWorker(t *testing.T, live string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequest(r.Method, live+r.URL.Path, r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadGateway)
			return
		}
		rw.WriteHeader(resp.StatusCode)
		rw.Write(bytes.ReplaceAll(body, []byte(`"solver":"mg-cg"`), []byte(`"solver":"jacobi-cg"`))) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	return ts
}

// verify the error message includes the failed row range for operators.
func TestShardErrorNamesRows(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	client, err := NewShardClient(dead.URL, Scenario{}, func() (*dse.Explorer, error) {
		return nil, fmt.Errorf("no local model")
	})
	if err != nil {
		t.Fatal(err)
	}
	client.RetryBase = time.Millisecond
	_, err = client.SweepGradient(25, []float64{1e-3}, []float64{0})
	if err == nil || !strings.Contains(err.Error(), "rows [0,1)") {
		t.Fatalf("error %v does not name the failed rows", err)
	}
}
