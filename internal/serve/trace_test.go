package serve

// End-to-end request tracing through the worker: a caller-supplied
// X-Trace-ID survives into the response header, the JSON envelope and
// the /debug/requests span timeline; a caller without one gets a minted
// id; errors echo the id in their envelope too.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vcselnoc/internal/obs"
	"vcselnoc/internal/thermal"
)

func TestTraceEndToEnd(t *testing.T) {
	skipShort(t)
	spec, err := thermal.PaperSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Res = thermal.PreviewResolution()
	s, err := New(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	const traceID = "feedc0de00000001"
	req := httptest.NewRequest(http.MethodPost, "/v1/gradient", strings.NewReader(`{"chip": 25, "pvcsel": 2e-3}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("query status = %d (%s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get(obs.TraceHeader); got != traceID {
		t.Fatalf("response %s = %q, want the caller's %q", obs.TraceHeader, got, traceID)
	}
	resp := decodeBody[QueryResponse](t, w)
	if resp.TraceID != traceID {
		t.Fatalf("envelope trace_id = %q, want %q", resp.TraceID, traceID)
	}

	// No inbound id: the server mints a valid one and still echoes it.
	w2 := postJSON(t, s, "/v1/gradient", `{"chip": 26, "pvcsel": 2e-3}`)
	if w2.Code != http.StatusOK {
		t.Fatalf("second query status = %d (%s)", w2.Code, w2.Body.String())
	}
	minted := w2.Header().Get(obs.TraceHeader)
	if !obs.ValidID(minted) {
		t.Fatalf("minted trace id %q is not a valid id", minted)
	}
	if minted == traceID {
		t.Fatal("minted id collided with the caller-supplied one")
	}
	if resp2 := decodeBody[QueryResponse](t, w2); resp2.TraceID != minted {
		t.Fatalf("envelope trace_id = %q, want minted %q", resp2.TraceID, minted)
	}

	// Errors carry the trace id in their envelope as well.
	breq := httptest.NewRequest(http.MethodPost, "/v1/gradient", strings.NewReader(`{"chip": -1}`))
	breq.Header.Set("Content-Type", "application/json")
	breq.Header.Set(obs.TraceHeader, traceID)
	bw := httptest.NewRecorder()
	s.ServeHTTP(bw, breq)
	if bw.Code != http.StatusBadRequest {
		t.Fatalf("bad query status = %d", bw.Code)
	}
	if eb := decodeBody[errorBody](t, bw); eb.TraceID != traceID {
		t.Fatalf("error envelope trace_id = %q, want %q", eb.TraceID, traceID)
	}

	// The span timeline for the traced request is in /debug/requests.
	dreq := httptest.NewRequest(http.MethodGet, "/debug/requests", nil)
	dw := httptest.NewRecorder()
	s.ServeHTTP(dw, dreq)
	if dw.Code != http.StatusOK {
		t.Fatalf("/debug/requests status = %d (%s)", dw.Code, dw.Body.String())
	}
	dr := decodeBody[DebugRequests](t, dw)
	var rec *obs.TraceRecord
	for i := range dr.Requests {
		if dr.Requests[i].TraceID == traceID && dr.Requests[i].Status == http.StatusOK {
			rec = &dr.Requests[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("trace %s not in /debug/requests (%d records)", traceID, len(dr.Requests))
	}
	if rec.DurationUS <= 0 {
		t.Fatalf("trace duration = %d µs, want > 0", rec.DurationUS)
	}
	spans := make(map[string]obs.SpanRec)
	for _, sp := range rec.Spans {
		spans[sp.Name] = sp
	}
	for _, want := range []string{"admission", "basis", "solve"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("trace is missing the %q span (have %v)", want, spanNames(rec.Spans))
		}
	}
	for _, gone := range []string{"cache", "batch_wait", "coalesce_wait"} {
		if _, ok := spans[gone]; ok {
			t.Errorf("trace has a %q span; every query evaluates inline", gone)
		}
	}
	if sp := spans["solve"]; sp.DurationUS <= 0 {
		t.Errorf("solve span duration = %d µs, want > 0", sp.DurationUS)
	}
	for _, attr := range []string{"columns", "mg_iters", "hierarchy_ms", "galerkin_ms", "coarse_factor_ms", "cycle_arrays_ms", "levels", "coarse_cells", "precision", "hierarchy_mb"} {
		if sp := spans["basis"]; !hasAttr(sp, attr) {
			t.Errorf("basis span has no %s attribute (attrs %v)", attr, sp.Attrs)
		}
	}
	// This query built the server's first basis, so it paid the
	// hierarchy with its Galerkin products, the coarse factorisation and
	// the cycle arrays, on a
	// hierarchy of at least two levels whose coarsest level has cells and
	// whose arrays hold memory, in the float32 V-cycle preview's default
	// tolerance picks.
	for _, a := range spans["basis"].Attrs {
		switch a.Key {
		case "hierarchy_ms", "galerkin_ms", "coarse_factor_ms", "cycle_arrays_ms", "coarse_cells", "hierarchy_mb":
			if a.Value <= 0 {
				t.Errorf("basis span %s = %g on the first build, want > 0", a.Key, a.Value)
			}
		case "levels":
			if a.Value < 2 {
				t.Errorf("basis span levels = %g, want a multigrid hierarchy (≥ 2)", a.Value)
			}
		case "precision":
			if a.Value != 32 {
				t.Errorf("basis span precision = %g, want 32 (float32)", a.Value)
			}
		}
	}

	// The ?slow= filter with an absurd threshold drops everything.
	sreq := httptest.NewRequest(http.MethodGet, "/debug/requests?slow=10m", nil)
	sw := httptest.NewRecorder()
	s.ServeHTTP(sw, sreq)
	if sdr := decodeBody[DebugRequests](t, sw); len(sdr.Requests) != 0 {
		t.Fatalf("?slow=10m kept %d records, want 0", len(sdr.Requests))
	}
}

func spanNames(spans []obs.SpanRec) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

func hasAttr(sp obs.SpanRec, key string) bool {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return true
		}
	}
	return false
}
