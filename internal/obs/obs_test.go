package obs

import (
	"bytes"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDsAndEnsureRequest(t *testing.T) {
	id := NewTraceID()
	if len(id) != 16 || !ValidID(id) {
		t.Fatalf("NewTraceID() = %q, want 16 hex chars", id)
	}
	if sp := NewSpanID(); len(sp) != 8 || !ValidID(sp) {
		t.Fatalf("NewSpanID() = %q, want 8 hex chars", sp)
	}
	if NewTraceID() == NewTraceID() {
		t.Fatal("consecutive trace IDs collided")
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("a", 65), "abc-def"} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true, want false", bad)
		}
	}

	r := httptest.NewRequest("GET", "/", nil)
	minted := EnsureRequest(r)
	if !ValidID(minted) {
		t.Fatalf("minted ID %q invalid", minted)
	}
	if got := r.Header.Get(TraceHeader); got != minted {
		t.Fatalf("header not written back: %q vs %q", got, minted)
	}
	r2 := httptest.NewRequest("GET", "/", nil)
	r2.Header.Set(TraceHeader, "deadbeefdeadbeef")
	if got := EnsureRequest(r2); got != "deadbeefdeadbeef" {
		t.Fatalf("valid propagated ID replaced: %q", got)
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("deadbeefdeadbeef", "/v1/gradient")
	s := tr.StartSpan("solve")
	time.Sleep(2 * time.Millisecond)
	s.SetAttr("mg_iters", 5)
	s.End()
	rec := tr.Finish(200)

	if rec.TraceID != "deadbeefdeadbeef" || rec.Endpoint != "/v1/gradient" {
		t.Fatalf("bad record identity: %+v", rec)
	}
	if rec.Status != 200 || rec.DurationUS <= 0 {
		t.Fatalf("bad status/duration: %+v", rec)
	}
	if len(rec.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(rec.Spans))
	}
	solve := rec.Spans[0]
	if solve.Name != "solve" || solve.DurationUS < 1000 {
		t.Fatalf("solve span not recorded: %+v", solve)
	}
	if len(solve.Attrs) != 1 || solve.Attrs[0].Key != "mg_iters" || solve.Attrs[0].Value != 5 {
		t.Fatalf("attr not recorded: %+v", solve.Attrs)
	}

	// Nil trace: everything is a no-op.
	var nilTr *Trace
	sp := nilTr.StartSpan("x")
	sp.SetAttr("k", 1)
	sp.End()
	if rec := nilTr.Finish(200); rec.TraceID != "" {
		t.Fatalf("nil trace produced record %+v", rec)
	}

	// Span overflow is dropped, not panicking.
	tr2 := NewTrace(NewTraceID(), "/x")
	for i := 0; i < maxSpans+4; i++ {
		tr2.StartSpan("s").End()
	}
	if got := len(tr2.Finish(200).Spans); got != maxSpans {
		t.Fatalf("overflow kept %d spans, want %d", got, maxSpans)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Publish(TraceRecord{TraceID: NewTraceID(), DurationUS: int64(i * 100)})
	}
	got := r.Recent(0, 0)
	if len(got) != 4 {
		t.Fatalf("ring kept %d, want 4", len(got))
	}
	// Newest first: durations 500, 400, 300, 200.
	for i, want := range []int64{500, 400, 300, 200} {
		if got[i].DurationUS != want {
			t.Fatalf("order wrong at %d: %+v", i, got)
		}
	}
	if slow := r.Recent(0, 350); len(slow) != 2 {
		t.Fatalf("slow filter kept %d, want 2", len(slow))
	}
	if lim := r.Recent(3, 0); len(lim) != 3 {
		t.Fatalf("limit kept %d, want 3", len(lim))
	}

	var nilRec *Recorder
	nilRec.Publish(TraceRecord{})
	if nilRec.Recent(0, 0) != nil {
		t.Fatal("nil recorder returned records")
	}
}

func TestHistogramObserveSnapshotQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 106 {
		t.Fatalf("sum = %g, want 106", s.Sum)
	}
	// le=1 gets 0.5 and 1 (le semantics), le=2 gets 1.5, le=4 gets 3, +Inf gets 100.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if q := s.Quantile(1); q != 4 {
		t.Fatalf("q100 = %g, want clamp to 4", q)
	}
	if q := s.Quantile(0.5); q <= 0 || q > 2 {
		t.Fatalf("median = %g out of range", q)
	}

	d := h.Snapshot().Sub(s)
	if d.Count != 0 || d.Sum != 0 {
		t.Fatalf("zero delta expected, got %+v", d)
	}
	h.Observe(0.1)
	d = h.Snapshot().Sub(s)
	if d.Count != 1 || d.Counts[0] != 1 {
		t.Fatalf("delta after one observe: %+v", d)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g+1) * 0.0001)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
	s := h.Snapshot()
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != 8000 {
		t.Fatalf("bucket sum = %d, want 8000", sum)
	}
}

// TestLatencyBucketsResolveWarmQueries: warm design queries take 5–20µs,
// so the default buckets must place a 10µs median below 25µs instead of
// interpolating it inside a 0–100µs bucket.
func TestLatencyBucketsResolveWarmQueries(t *testing.T) {
	if !sort.Float64sAreSorted(LatencyBuckets) {
		t.Fatalf("LatencyBuckets not ascending: %v", LatencyBuckets)
	}
	h := NewHistogram(LatencyBuckets)
	for i := 0; i < 1000; i++ {
		h.Observe(10e-6)
	}
	if p50 := h.Snapshot().Quantile(0.5); p50 > 25e-6 {
		t.Fatalf("p50 of 10µs observations = %gs, want ≤ 25µs", p50)
	}
	var buf bytes.Buffer
	h.WritePrometheus(&buf, "q_seconds", "")
	if want := `q_seconds_bucket{le="1e-05"} 1000`; !strings.Contains(buf.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, buf.String())
	}
}

func TestWritePrometheus(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)
	var buf bytes.Buffer
	h.WritePrometheus(&buf, "x_seconds", `spec="fast"`)
	out := buf.String()
	for _, want := range []string{
		`x_seconds_bucket{spec="fast",le="0.001"} 1`,
		`x_seconds_bucket{spec="fast",le="0.01"} 2`,
		`x_seconds_bucket{spec="fast",le="+Inf"} 3`,
		`x_seconds_count{spec="fast"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	var unlabeled bytes.Buffer
	h.WritePrometheus(&unlabeled, "y", "")
	if !strings.Contains(unlabeled.String(), `y_bucket{le="+Inf"} 3`) {
		t.Fatalf("unlabeled render wrong:\n%s", unlabeled.String())
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "trace_id", "abc123")
	if !strings.Contains(buf.String(), `"trace_id":"abc123"`) {
		t.Fatalf("json log missing attr: %s", buf.String())
	}
	buf.Reset()
	lg, err = NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	if buf.Len() != 0 {
		t.Fatalf("info not filtered at warn level: %s", buf.String())
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
	Discard().Info("goes nowhere")
}
