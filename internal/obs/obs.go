// Package obs provides the observability primitives shared by vcseld,
// vcselctl and the client tooling: trace-ID propagation, cheap
// per-request span timelines, bounded trace ring buffers, fixed-bucket
// histograms with Prometheus text rendering, and log/slog setup.
//
// Everything here is stdlib-only and designed to stay off the query hot
// path: span recording costs a couple of monotonic clock reads, trace
// publication happens after the response is written, and histograms are
// plain atomic counters.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"time"
)

// Header names used to propagate trace context between vcselctl, vcseld
// and clients. Values are lowercase hex strings.
const (
	TraceHeader = "X-Trace-ID"
	SpanHeader  = "X-Span-ID"
)

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// fixed ID rather than panicking in a request handler.
		return "0000000000000000"[:2*n]
	}
	return hex.EncodeToString(b)
}

// NewTraceID returns a fresh 16-hex-char trace ID.
func NewTraceID() string { return randHex(8) }

// NewSpanID returns a fresh 8-hex-char span ID.
func NewSpanID() string { return randHex(4) }

// ValidID reports whether s looks like a propagated ID: 1..64 hex chars.
func ValidID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// EnsureRequest returns the request's trace ID, minting one if the
// X-Trace-ID header is absent or malformed, and writes the final value
// back into the request headers so downstream handlers see it.
func EnsureRequest(r *http.Request) string {
	id := r.Header.Get(TraceHeader)
	if !ValidID(id) {
		id = NewTraceID()
		r.Header.Set(TraceHeader, id)
	}
	return id
}

// Attr is a numeric span attribute (e.g. mg iteration counts or phase
// fractions). A small slice of these avoids per-span map allocations.
type Attr struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// SpanRec is one finished span inside a trace, offsets relative to the
// trace start.
type SpanRec struct {
	Name       string `json:"name"`
	StartUS    int64  `json:"start_us"`
	DurationUS int64  `json:"duration_us"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// TraceRecord is the wire form of a finished trace as served by
// GET /debug/requests.
type TraceRecord struct {
	TraceID    string    `json:"trace_id"`
	SpanID     string    `json:"span_id,omitempty"`
	Endpoint   string    `json:"endpoint"`
	Spec       string    `json:"spec,omitempty"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Status     int       `json:"status"`
	Spans      []SpanRec `json:"spans,omitempty"`
}

// maxSpans bounds the per-trace span array; requests record at most a
// handful of phases, so overflow silently drops the extras.
const maxSpans = 12

// Trace accumulates spans for one in-flight request. It is owned by the
// request goroutine; methods are not safe for concurrent use. A nil
// *Trace is valid and makes every method a no-op, which is how tracing
// is disabled without branching at call sites.
type Trace struct {
	traceID  string
	spanID   string
	endpoint string
	spec     string
	start    time.Time
	n        int
	spans    [maxSpans]SpanRec
}

// NewTrace starts a trace for one request. spec may be empty.
func NewTrace(traceID, endpoint, spec string) *Trace {
	return &Trace{
		traceID:  traceID,
		spanID:   NewSpanID(),
		endpoint: endpoint,
		spec:     spec,
		start:    time.Now(),
	}
}

// TraceID returns the propagated trace ID ("" on a nil trace).
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SetSpec sets the spec label after creation (resolved mid-handler).
func (t *Trace) SetSpec(spec string) {
	if t != nil {
		t.spec = spec
	}
}

// Span is a lightweight handle to an open span. The zero Span (or any
// span started on a nil trace) is inert.
type Span struct {
	t     *Trace
	idx   int
	start time.Time
}

// StartSpan opens a named span. Call End on the returned handle.
func (t *Trace) StartSpan(name string) Span {
	if t == nil || t.n >= maxSpans {
		return Span{}
	}
	idx := t.n
	t.n++
	now := time.Now()
	t.spans[idx] = SpanRec{Name: name, StartUS: now.Sub(t.start).Microseconds()}
	return Span{t: t, idx: idx, start: now}
}

// End closes the span, recording its duration.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.spans[s.idx].DurationUS = time.Since(s.start).Microseconds()
}

// SetAttr attaches a numeric attribute to the span.
func (s Span) SetAttr(key string, v float64) {
	if s.t == nil {
		return
	}
	rec := &s.t.spans[s.idx]
	rec.Attrs = append(rec.Attrs, Attr{Key: key, Value: v})
}

// Finish seals the trace into its wire record. The span slice is copied
// so the Trace can be dropped immediately.
func (t *Trace) Finish(status int) TraceRecord {
	if t == nil {
		return TraceRecord{}
	}
	rec := TraceRecord{
		TraceID:    t.traceID,
		SpanID:     t.spanID,
		Endpoint:   t.endpoint,
		Spec:       t.spec,
		Start:      t.start,
		DurationUS: time.Since(t.start).Microseconds(),
		Status:     status,
		Spans:      append([]SpanRec(nil), t.spans[:t.n]...),
	}
	return rec
}

// Elapsed returns time since the trace started (0 on nil).
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}
