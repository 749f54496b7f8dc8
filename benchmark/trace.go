package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call, as written to the trace file. Start and End are
// microseconds since the tracer was created; Parent is the span id of the
// call that caused this one ("" for a root).
type span struct {
	TraceID string  `json:"trace_id"`
	SpanID  string  `json:"span_id"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
}

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced run skips tracing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	seq   uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id returns a fresh hex id, usable as a trace or span id and as vcseld's
// X-Trace-ID header value ("" on a nil tracer).
func (t *tracer) id() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return fmt.Sprintf("%016x", t.seq)
}

func (t *tracer) micros(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e3
}

// add records a finished span and returns its id.
func (t *tracer) add(traceID, parent, name string, start, end time.Time) string {
	id := t.id()
	t.record(traceID, id, parent, name, start, end)
	return id
}

// record records a finished span under an id minted earlier, for a parent
// whose children finish first.
func (t *tracer) record(traceID, spanID, parent, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.addSpan(span{TraceID: traceID, SpanID: spanID, Parent: parent, Name: name, Start: t.micros(start), End: t.micros(end)})
}

func (t *tracer) addSpan(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Start is the wall-clock time span offsets count from.
	Start time.Time `json:"start"`
	// Minted counts the requests the benchmark tagged with a trace id and
	// Dropped those whose server-side trace never reached /debug/requests.
	Minted  int    `json:"minted"`
	Dropped int    `json:"dropped"`
	Spans   []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, minted, dropped int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := traceFile{Workload: workload, Seed: seed, Start: t.t0, Minted: minted, Dropped: dropped, Spans: t.snapshot()}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes maps each span id to the span's self time: its duration minus
// the part of its interval that its direct children cover. Overlapping
// children are counted once.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[string][]span)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64, len(spans))
	for _, s := range spans {
		kids := children[s.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.SpanID] = s.End - s.Start - covered
	}
	return self
}

// selfByName groups the spans' self times (µs) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], self[s.SpanID])
	}
	return out
}
