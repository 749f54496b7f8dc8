package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// LatencyBuckets are the default request-latency bucket upper bounds in
// seconds (log-spaced 10µs..10s), shared by every endpoint class so
// series stay comparable across specs. The bounds under 100µs resolve a
// warm design query, which evaluates in 5–20µs.
var LatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe.
// Counters are plain atomics; there is no lock anywhere on the observe
// path. The last implicit bucket is +Inf.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram returns a histogram over the given sorted upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistSnapshot is a point-in-time copy of a histogram, used both as the
// compact /healthz mirror and for before/after deltas in loadgen.
// Counts are per-bucket (non-cumulative) with len(Bounds)+1 entries;
// the final entry is the +Inf bucket.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state. Nil-safe.
func (h *Histogram) Snapshot() *HistSnapshot {
	if h == nil {
		return nil
	}
	s := &HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Sub returns the delta snapshot s - prev (same bucket layout assumed).
// A nil prev returns s unchanged.
func (s *HistSnapshot) Sub(prev *HistSnapshot) *HistSnapshot {
	if s == nil {
		return nil
	}
	if prev == nil || len(prev.Counts) != len(s.Counts) {
		return s
	}
	d := &HistSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the containing bucket. Values in the +Inf bucket clamp to the
// largest finite bound. Returns 0 when the snapshot is empty.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s == nil || s.Count <= 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// formatLe renders a bucket bound the way Prometheus clients expect
// (shortest float form; +Inf handled by the caller).
func formatLe(v float64) string {
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the histogram as cumulative _bucket series
// plus _sum and _count. labels is a pre-rendered, comma-separated label
// list WITHOUT braces (e.g. `spec="fast",class="query"`); it may be
// empty. HELP/TYPE headers are the caller's responsibility so several
// label sets can share one metric family.
func (h *Histogram) WritePrometheus(w io.Writer, name, labels string) {
	if h == nil {
		return
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatLe(h.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	sum := math.Float64frombits(h.sumBits.Load())
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum %g\n", name, sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	}
}
